"""Cohort evaluation: voxel volumes in, detection/grading report out.

The pipeline per patient is argmax labeling, per-grade and CS-binary
clustering, the minimum-volume filter, an optional zonal restriction, and
overlap matching.  Cohort-level aggregation produces the binary CS FROC
(pooled, per fold, and a mean +/- 2 std band over folds), per-grade FROC
curves, both confusion-matrix variants with quadratic weighted kappa and
bootstrap bands, per-fold kappa, prostate Dice, and fixed-FP sensitivity
readouts.

`evaluate_cohort` is pure and in-memory; `run_full_evaluation` adds the
directory conventions and writes the report bundle (report.json plus CSV
and JSON intermediates from which every reported number is recomputable).
"""

from __future__ import annotations

import csv
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .cluster import (
    CONNECTIVITIES,
    DEFAULT_CONNECTIVITY,
    MIN_LESION_VOLUME_MM3,
    LesionMap,
    _in_zone,
    cs_lesion_maps,
    filter_by_volume,
    filter_by_zone,
    # unused here; perfbench/tracer.py wraps it in this module and fails if it is missing
    gs_lesion_maps,
    lesion_maps,
    overlapping,
)
from .grades import GRADE_ORDER, Grade, MISSED, parse_grade
from .matching import (
    DEFAULT_OVERLAP_FRAC,
    OVERLAP_DENOMS,
    DetectionRecord,
    MatchResult,
    _dice,
    _grading_key,
    _overlap_value,
    _qualifies,
    match_detections,
    point_in_cluster_grade,
)
from .metrics import (
    RESAMPLE_UNITS,
    AggregatePoint,
    ConfusionMatrix,
    FrocCurve,
    FrocPoint,
    KappaResult,
    aggregate_folds,
    bootstrap_kappa,
    confusion_matrix,
    dice_coefficient,
    # unused here; perfbench/tracer.py wraps both names in this module and fails if one is missing
    froc_by_grade,
    froc_curve,
    froc_from_matches,
    match_grade,
    quadratic_weighted_kappa,
    sensitivity_at_fp,
)
from .netmath import label_from_probs
from .volume import (
    KIND_LABEL,
    ProbStack,
    Volume,
    ZoneMask,
    read_json,
    read_prob_stack,
    read_volume,
    setting,
    validate,
    write_csv,
    write_json,
)

#: the columns of each bundle CSV are the fields of the record in its rows:
#: detections.csv one DetectionRecord per ground-truth lesion, the FROC CSVs
#: one FrocPoint per threshold and froc_cs_aggregate.csv one AggregatePoint;
#: each row is the attrgetter of those fields
DETECTION_COLUMNS, FROC_COLUMNS, BAND_COLUMNS = (
    tuple(f.name for f in fields(c)) for c in (DetectionRecord, FrocPoint, AggregatePoint))
_detection_fields, _froc_row, _band_row = (
    attrgetter(*c) for c in (DETECTION_COLUMNS, FROC_COLUMNS, BAND_COLUMNS))


def cohort_dirs(root) -> dict[str, str]:
    """Directory fields of the standard cohort layout under one root: gt/,
    pred/, zones/ and the cohort.json fold manifest."""
    root = Path(root)
    return {
        "gt_dir": str(root / "gt"),
        "pred_dir": str(root / "pred"),
        "zones_dir": str(root / "zones"),
        "fold_manifest": str(root / "cohort.json"),
    }


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the evaluation protocol; defaults are the study constants
    (45 mm^3 volume filter, 10% overlap rule, 26-connectivity)."""

    gt_dir: str | None = setting(None, "path")
    pred_dir: str | None = setting(None, "path")
    zones_dir: str | None = setting(None, "path")
    fold_manifest: str | None = setting(None, "path")
    output_dir: str | None = setting(None, "path")
    connectivity: int = setting(DEFAULT_CONNECTIVITY, "int", choices=CONNECTIVITIES)
    min_volume_mm3: float = setting(MIN_LESION_VOLUME_MM3, "real", "[0, inf)", unit="mm^3")
    overlap_frac: float = setting(DEFAULT_OVERLAP_FRAC, "real", "(0, 1]", unit="fraction")
    overlap_denom: str = setting("pred", None, choices=OVERLAP_DENOMS)
    zone: str | None = setting(None, None, choices=(None, "pz", "tz"))
    strict_duplicates: bool = setting(False, "bool")
    bootstrap_iterations: int = setting(1000, "int", "[1, inf)", unit="resamples")
    bootstrap_seed: int = setting(0, "int", "[0, inf)")
    bootstrap_resample: str = setting("lesion", None, choices=RESAMPLE_UNITS)
    fp_targets: tuple[float, ...] = setting((1.0, 1.5), "real", "[0, inf)", (None,), "FP/patient")
    fp_grid: tuple[float, ...] = setting((0.25, 0.5, 1.0, 1.5, 2.0), "real", "[0, inf)", (None,),
                                         "FP/patient")

    __post_init__ = validate

    @property
    def threads(self) -> int:
        # not a field: perfbench/workloads.py (aggregate_dense describe) reads
        # it; ROADMAP item 2's benchmark change deletes it
        return 1

    def to_dict(self) -> dict:
        """Every protocol field, sequences as lists; the directory paths stay out."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.metadata["spec"].kind != "path"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


@dataclass(frozen=True)
class PatientEval:
    """One patient's evaluation inputs."""

    patient_id: str
    fold: int
    labels: Volume  # ground-truth label codes
    probs: ProbStack  # predicted per-class probabilities
    zones: ZoneMask | None = None

    def __post_init__(self):
        if self.labels.kind != KIND_LABEL:
            raise ValueError(f"ground truth of patient {self.patient_id} must be a "
                             f"{KIND_LABEL!r} volume, got kind {self.labels.kind!r}")
        vals = self.probs.data.shape[1:]
        if vals != self.labels.values.shape or self.probs.spacing_mm != self.labels.spacing_mm:
            raise ValueError(f"prediction grid mismatch for patient {self.patient_id}")
        if self.zones is not None and not self.zones.pz.same_grid(self.labels):
            raise ValueError(f"zone grid mismatch for patient {self.patient_id}")


@dataclass(frozen=True)
class PatientStage:
    """Per-patient pipeline products feeding cohort aggregation.  The
    matches are at score threshold 0, from which every FROC curve counts."""

    patient_id: str
    fold: int
    gs_pred: LesionMap
    gs_gt: LesionMap
    cs_pred: LesionMap
    cs_gt: LesionMap
    prostate_dice: float
    records: tuple[DetectionRecord, ...]
    cs_match: MatchResult
    grade_matches: dict[Grade, MatchResult]  # match_grade of the GS maps, per grade


@dataclass
class EvaluationReport:
    n_patients: int
    folds: tuple[int, ...]
    patients: list[dict]
    prostate_dice_mean: float
    prostate_dice_std: float
    cs_froc: FrocCurve
    cs_froc_by_fold: dict[int, FrocCurve | None]
    cs_aggregate: tuple[AggregatePoint, ...] | None
    grade_froc: dict[Grade, FrocCurve | None]
    sens_at: dict[str, dict[float, float] | None]
    records: tuple[DetectionRecord, ...]
    confusion_tp_only: ConfusionMatrix
    confusion_with_fn: ConfusionMatrix
    kappa_tp_only: KappaResult
    kappa_with_fn: KappaResult
    fold_kappa: dict[str, dict]  # variant -> {"values": {fold: v|None}, "mean", "std"}
    degenerate_stats: list[str]
    config: EvaluationConfig


# ---------------------------------------------------------------------------
# Per-patient stage


def _lesion_zone(lesion, zones: ZoneMask | None) -> str:
    """PZ or TZ when at least half the lesion's voxels lie in that zone (the
    rule of filter_by_zone), PZ checked first; otherwise unknown."""
    if zones is None:
        return "unknown"
    if _in_zone(lesion, zones.pz):
        return "PZ"
    if _in_zone(lesion, zones.tz):
        return "TZ"
    return "unknown"


def _patient_records(patient: PatientEval, gs_pred, gs_gt, cfg) -> tuple:
    """Detection outcome per ground-truth lesion: a lesion is detected when
    some predicted cluster reaches the overlap rule against it, and takes
    the grade of the highest-Dice qualifying cluster (one cluster may grade
    several lesions)."""
    denom = cfg.overlap_denom
    records = []
    preds = gs_pred.clusters
    for lesion, hits in zip(gs_gt.clusters, overlapping(gs_gt.clusters, preds)):
        cands = [(inter, preds[j]) for j, inter in hits
                 if _qualifies(inter, preds[j], lesion, denom, cfg.overlap_frac)]
        if cands:
            inter, best = max(cands, key=lambda ic: _grading_key(*ic, lesion))
            pred_grade, score = best.grade, best.score
            dice = _dice(inter, best.n_voxels, lesion.n_voxels)
            overlap = _overlap_value(inter, best, lesion, denom)
        else:
            pred_grade, score, dice, overlap = MISSED, 0.0, 0.0, 0.0
        records.append(
            DetectionRecord(
                patient_id=patient.patient_id,
                fold=patient.fold,
                zone=_lesion_zone(lesion, patient.zones),
                gt_grade=lesion.grade,
                pred_grade=pred_grade,
                score=score,
                dice=dice,
                overlap_frac=overlap,
            )
        )
    return tuple(records)


def _stage_patient(patient: PatientEval, cfg: EvaluationConfig) -> PatientStage:
    pred_labels = label_from_probs(patient.probs)
    conn = cfg.connectivity

    gs_pred, cs_pred = (filter_by_volume(m, cfg.min_volume_mm3)
                        for m in lesion_maps(pred_labels, patient.probs, conn))
    gs_gt, cs_gt = (filter_by_volume(m, cfg.min_volume_mm3)
                    for m in lesion_maps(patient.labels, None, conn))

    if cfg.zone is not None:
        if patient.zones is None:
            raise ValueError(
                f"zone filter {cfg.zone!r} requested but patient "
                f"{patient.patient_id} has no zone masks"
            )
        mask = patient.zones.pz if cfg.zone == "pz" else patient.zones.tz
        gs_pred = filter_by_zone(gs_pred, mask)
        gs_gt = filter_by_zone(gs_gt, mask)
        cs_pred = filter_by_zone(cs_pred, mask)
        cs_gt = filter_by_zone(cs_gt, mask)

    rule = {"overlap_frac": cfg.overlap_frac, "denom": cfg.overlap_denom,
            "strict_duplicates": cfg.strict_duplicates}
    return PatientStage(
        patient_id=patient.patient_id,
        fold=patient.fold,
        gs_pred=gs_pred,
        gs_gt=gs_gt,
        cs_pred=cs_pred,
        cs_gt=cs_gt,
        records=_patient_records(patient, gs_pred, gs_gt, cfg),
        cs_match=match_detections(cs_pred, cs_gt, **rule),
        grade_matches={g: match_grade(gs_pred, gs_gt, g, **rule) for g in GRADE_ORDER},
        # the gland is every nonzero label; the Dice comes after the matches,
        # so a grid mismatch reports match_detections' message
        prostate_dice=dice_coefficient(patient.labels, pred_labels),
    )


# ---------------------------------------------------------------------------
# Cohort aggregation


def _fold_kappa(records, folds, include_fn_as_gs6):
    values = {}
    usable = []
    for f in folds:
        recs = [r for r in records if r.fold == f]
        cm = confusion_matrix(recs, include_fn_as_gs6)
        if cm.total == 0:
            values[f] = None
            continue
        k = quadratic_weighted_kappa(cm).kappa
        values[f] = k
        usable.append(k)
    mean = float(np.mean(usable)) if usable else None
    std = float(np.std(usable)) if usable else None
    return {"values": values, "mean": mean, "std": std}


def stage_cohort(patients, cfg: EvaluationConfig) -> list[PatientStage]:
    """Per-patient pipeline over the cohort, output always in input order.

    patients may be any iterable.  It is consumed one patient at a time and
    only each PatientStage is kept, so from a lazy iterable such as
    load_cohort's one patient's inputs are alive at a time."""
    stages = []
    seen = set()
    for patient in patients:
        if patient.patient_id in seen:
            raise ValueError("duplicate patient ids in cohort")
        seen.add(patient.patient_id)
        stages.append(_stage_patient(patient, cfg))
        del patient  # released before the next patient loads
    if not stages:
        raise ValueError("cohort is empty")
    return stages


def evaluate_cohort(patients, cfg: EvaluationConfig | None = None) -> EvaluationReport:
    """Run the full protocol over in-memory patients, in input order."""
    cfg = cfg or EvaluationConfig()
    return aggregate_stages(stage_cohort(patients, cfg), cfg)


def _curve_or_none(matches) -> FrocCurve | None:
    """FROC over one match per patient, or None without ground-truth lesions."""
    if sum(m.n_gt for m in matches) == 0:
        return None
    return froc_from_matches(matches, len(matches))


def aggregate_stages(stages, cfg: EvaluationConfig) -> EvaluationReport:
    """Cohort-level metrics from per-patient stages, in deterministic order."""
    degenerate = []
    folds = tuple(sorted({s.fold for s in stages}))
    cs_curve = froc_from_matches([s.cs_match for s in stages], len(stages))

    cs_by_fold = {}
    for f in folds:
        cs_by_fold[f] = _curve_or_none([s.cs_match for s in stages if s.fold == f])
        if cs_by_fold[f] is None:
            degenerate.append(f"fold {f} has no CS ground-truth lesions")
    fold_curves = [c for c in cs_by_fold.values() if c is not None]
    cs_aggregate = (
        aggregate_folds(fold_curves, cfg.fp_grid) if len(fold_curves) >= 2 else None
    )
    if cs_aggregate is None:
        degenerate.append("fewer than 2 folds with CS lesions; no aggregate band")

    grade_curves = {}
    for g in GRADE_ORDER:
        grade_curves[g] = _curve_or_none([s.grade_matches[g] for s in stages])
        if grade_curves[g] is None:
            degenerate.append(f"no {g.display} ground-truth lesions; curve omitted")

    sens_at = {
        "CS": {t: sensitivity_at_fp(cs_curve, t) for t in cfg.fp_targets}
    }
    for g in GRADE_ORDER:
        curve = grade_curves[g]
        sens_at[g.display] = (
            None if curve is None else {t: sensitivity_at_fp(curve, t) for t in cfg.fp_targets}
        )

    records = tuple(r for s in stages for r in s.records)
    cm_tp = confusion_matrix(records, include_fn_as_gs6=False)
    cm_fn = confusion_matrix(records, include_fn_as_gs6=True)
    if cm_tp.total == 0:
        degenerate.append("no detected lesions; TP-only matrix is empty")
    kappa = bootstrap_kappa(
        records, n_iter=cfg.bootstrap_iterations, seed=cfg.bootstrap_seed,
        resample=cfg.bootstrap_resample,
    )
    for name, k in (("tp_only", kappa.tp_only), ("with_fn", kappa.with_fn)):
        if k.degenerate:
            degenerate.append(f"kappa ({name}) is degenerate")

    fold_kappa = {
        "tp_only": _fold_kappa(records, folds, include_fn_as_gs6=False),
        "with_fn": _fold_kappa(records, folds, include_fn_as_gs6=True),
    }
    for variant, d in fold_kappa.items():
        for f, v in d["values"].items():
            if v is None:
                degenerate.append(f"fold {f} kappa ({variant}) undefined (no records)")

    dices = np.asarray([s.prostate_dice for s in stages], dtype=np.float64)
    patients_out = [
        {
            "patient_id": s.patient_id,
            "fold": s.fold,
            "prostate_dice": s.prostate_dice,
            "n_gt_lesions": len(s.gs_gt),
            "n_pred_clusters": len(s.gs_pred),
        }
        for s in stages
    ]

    return EvaluationReport(
        n_patients=len(stages),
        folds=folds,
        patients=patients_out,
        prostate_dice_mean=float(dices.mean()),
        prostate_dice_std=float(dices.std()),
        cs_froc=cs_curve,
        cs_froc_by_fold=cs_by_fold,
        cs_aggregate=cs_aggregate,
        grade_froc=grade_curves,
        sens_at=sens_at,
        records=records,
        confusion_tp_only=cm_tp,
        confusion_with_fn=cm_fn,
        kappa_tp_only=kappa.tp_only,
        kappa_with_fn=kappa.with_fn,
        fold_kappa=fold_kappa,
        degenerate_stats=degenerate,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Report serialization


def _curve_dict(curve: FrocCurve | None):
    if curve is None:
        return None
    return {
        "n_patients": curve.n_patients,
        "n_gt_lesions": curve.n_gt_lesions,
        "points": list(map(_froc_row, curve.points)),
    }


def _confusion_dict(cm: ConfusionMatrix, k: KappaResult):
    return {
        "grades": [g.display for g in GRADE_ORDER],
        "counts": [list(r) for r in cm.counts],
        "include_fn_as_gs6": cm.include_fn_as_gs6,
        **asdict(k),
    }


def report_to_dict(report: EvaluationReport) -> dict:
    sens = {}
    for name, d in report.sens_at.items():
        sens[name] = None if d is None else {str(t): v for t, v in d.items()}
    return {
        "config": report.config.to_dict(),
        "n_patients": report.n_patients,
        "folds": list(report.folds),
        "patients": report.patients,
        "prostate_dice": {
            "mean": report.prostate_dice_mean,
            "std": report.prostate_dice_std,
        },
        "froc": {
            "cs": _curve_dict(report.cs_froc),
            "cs_by_fold": {str(f): _curve_dict(c) for f, c in report.cs_froc_by_fold.items()},
            "cs_aggregate": None
            if report.cs_aggregate is None
            else list(map(_band_row, report.cs_aggregate)),
            "by_grade": {g.display: _curve_dict(c) for g, c in report.grade_froc.items()},
        },
        "sensitivity_at_fp": sens,
        "confusion": {
            "tp_only": _confusion_dict(report.confusion_tp_only, report.kappa_tp_only),
            "with_fn": _confusion_dict(report.confusion_with_fn, report.kappa_with_fn),
        },
        "kappa_by_fold": {
            variant: {
                "values": {str(f): v for f, v in d["values"].items()},
                "mean": d["mean"],
                "std": d["std"],
            }
            for variant, d in report.fold_kappa.items()
        },
        "n_detection_records": len(report.records),
        "degenerate_stats": report.degenerate_stats,
    }


def _write_froc_csv(path, curve: FrocCurve) -> None:
    write_csv(path, FROC_COLUMNS, map(_froc_row, curve.points))


def _cluster_summary(m: LesionMap) -> list[dict]:
    return [
        {
            "grade": c.grade_name,
            "n_voxels": c.n_voxels,
            "volume_mm3": c.volume_mm3,
            "score": c.score,
            "bbox": list(c.bbox),
        }
        for c in m.clusters
    ]


def write_report_bundle(report: EvaluationReport, out_dir, stages=None) -> None:
    """report.json plus the CSV/JSON intermediates: detections.csv, FROC
    CSVs (pooled, per fold, per grade, aggregate band), both confusion
    matrices, and per-patient cluster summaries when stages are given."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report_to_dict(report))

    write_csv(out / "detections.csv", DETECTION_COLUMNS, (
        [v.display if isinstance(v, Grade) else v for v in _detection_fields(r)]
        for r in report.records
    ))

    _write_froc_csv(out / "froc_cs.csv", report.cs_froc)
    for f, curve in report.cs_froc_by_fold.items():
        if curve is not None:
            _write_froc_csv(out / f"froc_cs_fold{f}.csv", curve)
    for g, curve in report.grade_froc.items():
        if curve is not None:
            _write_froc_csv(out / f"froc_{g.name.lower()}.csv", curve)
    if report.cs_aggregate is not None:
        write_csv(out / "froc_cs_aggregate.csv", BAND_COLUMNS,
                  map(_band_row, report.cs_aggregate))

    write_json(
        out / "confusion_tp_only.json",
        _confusion_dict(report.confusion_tp_only, report.kappa_tp_only),
    )
    write_json(
        out / "confusion_with_fn.json",
        _confusion_dict(report.confusion_with_fn, report.kappa_with_fn),
    )

    if stages is not None:
        clusters = {
            s.patient_id: {
                "gs_pred": _cluster_summary(s.gs_pred),
                "gs_gt": _cluster_summary(s.gs_gt),
                "cs_pred": _cluster_summary(s.cs_pred),
                "cs_gt": _cluster_summary(s.cs_gt),
            }
            for s in stages
        }
        write_json(out / "clusters.json", clusters)


def _detection_from_row(row) -> DetectionRecord:
    pred = row["pred_grade"]
    return DetectionRecord(
        patient_id=row["patient_id"],
        fold=int(row["fold"]),
        zone=row["zone"],
        gt_grade=parse_grade(row["gt_grade"]),
        pred_grade=MISSED if pred == MISSED else parse_grade(pred),
        score=float(row["score"]),
        dice=float(row["dice"]),
        overlap_frac=float(row["overlap_frac"]),
    )


def read_detections_csv(path) -> list[DetectionRecord]:
    """The detection records of a bundle's detections.csv."""
    return read_csv(path, DETECTION_COLUMNS, _detection_from_row)


# ---------------------------------------------------------------------------
# Disk conventions


def read_csv(path, columns, parse) -> list:
    """parse(row) for each data row of a CSV file with a header naming every
    one of columns.  A missing column, a row with missing or extra fields,
    malformed CSV, a ValueError from parse, or no data rows at all raises
    ValueError naming the file and line."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        try:
            if not set(columns).issubset(reader.fieldnames or ()):
                raise ValueError(f"header needs columns {list(columns)}")
            rows = []
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError("row has missing or extra fields")
                rows.append(parse(row))
        except (ValueError, csv.Error) as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from e
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return rows


def load_fold_manifest(path) -> list[tuple[str, int]]:
    manifest = read_json(path)
    try:
        pairs = [(p["patient_id"], p["fold"]) for p in manifest["patients"]]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed fold manifest {path}: {e}") from e
    for pid, fold in pairs:
        if type(pid) is not str:
            raise ValueError(f"fold manifest {path}: patient_id must be a string, got {pid!r}")
        if type(fold) is not int:
            raise ValueError(f"fold manifest {path}: fold of {pid!r} must be an integer, "
                             f"got {fold!r}")
    if not pairs:
        raise ValueError(f"fold manifest {path} lists no patients")
    for pid, n in Counter(pid for pid, _ in pairs).items():
        if n > 1:
            raise ValueError(f"fold manifest {path} lists patient {pid!r} {n} times")
    return pairs


def load_patient_eval(cfg: EvaluationConfig, patient_id: str, fold: int) -> PatientEval:
    gt_dir = Path(cfg.gt_dir)
    pred_dir = Path(cfg.pred_dir)
    labels = read_volume(gt_dir / f"{patient_id}_labels")
    probs = read_prob_stack(pred_dir / f"{patient_id}_prob")
    zones = None
    if cfg.zones_dir is not None:
        pz_path = Path(cfg.zones_dir) / f"{patient_id}_pz.vol.json"
        tz_path = Path(cfg.zones_dir) / f"{patient_id}_tz.vol.json"
        # zone masks come in pairs: with one file present, reading the other
        # names it as missing
        if pz_path.exists() or tz_path.exists():
            pz, tz = read_volume(pz_path), read_volume(tz_path)
            try:
                zones = ZoneMask(pz=pz, tz=tz)
            except ValueError as e:
                raise ValueError(f"zone masks of patient {patient_id} ({pz_path}, {tz_path}): "
                                 f"{e}") from e
    return PatientEval(patient_id=patient_id, fold=fold, labels=labels, probs=probs, zones=zones)


def load_cohort(cfg: EvaluationConfig) -> Iterator[PatientEval]:
    """Every patient of the fold manifest, in manifest order.

    The manifest is read and checked now; each patient's volumes are read
    only when the returned iterator reaches that patient, so a consumer
    that keeps no PatientEval holds one patient's inputs at a time."""
    pairs = load_fold_manifest(cfg.fold_manifest)
    return (load_patient_eval(cfg, pid, fold) for pid, fold in pairs)


def run_full_evaluation(cfg: EvaluationConfig):
    """Load the cohort from disk, evaluate, and write the bundle.

    Returns (report, stages).  Requires gt_dir, pred_dir, fold_manifest and
    output_dir to be set.
    """
    for name in ("gt_dir", "pred_dir", "fold_manifest", "output_dir"):
        if getattr(cfg, name) is None:
            raise ValueError(f"evaluation config needs {name}")
    stages = stage_cohort(load_cohort(cfg), cfg)
    report = aggregate_stages(stages, cfg)
    write_report_bundle(report, cfg.output_dir, stages)
    return report, stages


# ---------------------------------------------------------------------------
# Point-annotation protocol (external datasets without contoured lesions)


@dataclass(frozen=True)
class PointAnnotation:
    patient_id: str
    x: int
    y: int
    z: int
    zone: str
    gs_label: Grade


#: columns of a point-annotation CSV, one row per PointAnnotation
POINT_COLUMNS = ("patient_id", "x_vox", "y_vox", "z_vox", "zone", "gs_label")


def read_points_csv(path) -> list[PointAnnotation]:
    """The point annotations of a CSV with POINT_COLUMNS."""
    return read_csv(
        path, POINT_COLUMNS,
        lambda row: PointAnnotation(
            patient_id=row["patient_id"],
            x=int(row["x_vox"]),
            y=int(row["y_vox"]),
            z=int(row["z_vox"]),
            zone=row["zone"],
            gs_label=parse_grade(row["gs_label"]),
        ),
    )


def evaluate_points(points, stacks_by_id, cfg: EvaluationConfig | None = None):
    """Grade each annotated point against the prediction it falls in.

    A point inside a volume-filtered CS cluster takes the cluster's modal
    predicted GS grade; a point covered by no cluster reads GS6.  Returns
    (records, kappa with bootstrap): records are per-point, in input order,
    with fold 0, so patient-level resampling still groups by patient id.

    Patients are graded one at a time, in order of their first point:
    ``stacks_by_id[patient_id]`` is looked up once, its stack clustered and
    the patient's points graded, and nothing of it is kept.  Any mapping
    works, including one that reads each stack on lookup.
    """
    cfg = cfg or EvaluationConfig()
    points = list(points)
    by_patient = {}
    for i, pt in enumerate(points):
        by_patient.setdefault(pt.patient_id, []).append(i)
    records = [None] * len(points)
    for pid, indices in by_patient.items():
        try:
            stack = stacks_by_id[pid]
        except KeyError:
            raise ValueError(f"no prediction for patient {pid}") from None
        pred_labels = label_from_probs(stack)
        cs = filter_by_volume(
            cs_lesion_maps(pred_labels, stack, cfg.connectivity), cfg.min_volume_mm3
        )
        del stack  # released before the next patient's stack is read
        for i in indices:
            pt = points[i]
            records[i] = DetectionRecord(
                patient_id=pt.patient_id,
                fold=0,
                zone=pt.zone,
                gt_grade=pt.gs_label,
                pred_grade=point_in_cluster_grade((pt.x, pt.y, pt.z), cs, pred_labels),
                score=0.0,
                dice=0.0,
                overlap_frac=0.0,
            )
    kappa = bootstrap_kappa(
        records, n_iter=cfg.bootstrap_iterations, seed=cfg.bootstrap_seed,
        resample=cfg.bootstrap_resample,
    )
    return records, kappa.tp_only
