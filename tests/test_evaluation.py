"""Cohort evaluation: protocol composition, report content, disk round
trips, and exact agreement with the phantom ledger."""

import dataclasses
import functools
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from lesionkit import evaluation, matching, metrics
from lesionkit.evaluation import (
    EvaluationConfig,
    PatientEval,
    PointAnnotation,
    aggregate_stages,
    cohort_dirs,
    evaluate_cohort,
    evaluate_points,
    load_cohort,
    read_points_csv,
    report_to_dict,
    run_full_evaluation,
    stage_cohort,
    write_report_bundle,
)
from lesionkit.grades import GRADE_ORDER, Grade
from lesionkit.metrics import (
    RESAMPLE_UNITS,
    ConfusionMatrix,
    confusion_matrix,
    quadratic_weighted_kappa,
    sensitivity_at_fp,
)
from lesionkit.phantom import (
    IDENTITY_TRANSITIONS,
    PhantomConfig,
    ZONE_PZ,
    degrade_prediction,
    generate_cohort,
    ledger_confusion,
    ledger_cs_gt_count,
    ledger_froc_cs,
    ledger_froc_grade,
    ledger_grade_gt_count,
    ledger_zone_subset,
    phantom_patient_evals,
    write_cohort,
)
from lesionkit.volume import KIND_LABEL, KIND_PROBABILITY, ProbStack, Volume, ZoneMask
from test_acceptance import DRIFT
from test_metrics import _outcome, _ref_bootstrap_kappa


PERFECT = PhantomConfig(
    seed=2,
    n_patients=4,
    dims=(48, 48, 12),
    lesions_per_grade=(1, 1, 1, 1),
    n_folds=2,
)

SCRIPTED = PhantomConfig(
    seed=13,
    n_patients=6,
    dims=(48, 48, 12),
    lesions_per_grade=(1, 1, 1, 1),
    fp_per_patient=2,
    miss_fraction=0.3,
    misgrade=(
        (0.6, 0.4, 0.0, 0.0),
        (0.2, 0.6, 0.2, 0.0),
        (0.0, 0.2, 0.6, 0.2),
        (0.0, 0.0, 0.4, 0.6),
    ),
    n_folds=3,
)

FAST = {"bootstrap_iterations": 20}


def _evaluate(cfg_phantom, **overrides):
    pats, ledger = generate_cohort(cfg_phantom)
    evals = phantom_patient_evals(pats, ledger)
    cfg = EvaluationConfig(**{**FAST, **overrides})
    return ledger, evaluate_cohort(evals, cfg)


@functools.lru_cache(maxsize=None)
def _drift_cohort(seed):
    """(ledger, PatientEvals) of a 15-patient, 5-fold cohort whose scripted
    prediction drifts grades by the DRIFT table, misses lesions and adds
    FP blobs."""
    cfg = dataclasses.replace(SCRIPTED, seed=seed, n_patients=15, n_folds=5,
                              misgrade=DRIFT, miss_fraction=0.25, fp_per_patient=2)
    pats, ledger = generate_cohort(cfg)
    return ledger, tuple(phantom_patient_evals(pats, ledger))


class TestPerfectCohort:
    def test_everything_perfect(self):
        ledger, report = _evaluate(PERFECT)
        assert report.prostate_dice_mean == 1.0
        assert report.prostate_dice_std == 0.0
        first = report.cs_froc.points[0]
        assert (first.threshold, first.mean_fp_per_patient, first.sensitivity) == (0.0, 0.0, 1.0)
        assert report.kappa_tp_only.kappa == 1.0
        assert report.kappa_with_fn.kappa == 1.0
        assert report.sens_at["CS"][1.0] == 1.0
        for g in GRADE_ORDER:
            assert report.sens_at[g.display][1.5] == 1.0
        assert report.cs_aggregate is not None
        for p in report.cs_aggregate:
            assert p.sens_mean == 1.0 and p.sens_lo == 1.0 and p.sens_hi == 1.0

    def test_fold_curves_and_kappa(self):
        ledger, report = _evaluate(PERFECT)
        assert set(report.cs_froc_by_fold) == {0, 1}
        assert all(c is not None for c in report.cs_froc_by_fold.values())
        fk = report.fold_kappa["with_fn"]
        assert fk["values"] == {0: 1.0, 1: 1.0}
        assert fk["mean"] == 1.0 and fk["std"] == 0.0


class TestLedgerAgreement:
    def test_cs_froc_exact(self):
        ledger, report = _evaluate(SCRIPTED)
        got = [
            (p.threshold, p.mean_fp_per_patient, p.sensitivity)
            for p in report.cs_froc.points
        ]
        assert got == ledger_froc_cs(ledger)
        assert report.cs_froc.n_gt_lesions == ledger_cs_gt_count(ledger)

    def test_grade_froc_exact(self):
        ledger, report = _evaluate(SCRIPTED)
        for g in GRADE_ORDER:
            if ledger_grade_gt_count(ledger, g) == 0:
                assert report.grade_froc[g] is None
                continue
            got = [
                (p.threshold, p.mean_fp_per_patient, p.sensitivity)
                for p in report.grade_froc[g].points
            ]
            assert got == ledger_froc_grade(ledger, g)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_kappa_by_fold_equals_ledger(self, seed):
        """Each fold's kappa, in both variants, is the kappa of that fold's
        ledger matrix exactly; mean and std are np.mean and np.std (ddof=0)
        of those values."""
        ledger, evals = _drift_cohort(seed)
        report = evaluate_cohort(evals, EvaluationConfig(**FAST))
        assert report.folds == (0, 1, 2, 3, 4)
        for variant, fn in (("tp_only", False), ("with_fn", True)):
            want = {f: quadratic_weighted_kappa(
                        ConfusionMatrix(ledger_confusion(ledger, fn, fold=f), fn)).kappa
                    for f in report.folds}
            fk = report.fold_kappa[variant]
            assert fk["values"] == want
            assert fk["mean"] == float(np.mean(list(want.values())))
            assert fk["std"] == float(np.std(list(want.values())))
            assert fk["std"] > 0.0  # the folds differ, so the std convention is exercised

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_fold_band_equals_ledger(self, seed, tmp_path):
        """Each row of froc_cs_aggregate.csv is the mean and mean +- 2 np.std
        (ddof=0) over folds of the sensitivity that each fold's ledger FROC
        reaches at that FP rate, read out by the step rule: the best
        sensitivity among points at or below the rate, 0 if none."""
        ledger, evals = _drift_cohort(seed)
        cfg = EvaluationConfig(**FAST)
        write_report_bundle(evaluate_cohort(evals, cfg), tmp_path)
        folds = sorted({p.fold for p in ledger.patients})
        curves = [ledger_froc_cs(dataclasses.replace(
                      ledger, patients=tuple(p for p in ledger.patients if p.fold == f)))
                  for f in folds]
        lines = (tmp_path / "froc_cs_aggregate.csv").read_text().splitlines()[1:]
        rows = [tuple(map(float, line.split(","))) for line in lines]
        assert [r[0] for r in rows] == list(cfg.fp_grid)
        for fp_rate, mean, lo, hi in rows:
            sens = [max((s for _, fp, s in curve if fp <= fp_rate), default=0.0)
                    for curve in curves]
            want_mean, two_std = np.mean(sens), 2.0 * np.std(sens)
            assert mean == pytest.approx(want_mean, abs=1e-12)
            assert lo == pytest.approx(want_mean - two_std, abs=1e-12)
            assert hi == pytest.approx(want_mean + two_std, abs=1e-12)
        assert any(lo < hi for _, _, lo, hi in rows)  # the folds differ, so the band has width

    def test_confusion_exact(self):
        ledger, report = _evaluate(SCRIPTED)
        assert report.confusion_tp_only.counts == ledger_confusion(ledger, False)
        assert report.confusion_with_fn.counts == ledger_confusion(ledger, True)
        # FN-variant row sums are the full per-grade GT census
        for g in GRADE_ORDER:
            assert sum(report.confusion_with_fn.counts[g.ordinal]) == ledger_grade_gt_count(
                ledger, g
            )

    def test_zone_restriction_matches_zone_subset(self):
        ledger, report = _evaluate(SCRIPTED, zone="pz")
        sub = ledger_zone_subset(ledger, ZONE_PZ)
        assert report.cs_froc.n_gt_lesions == ledger_cs_gt_count(sub)
        got = [
            (p.threshold, p.mean_fp_per_patient, p.sensitivity)
            for p in report.cs_froc.points
        ]
        assert got == ledger_froc_cs(sub)
        assert report.confusion_with_fn.counts == ledger_confusion(sub, True)

    @pytest.mark.parametrize("zone", [None, "pz"])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_patient_counts_equal_ledger(self, seed, zone):
        """Per patient, the lesions and the GS prediction clusters the report
        counts are the scripted lesions, and the detected lesions plus the
        FP blobs; one detection record is written per lesion."""
        ledger, evals = _drift_cohort(seed)
        if zone is not None:
            ledger = ledger_zone_subset(ledger, ZONE_PZ)
        report = report_to_dict(evaluate_cohort(evals, EvaluationConfig(zone=zone, **FAST)))
        got = [(p["patient_id"], p["n_gt_lesions"], p["n_pred_clusters"])
               for p in report["patients"]]
        want = [(s.patient_id, len(s.lesions), sum(e.detected for e in s.lesions) + len(s.fps))
                for s in ledger.patients]
        assert got == want
        assert report["n_detection_records"] == sum(len(s.lesions) for s in ledger.patients)
        # misses and FP blobs both occur, so neither term of the sum is idle
        assert any(not e.detected for s in ledger.patients for e in s.lesions)
        assert any(s.fps for s in ledger.patients)

    def test_volume_filter_off_never_hurts_sensitivity(self):
        _, with_filter = _evaluate(SCRIPTED)
        _, without = _evaluate(SCRIPTED, min_volume_mm3=0.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            assert sensitivity_at_fp(without.cs_froc, t) >= sensitivity_at_fp(
                with_filter.cs_froc, t
            )


class TestInvariance:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_patient_order_and_ids_change_no_number(self, seed):
        """The same PatientEvals, permuted and renamed, give the same FROC
        curves, readouts, confusion matrices, kappa point estimates and
        per-fold kappa, and the same detection records up to the renaming.
        The bootstrap mean and std follow record order by design."""
        _, evals = _drift_cohort(seed)
        order = np.random.default_rng(seed).permutation(len(evals))
        assert order.tolist() != sorted(order.tolist())
        # reversed numbering: sorting by the new ids would reverse the old order
        renamed = {p.patient_id: f"case-{len(evals) - i:02d}" for i, p in enumerate(evals)}
        moved = [dataclasses.replace(evals[i], patient_id=renamed[evals[i].patient_id])
                 for i in order]
        cfg = EvaluationConfig(**FAST)
        a, b = evaluate_cohort(evals, cfg), evaluate_cohort(moved, cfg)
        assert b.cs_froc == a.cs_froc
        assert b.cs_froc_by_fold == a.cs_froc_by_fold
        assert b.grade_froc == a.grade_froc
        assert b.sens_at == a.sens_at
        assert b.confusion_tp_only == a.confusion_tp_only
        assert b.confusion_with_fn == a.confusion_with_fn
        assert b.kappa_tp_only.kappa == a.kappa_tp_only.kappa
        assert b.kappa_with_fn.kappa == a.kappa_with_fn.kappa
        assert b.fold_kappa == a.fold_kappa
        back = {new: old for old, new in renamed.items()}
        assert Counter(dataclasses.replace(r, patient_id=back[r.patient_id])
                       for r in b.records) == Counter(a.records)


#: flips along x, y and z and the x<->y transpose, of a [z, y, x] volume and of
#: a (6, z, y, x) stack alike
TRANSFORMS = {
    "flip-x": lambda a: a[..., ::-1],
    "flip-y": lambda a: a[..., ::-1, :],
    "flip-z": lambda a: a[..., ::-1, :, :],
    "transpose-xy": lambda a: np.swapaxes(a, -1, -2),
}


def _transformed(e: PatientEval, transform) -> PatientEval:
    """The patient with every volume moved by transform: labels, all six
    channels and both zones.  The spacing stays, so a transpose needs equal
    in-plane spacing."""
    def move(v):
        return Volume(transform(v.values), v.spacing_mm, v.kind)

    zones = None if e.zones is None else ZoneMask(move(e.zones.pz), move(e.zones.tz))
    return PatientEval(e.patient_id, e.fold, move(e.labels),
                       ProbStack(transform(e.probs.data), e.probs.spacing_mm), zones)


@functools.lru_cache(maxsize=None)
def _drift_report(seed, zone, resample, transform=None) -> dict:
    """report_to_dict of the seed's DRIFT cohort, moved by the named transform."""
    _, evals = _drift_cohort(seed)
    if transform is not None:
        evals = [_transformed(e, TRANSFORMS[transform]) for e in evals]
    cfg = EvaluationConfig(zone=zone, bootstrap_resample=resample, **FAST)
    return report_to_dict(evaluate_cohort(evals, cfg))


class TestOrientationInvariance:
    """The protocol has no preferred direction: flipping or transposing every
    volume of a cohort changes no reported number.  Phantom blobs never tie
    on an intersection, so the scan-order tie rule never decides a match."""

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("zone", [None, "pz", "tz"])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_patient_resampling_report_is_unchanged(self, seed, zone, transform):
        assert SCRIPTED.spacing_mm[0] == SCRIPTED.spacing_mm[1]  # the transpose keeps the grid
        assert _drift_report(seed, zone, "patient", transform) == _drift_report(seed, zone, "patient")

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("zone", [None, "pz", "tz"])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_lesion_resampling_changes_only_the_bootstrap_band(self, seed, zone, transform):
        # the lesion bootstrap draws records in scan order, which a transform reorders
        def point_estimates(d):
            band = ("bootstrap_mean", "bootstrap_std")
            return {**d, "confusion": {variant: {k: v for k, v in c.items() if k not in band}
                                       for variant, c in d["confusion"].items()}}

        moved, base = (_drift_report(seed, zone, "lesion", t) for t in (transform, None))
        assert point_estimates(moved) == point_estimates(base)


class TestAllMissed:
    """A prediction that misses every lesion: the TP-only matrix is empty,
    so only the with-FN variant has a bootstrap."""

    @pytest.mark.parametrize("resample", RESAMPLE_UNITS)
    def test_tp_only_degenerate_and_with_fn_equals_reference(self, resample):
        cfg = dataclasses.replace(PERFECT, n_patients=2, lesions_per_grade=(1, 1, 0, 0),
                                  miss_fraction=1.0)
        pats, ledger = generate_cohort(cfg)
        report = evaluate_cohort(phantom_patient_evals(pats, ledger),
                                 EvaluationConfig(bootstrap_iterations=200,
                                                  bootstrap_resample=resample))
        assert report_to_dict(report)["confusion"]["tp_only"] == {
            "grades": [g.display for g in GRADE_ORDER],
            "counts": [[0] * 4] * 4,
            "include_fn_as_gs6": False,
            "kappa": 0.0,
            "degenerate": True,
            "bootstrap_mean": None,
            "bootstrap_std": None,
            "n_iterations": 0,
        }
        assert report.degenerate_stats == [
            "no GS4+3 ground-truth lesions; curve omitted",
            "no GS>=8 ground-truth lesions; curve omitted",
            "no detected lesions; TP-only matrix is empty",
            "kappa (tp_only) is degenerate",
            "fold 0 kappa (tp_only) undefined (no records)",
            "fold 1 kappa (tp_only) undefined (no records)",
        ]
        assert _outcome(lambda: report.kappa_with_fn) == _outcome(
            _ref_bootstrap_kappa, report.records, n_iter=200, seed=0,
            include_fn_as_gs6=True, resample=resample)


class TestReportShape:
    def test_json_serializable_and_complete(self):
        _, report = _evaluate(SCRIPTED)
        d = report_to_dict(report)
        blob = json.dumps(d, sort_keys=True)
        back = json.loads(blob)
        assert back["n_patients"] == SCRIPTED.n_patients
        assert set(back["froc"]["by_grade"]) == {g.display for g in GRADE_ORDER}
        assert set(back["confusion"]) == {"tp_only", "with_fn"}
        assert back["confusion"]["with_fn"]["include_fn_as_gs6"] is True
        assert "1.0" in back["sensitivity_at_fp"]["CS"]
        assert len(back["patients"]) == SCRIPTED.n_patients

    def test_numpy_floats_are_stored_as_python_floats(self):
        cfg = EvaluationConfig(overlap_frac=np.float32(0.25), fp_targets=[np.float64(1.0), 2])
        assert type(cfg.overlap_frac) is float and cfg.overlap_frac == 0.25
        assert cfg.fp_targets == (1.0, 2) and type(cfg.fp_targets[0]) is float
        assert json.loads(json.dumps(cfg.to_dict()))["overlap_frac"] == 0.25
        with pytest.raises(ValueError, match="overlap_frac"):
            EvaluationConfig(overlap_frac=np.bool_(True))

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_cohort([], EvaluationConfig())
        with pytest.raises(ValueError, match="zone"):
            EvaluationConfig(zone="apex")
        pats, ledger = generate_cohort(PERFECT)
        evals = phantom_patient_evals(pats, ledger)
        stripped = [
            PatientEval(e.patient_id, e.fold, e.labels, e.probs, None) for e in evals
        ]
        with pytest.raises(ValueError, match="zone"):
            evaluate_cohort(stripped, EvaluationConfig(zone="pz", **FAST))

    def test_grid_mismatch_rejected(self):
        pats, ledger = generate_cohort(PERFECT)
        evals = phantom_patient_evals(pats, ledger)
        wrong = np.zeros((6, 4, 4, 4), dtype=np.float32)
        wrong[0] = 1.0
        with pytest.raises(ValueError, match="grid"):
            PatientEval(
                "px", 0, evals[0].labels, ProbStack(wrong, evals[0].labels.spacing_mm)
            )

    def test_prostate_dice_counts_nonzero_labels(self):
        pats, ledger = generate_cohort(PERFECT)
        e = phantom_patient_evals(pats, ledger)[0]
        data = np.array(e.probs.data)
        data[:, :, :, :24] = 0.0
        data[0, :, :, :24] = 1.0  # the left half predicted background
        e = PatientEval(e.patient_id, e.fold, e.labels,
                        ProbStack(data, e.probs.spacing_mm), e.zones)
        stage = evaluation._stage_patient(e, EvaluationConfig(**FAST))
        gt, pred = np.asarray(e.labels.values) >= 1, e.probs.labels >= 1
        expected = 2.0 * int((gt & pred).sum()) / (int(gt.sum()) + int(pred.sum()))
        assert 0.0 < stage.prostate_dice < 1.0
        assert stage.prostate_dice == expected

    def test_spacing_mismatch_reaches_the_matcher_message(self):
        pats, ledger = generate_cohort(PERFECT)
        e = phantom_patient_evals(pats, ledger)[0]
        # bypass PatientEval's own grid check to reach the stage with a mismatch
        object.__setattr__(e, "probs", ProbStack(np.array(e.probs.data), (1.0, 1.0, 2.0)))
        with pytest.raises(ValueError,
                           match="^prediction and ground truth must share the voxel grid$"):
            evaluation._stage_patient(e, EvaluationConfig(**FAST))

    def test_aggregation_only_counts_the_staged_matches(self, monkeypatch):
        pats, ledger = generate_cohort(SCRIPTED)
        cfg = EvaluationConfig(strict_duplicates=True, **FAST)
        stages = stage_cohort(phantom_patient_evals(pats, ledger), cfg)
        expected = aggregate_stages(stages, cfg)

        def no_matching(*args, **kwargs):
            raise AssertionError("aggregation ran the matcher")

        for module in (matching, metrics, evaluation):
            for name in ("match_detections", "match_grade"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_matching)
        assert aggregate_stages(stages, cfg) == expected


class TestZoneRule:
    def test_lesion_split_evenly_is_kept_by_both_zones_and_reads_pz(self):
        # a 4-voxel GS6 lesion along x, two voxels in each zone
        labels = np.zeros((1, 1, 6), dtype=np.uint8)
        labels[0, 0, 1:5] = int(Grade.GS6)
        pz, tz = np.zeros_like(labels), np.zeros_like(labels)
        pz[0, 0, :3] = 1
        tz[0, 0, 3:] = 1
        probs = np.zeros((6,) + labels.shape, dtype=np.float32)
        np.put_along_axis(probs, labels[None].astype(np.intp), 1.0, axis=0)
        sp = (1.0, 1.0, 1.0)
        patient = PatientEval(
            "p", 0, Volume(labels, sp, KIND_LABEL), ProbStack(probs, sp),
            ZoneMask(pz=Volume(pz, sp, KIND_LABEL), tz=Volume(tz, sp, KIND_LABEL)),
        )
        for zone in (None, "pz", "tz"):
            (stage,) = stage_cohort([patient], EvaluationConfig(zone=zone, min_volume_mm3=0.0))
            assert len(stage.gs_gt) == 1 and len(stage.gs_pred) == 1
            assert [r.zone for r in stage.records] == ["PZ"]


class TestDiskRoundTrip:
    def test_full_run_and_byte_determinism(self, tmp_path):
        write_cohort(SCRIPTED, tmp_path / "cohort")
        base = dict(cohort_dirs(tmp_path / "cohort"), **FAST)
        cfg1 = EvaluationConfig(**base, output_dir=str(tmp_path / "out1"))
        cfg2 = EvaluationConfig(**base, output_dir=str(tmp_path / "out2"))
        report1, stages = run_full_evaluation(cfg1)
        report2, _ = run_full_evaluation(cfg2)
        names1 = sorted(p.name for p in (tmp_path / "out1").iterdir())
        names2 = sorted(p.name for p in (tmp_path / "out2").iterdir())
        assert names1 == names2
        assert "report.json" in names1 and "detections.csv" in names1
        assert "clusters.json" in names1 and "froc_cs.csv" in names1
        for name in names1:
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name

        # the disk path reproduces the in-memory path exactly
        pats, ledger = generate_cohort(SCRIPTED)
        evals = phantom_patient_evals(pats, ledger)
        mem = evaluate_cohort(evals, EvaluationConfig(**FAST))
        got = json.dumps(report_to_dict(report1), sort_keys=True)
        want = json.dumps(report_to_dict(mem), sort_keys=True)
        assert got == want

    def test_detections_csv_columns(self, tmp_path):
        _, report = _evaluate(SCRIPTED)
        write_report_bundle(report, tmp_path)
        header = (tmp_path / "detections.csv").read_text().splitlines()[0]
        assert header == "patient_id,fold,zone,gt_grade,pred_grade,score,dice,overlap_frac"
        froc_header = (tmp_path / "froc_cs.csv").read_text().splitlines()[0]
        assert froc_header == "threshold,mean_fp_per_patient,sensitivity"
        agg_header = (tmp_path / "froc_cs_aggregate.csv").read_text().splitlines()[0]
        assert agg_header == "fp_rate,sens_mean,sens_lo,sens_hi"


class TestStreaming:
    def test_one_patient_alive_at_a_time(self, tmp_path, monkeypatch):
        write_cohort(SCRIPTED, tmp_path / "cohort")
        cfg = EvaluationConfig(**cohort_dirs(tmp_path / "cohort"), **FAST)
        loaded, alive = [], []
        load = evaluation.load_patient_eval

        def counting(*args):
            patient = load(*args)
            loaded.append(weakref.ref(patient))
            alive.append(sum(r() is not None for r in loaded))
            return patient

        monkeypatch.setattr(evaluation, "load_patient_eval", counting)
        patients = load_cohort(cfg)
        assert loaded == []  # the manifest is read now, the volumes lazily
        stages = stage_cohort(patients, cfg)
        assert [s.patient_id for s in stages] == [f"p{i:03d}" for i in range(6)]
        assert alive == [1] * 6

    def test_errors_on_a_lazy_iterable(self):
        evals = phantom_patient_evals(*generate_cohort(PERFECT))
        cfg = EvaluationConfig(**FAST)
        with pytest.raises(ValueError, match="^cohort is empty$"):
            stage_cohort(iter([]), cfg)
        twice = (e for e in [*evals, evals[1]])
        with pytest.raises(ValueError, match="^duplicate patient ids in cohort$"):
            stage_cohort(twice, cfg)

    def test_manifest_duplicate_rejected_before_any_read(self, tmp_path):
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"patients": [
            {"patient_id": "a", "fold": 0}, {"patient_id": "b", "fold": 1},
            {"patient_id": "a", "fold": 1},
        ]}))
        # no volume exists, so any read would fail with FileNotFoundError
        cfg = EvaluationConfig(gt_dir=str(tmp_path), pred_dir=str(tmp_path),
                               fold_manifest=str(manifest))
        with pytest.raises(ValueError, match="lists patient 'a' 2 times"):
            load_cohort(cfg)

    @pytest.mark.parametrize("ids", [(1, "p001"), (0, 1)], ids=["mixed", "int"])
    def test_manifest_non_string_id_rejected_before_any_read(self, tmp_path, ids):
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"patients": [
            {"patient_id": pid, "fold": 0} for pid in ids]}))
        cfg = EvaluationConfig(gt_dir=str(tmp_path), pred_dir=str(tmp_path),
                               fold_manifest=str(manifest))
        with pytest.raises(ValueError, match=f"patient_id must be a string, got {ids[0]}$"):
            load_cohort(cfg)


def _one_cluster_stack():
    """A 12x12x4 prediction with one 3x3x2 GS4+3 cluster at x,y in 2..4,
    z in 1..2, score 0.8; background elsewhere."""
    data = np.zeros((6, 4, 12, 12), dtype=np.float32)
    data[0] = 1.0
    for z in (1, 2):
        for y in range(2, 5):
            for x in range(2, 5):
                data[0, z, y, x] = 0.0
                data[4, z, y, x] = 0.8
                data[1, z, y, x] = 0.2
    return ProbStack(data, (2.0, 2.0, 3.0))  # voxel 12 mm^3: 18 voxels = 216 mm^3


class TestPointProtocol:
    def test_covered_and_uncovered_points(self):
        stack = _one_cluster_stack()
        points = [
            # inside the cluster: takes its modal predicted grade
            type("P", (), {"patient_id": "a", "x": 3, "y": 3, "z": 1,
                           "zone": "PZ", "gs_label": Grade.GS43})(),
            # outside every cluster: reads GS6
            type("P", (), {"patient_id": "a", "x": 9, "y": 9, "z": 0,
                           "zone": "TZ", "gs_label": Grade.GS8})(),
        ]
        records, kappa = evaluate_points(
            points, {"a": stack}, EvaluationConfig(**FAST)
        )
        assert records[0].pred_grade == Grade.GS43
        assert records[1].pred_grade == Grade.GS6
        assert kappa.n_iterations == 20

    def test_points_csv_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "patient_id,x_vox,y_vox,z_vox,zone,gs_label\n"
            "a,3,3,1,PZ,GS4+3\n"
            "a,9,9,0,TZ,GS>=8\n"
        )
        points = read_points_csv(path)
        assert [p.gs_label for p in points] == [Grade.GS43, Grade.GS8]
        records, _ = evaluate_points(points, {"a": _one_cluster_stack()},
                                     EvaluationConfig(**FAST))
        assert [r.pred_grade for r in records] == [Grade.GS43, Grade.GS6]

    def test_one_stack_alive_at_a_time(self):
        """Each patient's stack is looked up once, when its turn comes, and
        released before the next lookup; records keep input point order."""
        order = ("b", "a", "c", "a", "b", "c", "a")
        points = [
            type("P", (), {"patient_id": pid, "x": 3 if k % 2 else 9, "y": 3 if k % 2 else 9,
                           "z": 1, "zone": "PZ", "gs_label": Grade.GS43})()
            for k, pid in enumerate(order)
        ]
        looked_up, alive = [], []

        class Stacks(dict):
            def __missing__(self, pid):
                stack = _one_cluster_stack()
                looked_up.append((pid, weakref.ref(stack)))
                alive.append(sum(r() is not None for _, r in looked_up))
                return stack

        records, _ = evaluate_points(points, Stacks(), EvaluationConfig(**FAST))
        assert [pid for pid, _ in looked_up] == ["b", "a", "c"]
        assert alive == [1, 1, 1]
        assert [r.patient_id for r in records] == list(order)
        assert [r.pred_grade for r in records] == [
            Grade.GS43 if k % 2 else Grade.GS6 for k in range(len(order))]

    @pytest.mark.parametrize("at", [0, -1], ids=["first-voxel", "last-voxel"])
    @pytest.mark.parametrize("misgrade", [IDENTITY_TRANSITIONS, DRIFT],
                             ids=["identity", "drift"])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_points_at_ledger_lesions_equal_ledger(self, seed, misgrade, at):
        """One point per ledger lesion, at its first or last scan-order voxel.
        A detected blob is rendered whole in its scripted grade, a missed one
        as prostate, a GS6 prediction lies in no CS cluster and FP blobs
        cover no lesion voxel, so the TP-only point matrix is the ledger's
        matrix with misses booked as GS6."""
        cfg = dataclasses.replace(SCRIPTED, seed=seed, n_patients=12, miss_fraction=0.25,
                                  misgrade=misgrade, n_folds=1)
        patients, ledger = generate_cohort(cfg)
        stacks = dict(zip((p.patient_id for p in patients), degrade_prediction(patients, ledger)))
        points = [
            PointAnnotation(s.patient_id, *e.voxels[at], e.zone, e.grade)
            for s in ledger.patients for e in s.lesions
        ]
        records, kappa = evaluate_points(points, stacks, EvaluationConfig(**FAST))
        want = ledger_confusion(ledger, include_fn_as_gs6=True)
        assert confusion_matrix(records, False).counts == want
        assert kappa.kappa == quadratic_weighted_kappa(ConfusionMatrix(want, False)).kappa

    def test_missing_patient_rejected(self):
        points = [
            type("P", (), {"patient_id": "ghost", "x": 0, "y": 0, "z": 0,
                           "zone": "PZ", "gs_label": Grade.GS6})()
        ]
        with pytest.raises(ValueError, match="ghost"):
            evaluate_points(points, {"a": _one_cluster_stack()}, EvaluationConfig(**FAST))
