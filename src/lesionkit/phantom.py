"""Deterministic synthetic cohorts with an exact evaluation ledger.

Each patient gets an ellipsoidal prostate split into TZ (inner ellipsoid)
and PZ (shell), plus axis-aligned ellipsoidal lesion blobs placed wholly
inside one zone with at least 2 voxels of Chebyshev separation between
blobs, so 26-connectivity clustering recovers every blob exactly.

Predictions follow a script drawn at generation time: each lesion is
either missed or detected with a scripted grade and probability score, and
extra false-positive blobs are injected.  Scores are realized as exact
float32 values and rendered as constant probability channels, which makes
the pipeline's cluster scores equal the ledger's scores bit for bit; all
ledger-derived counts (sensitivity, FP rate, per-grade FROC, confusion
matrices) are therefore exact oracles for the evaluation pipeline.

The script is the only per-patient state a cohort keeps: each patient's
label volume is rendered from its ledger entry when the patient is
accessed, so memory holds one patient's volumes, not the cohort's.

The RNG is Philox (64-bit counter-based) with per-patient spawned
substreams, so cohorts are reproducible across platforms and safe to
generate in parallel.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cluster import MIN_LESION_VOLUME_MM3
from .grades import CS_GRADES, GRADE_ORDER, Grade, parse_grade
from .volume import (
    KIND_LABEL,
    ProbStack,
    Volume,
    ZoneMask,
    frozen_mask,
    is_real,
    mask_voxels,
    setting,
    validate,
    write_json,
    write_volume,
)

ZONE_PZ = "PZ"
ZONE_TZ = "TZ"

#: Prostate ellipsoid semi-axes as fractions of the grid extent.
PROSTATE_AXIS_FRACTIONS = (0.40, 0.40, 0.42)

IDENTITY_TRANSITIONS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
)


class PlacementError(RuntimeError):
    """Requested blobs cannot be placed without overlap in bounded retries."""


@dataclass(frozen=True)
class PhantomConfig:
    seed: int = setting(0, "int", "[0, inf)")
    n_patients: int = setting(10, "int", "[1, inf)", unit="patients")
    dims: tuple[int, int, int] = setting((96, 96, 24), "int", "[1, inf)", (3,), "voxels")
    spacing_mm: tuple[float, ...] = setting((1.0, 1.0, 3.0), "real", "(0, inf)", (3,), "mm")
    #: lesions per patient for (GS6, GS3+4, GS4+3, GS>=8)
    lesions_per_grade: tuple[int, ...] = setting((1, 1, 1, 1), "int", "[0, inf)", (4,), "lesions")
    lesion_radius_mm: tuple[float, float] = setting((2.5, 5.0), "real", "(0, inf)", (2,), "mm")
    fp_per_patient: int = setting(0, "int", "[0, inf)", unit="blobs")
    fp_score: float = setting(0.9, "real", "(0.5, 1]", unit="probability")
    miss_fraction: float = setting(0.0, "real", "[0, 1]", unit="fraction")
    #: row g: probabilities of predicting each grade for a detected lesion
    #: of true grade g; grade order (GS6, GS3+4, GS4+3, GS>=8)
    misgrade: tuple = setting(IDENTITY_TRANSITIONS, "real", "[0, 1]", (4, 4), "probability")
    score_range: tuple[float, float] = setting((0.55, 0.95), "real", "(0.5, 1]", (2,),
                                               "probability")
    pz_fraction: float = setting(0.6, "real", "[0, 1]", unit="fraction")
    tz_scale: float = setting(0.55, "real", "(0, 1)", unit="fraction of the gland semi-axes")
    min_lesion_voxels: int = setting(15, "int", "[1, inf)", unit="voxels")
    max_place_retries: int = setting(400, "int", "[1, inf)", unit="tries per blob")
    n_folds: int = setting(5, "int", "[1, inf)", unit="folds")

    def __post_init__(self):
        validate(self)
        for name in ("lesion_radius_mm", "score_range"):
            if getattr(self, name)[0] > getattr(self, name)[1]:
                raise ValueError(f"{name} must be ordered, low <= high, got {getattr(self, name)}")
        if any(abs(sum(r) - 1) > 1e-9 for r in self.misgrade):
            raise ValueError(f"misgrade rows must be distributions, got {self.misgrade!r}")
        if self.n_folds > self.n_patients:
            raise ValueError("n_folds must lie in 1..n_patients")
        sx, sy, sz = self.spacing_mm
        if self.min_lesion_voxels * sx * sy * sz < MIN_LESION_VOLUME_MM3:
            raise ValueError(
                "min_lesion_voxels times the voxel volume must reach the "
                f"{MIN_LESION_VOLUME_MM3} mm^3 evaluation filter, or blobs "
                "would be dropped and the ledger would no longer be exact"
            )


class _Blob:
    """A ledger entry's blob, held as a LesionCluster holds its voxels: box, a
    (z, y, x) slice tuple, and mask, a read-only bool copy of the box's shape.
    Entries compare by value, through their ledger.json form."""

    def __post_init__(self):
        object.__setattr__(self, "mask", frozen_mask(self.mask, self.box))

    @property
    def voxels(self) -> tuple[tuple[int, int, int], ...]:
        """(x, y, z) tuples of the blob's voxels, in scan order."""
        return mask_voxels(self.mask, self.box)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _entry_dict(self) == _entry_dict(other)


@dataclass(frozen=True, eq=False)
class LesionEntry(_Blob):
    """One injected ground-truth lesion and its scripted prediction."""

    grade: Grade
    zone: str
    box: tuple[slice, slice, slice]
    mask: np.ndarray
    detected: bool
    pred_grade: Grade | None  # None iff missed
    score: float | None  # realized float32 value; None iff missed


@dataclass(frozen=True, eq=False)
class FpEntry(_Blob):
    """One injected false-positive blob (always a CS grade)."""

    grade: Grade
    zone: str
    box: tuple[slice, slice, slice]
    mask: np.ndarray
    score: float


@dataclass(frozen=True)
class PatientScript:
    patient_id: str
    fold: int
    lesions: tuple[LesionEntry, ...]
    fps: tuple[FpEntry, ...]


@dataclass(frozen=True)
class PhantomLedger:
    patients: tuple[PatientScript, ...]
    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]

    @property
    def n_patients(self) -> int:
        return len(self.patients)


@dataclass(frozen=True)
class PhantomPatient:
    """Ground-truth volumes of one synthetic patient."""

    patient_id: str
    labels: Volume
    zones: ZoneMask


# ---------------------------------------------------------------------------
# Geometry


def _anatomy(cfg: PhantomConfig):
    """(prostate mask, {zone: mask}, {zone: (N, 3) int array of its (x, y, z)
    voxels in scan order}, ZoneMask): the gland and its zones are the same
    for every patient of a cohort, so they are built once."""
    nx, ny, nz = cfg.dims
    center = ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)
    axes = tuple(f * n for f, n in zip(PROSTATE_AXIS_FRACTIONS, cfg.dims))
    prostate, tz = np.zeros((2, nz, ny, nx), dtype=bool)
    for grid, semi in ((prostate, axes), (tz, tuple(a * cfg.tz_scale for a in axes))):
        box, inside = _blob_mask(cfg.dims, center, semi)
        grid[box] = inside
    tz &= prostate
    masks = {ZONE_PZ: prostate & ~tz, ZONE_TZ: tz}
    zones = ZoneMask(
        pz=Volume(masks[ZONE_PZ].astype(np.uint8), cfg.spacing_mm, KIND_LABEL),
        tz=Volume(tz.astype(np.uint8), cfg.spacing_mm, KIND_LABEL),
    )
    centres = {name: np.argwhere(m)[:, ::-1] for name, m in masks.items()}
    return prostate, masks, centres, zones


def _axis_terms(lo: int, hi: int, c, a, margin: int) -> list[float]:
    """((j - c) / a) squared in float64 for each i in lo..hi, where j is the
    voxel of i - margin..i + margin nearest c (so j is i at margin 0)."""
    if margin:
        k = round(c)
        return [((j - c) / a) * ((j - c) / a)
                for j in (min(max(k, i - margin), i + margin) for i in range(lo, hi + 1))]
    return [((i - c) / a) * ((i - c) / a) for i in range(lo, hi + 1)]


def _blob_mask(dims, center, semi_axes, margin: int = 0):
    """(box, mask within the box) of an axis-aligned ellipsoid around an
    (x, y, z) point of the grid, grown by margin voxels of Chebyshev
    distance and clipped to the grid; box is a (z, y, x) slice tuple.

    A voxel is in the ellipsoid when (x term + y term) + z term <= 1.  A
    term grows with the distance to the centre and float addition is
    monotone, so over a cube of voxels the smallest sum is the sum of each
    axis's smallest term, taken at the voxel nearest the centre.  A voxel
    is within margin of the ellipsoid when that smallest sum is <= 1."""
    nx, ny, nz = dims
    cx, cy, cz = center
    ax, ay, az = semi_axes
    x0, x1 = max(0, math.floor(cx - ax) - margin), min(nx - 1, math.ceil(cx + ax) + margin)
    y0, y1 = max(0, math.floor(cy - ay) - margin), min(ny - 1, math.ceil(cy + ay) + margin)
    z0, z1 = max(0, math.floor(cz - az) - margin), min(nz - 1, math.ceil(cz + az) + margin)
    tx = np.array(_axis_terms(x0, x1, cx, ax, margin))
    ty = np.array(_axis_terms(y0, y1, cy, ay, margin))[:, None]
    tz = np.array(_axis_terms(z0, z1, cz, az, margin))[:, None, None]
    return np.s_[z0 : z1 + 1, y0 : y1 + 1, x0 : x1 + 1], tx + ty + tz <= 1.0


def _place_blob(cfg: PhantomConfig, rng, zone_voxels, free, kind: str):
    """One blob of the given kind ("a lesion" or "an FP") wholly inside a single
    zone, clear of the blobs placed before: each voxel lies in free[zone],
    the zone's mask minus the margin around those blobs.

    Every try draws the zone and then, unless the zone is empty, the centre
    and three semi-axes, before any test.  The blob holds its centre voxel,
    so a try whose centre is not free is rejected before its mask is built.
    A placed blob grown by 2 voxels is cleared from both free grids.
    Returns (zone name, box, mask); raises PlacementError after bounded
    retries.
    """
    sx, sy, sz = cfg.spacing_mm
    lo, hi = cfg.lesion_radius_mm
    empty = set()
    for _ in range(cfg.max_place_retries):
        zone = ZONE_PZ if rng.random() < cfg.pz_fraction else ZONE_TZ
        zvox = zone_voxels[zone]
        if len(zvox) == 0:
            empty.add(zone)
            continue
        # a tuple of Python ints, as the box bounds and float64 terms expect
        center = tuple(zvox[int(rng.integers(0, len(zvox)))].tolist())
        rx, ry, rz = rng.uniform(lo, hi, 3).tolist()  # the values of three scalar draws
        semi = (rx / sx, ry / sy, rz / sz)
        grid = free[zone]
        x, y, z = center
        if not grid[z, y, x]:
            continue
        box, blob = _blob_mask(cfg.dims, center, semi)
        if np.count_nonzero(blob) < cfg.min_lesion_voxels or not grid[box][blob].all():
            continue
        near_box, near = _blob_mask(cfg.dims, center, semi, margin=2)
        clear = ~near
        for g in free.values():
            g[near_box] &= clear
        return zone, box, blob
    failed = f"could not place {kind} blob after {cfg.max_place_retries} retries"
    if empty:
        raise PlacementError(
            f"{failed}: drawn zone {' and '.join(sorted(empty))} holds no voxels; "
            "change dims, tz_scale or pz_fraction"
        )
    raise PlacementError(f"{failed}; reduce lesion count or radius")


def _realized_score(rng, lo: float, hi: float) -> float:
    # store the exact float32 the prediction renderer will write
    return float(np.float32(rng.uniform(lo, hi)))


def _generate_patient(cfg: PhantomConfig, rng, patient_id: str, fold: int, anatomy):
    """The patient's script: blobs placed and predictions drawn, no volume."""
    _, zone_masks, zone_voxels, _ = anatomy
    free = {name: m.copy() for name, m in zone_masks.items()}

    slo, shi = cfg.score_range
    order = [int(g) - 2 for g in GRADE_ORDER]
    lesions = []
    for gi in order:
        grade = GRADE_ORDER[gi]
        for _ in range(cfg.lesions_per_grade[gi]):
            zone, box, blob = _place_blob(cfg, rng, zone_voxels, free, "a lesion")
            pred_grade = score = None
            detected = bool(rng.random() >= cfg.miss_fraction)
            if detected:
                row = np.asarray(cfg.misgrade[gi], dtype=np.float64)
                pred_grade = GRADE_ORDER[int(rng.choice(4, p=row / row.sum()))]
                score = _realized_score(rng, slo, shi)
            lesions.append(LesionEntry(grade=grade, zone=zone, box=box, mask=blob,
                                       detected=detected, pred_grade=pred_grade, score=score))

    fps = []
    for _ in range(cfg.fp_per_patient):
        zone, box, blob = _place_blob(cfg, rng, zone_voxels, free, "an FP")
        grade = CS_GRADES[int(rng.integers(0, len(CS_GRADES)))]
        fps.append(FpEntry(grade=grade, zone=zone, box=box, mask=blob,
                           score=float(np.float32(cfg.fp_score))))

    return PatientScript(patient_id, fold, tuple(lesions), tuple(fps))


class _RenderedPatients(Sequence):
    """A cohort's PhantomPatients, each rendered from its ledger script on
    every access: the gland as label 1, then each lesion painted with its
    grade in script order.  Every patient shares the cohort's one ZoneMask."""

    def __init__(self, ledger: PhantomLedger, prostate: np.ndarray, zones: ZoneMask):
        self._ledger = ledger
        self._prostate = prostate
        self._zones = zones

    def __len__(self) -> int:
        return self._ledger.n_patients

    def __getitem__(self, i) -> PhantomPatient:
        script = self._ledger.patients[operator.index(i)]  # an int, negative included
        lab = self._prostate.astype(np.uint8)
        for e in script.lesions:
            lab[e.box][e.mask] = int(e.grade)
        labels = Volume(lab, self._ledger.spacing_mm, KIND_LABEL)
        return PhantomPatient(patient_id=script.patient_id, labels=labels, zones=self._zones)


def generate_cohort(cfg: PhantomConfig):
    """Place every patient's blobs and draw the prediction script.

    Returns (patients, PhantomLedger).  patients is a read-only sequence of
    PhantomPatient (len, int index, iteration) that renders a patient's
    label volume from the ledger each time the patient is accessed, so the
    cohort holds no volume but the shared gland and zone masks.
    Deterministic under cfg.seed; per-patient substreams keep patients
    independent.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_patients)
    anatomy = _anatomy(cfg)
    scripts = []
    for i in range(cfg.n_patients):
        rng = np.random.Generator(np.random.Philox(streams[i]))
        scripts.append(_generate_patient(cfg, rng, f"p{i:03d}", i % cfg.n_folds, anatomy))
    ledger = PhantomLedger(tuple(scripts), cfg.dims, cfg.spacing_mm)
    prostate, _, _, zones = anatomy
    return _RenderedPatients(ledger, prostate, zones), ledger


def degrade_prediction(patients, ledger: PhantomLedger):
    """Render the scripted predictions as per-patient probability stacks.

    Detected lesions and injected FPs get their scripted grade channel set
    to the realized score (prostate channel takes the remainder), missed
    lesions render as plain prostate, and everything else is background or
    prostate at probability 1.
    """
    by_id = {s.patient_id: s for s in ledger.patients}
    stacks = []
    for patient in patients:
        script = by_id[patient.patient_id]
        lab = patient.labels.values
        nz, ny, nx = lab.shape
        data = np.zeros((6, nz, ny, nx), dtype=np.float32)
        gland = lab >= 1
        data[0] = ~gland
        data[1] = gland
        events = [(e.pred_grade, e) for e in script.lesions if e.detected]
        for grade, e in events + [(f.grade, f) for f in script.fps]:
            s = np.float32(e.score)
            data[int(grade)][e.box][e.mask] = s
            data[1][e.box][e.mask] = np.float32(1.0) - s  # exact for s in [0.5, 1]
        stacks.append(ProbStack(data, patient.labels.spacing_mm))
    return stacks


def phantom_patient_evals(patients, ledger: PhantomLedger, stacks=None):
    """Package a generated cohort as evaluation inputs (folds from the
    ledger; predictions rendered on demand when stacks is None)."""
    from .evaluation import PatientEval

    patients = list(patients)  # each patient rendered once, for the stacks and the labels
    if stacks is None:
        stacks = degrade_prediction(patients, ledger)
    folds = {s.patient_id: s.fold for s in ledger.patients}
    return [
        PatientEval(
            patient_id=p.patient_id,
            fold=folds[p.patient_id],
            labels=p.labels,
            probs=st,
            zones=p.zones,
        )
        for p, st in zip(patients, stacks)
    ]


# ---------------------------------------------------------------------------
# Ledger-derived oracle metrics (direct enumeration, no clustering/matching)


def _cs(grade) -> bool:
    return grade in CS_GRADES


def ledger_zone_subset(ledger: PhantomLedger, zone: str) -> PhantomLedger:
    """Restrict the script to lesions and FPs of one zone."""
    if zone not in (ZONE_PZ, ZONE_TZ):
        raise ValueError(f"zone must be {ZONE_PZ!r} or {ZONE_TZ!r}")
    pats = tuple(
        PatientScript(
            patient_id=p.patient_id,
            fold=p.fold,
            lesions=tuple(e for e in p.lesions if e.zone == zone),
            fps=tuple(f for f in p.fps if f.zone == zone),
        )
        for p in ledger.patients
    )
    return PhantomLedger(pats, ledger.dims, ledger.spacing_mm)


def _cs_events(ledger):
    """(kind, score) events visible in the CS prediction map: 'tp' for a CS
    lesion detected as CS, 'fp' for injected FPs and GS6 lesions detected
    as CS."""
    events = []
    for p in ledger.patients:
        for e in p.lesions:
            if not e.detected or not _cs(e.pred_grade):
                continue
            events.append(("tp" if _cs(e.grade) else "fp", e.score))
        for f in p.fps:
            events.append(("fp", f.score))
    return events


def ledger_cs_gt_count(ledger) -> int:
    return sum(1 for p in ledger.patients for e in p.lesions if _cs(e.grade))


def _ledger_sweep(events, n_gt: int, n_patients: int):
    """(threshold, mean_fp, sensitivity) at every event score plus 0 and a
    threshold just above 1, by direct counting at each threshold."""
    above_max = float(np.nextafter(1.0, 2.0))
    points = []
    for thr in sorted({s for _, s in events} | {0.0, above_max}):
        tp = sum(1 for kind, s in events if kind == "tp" and s >= thr)
        fp = sum(1 for kind, s in events if kind == "fp" and s >= thr)
        points.append((thr, fp / n_patients, tp / n_gt))
    return points


def ledger_froc_cs(ledger: PhantomLedger):
    """Expected CS FROC points: list of (threshold, mean_fp, sensitivity)."""
    n_gt = ledger_cs_gt_count(ledger)
    if n_gt == 0:
        raise ValueError("no CS ground-truth lesions in ledger")
    return _ledger_sweep(_cs_events(ledger), n_gt, ledger.n_patients)


def ledger_grade_gt_count(ledger, grade: Grade) -> int:
    return sum(1 for p in ledger.patients for e in p.lesions if e.grade == grade)


def ledger_froc_grade(ledger: PhantomLedger, grade: Grade):
    """Expected per-grade FROC points; a detected lesion predicted as a
    different grade is a FN here and a FP in the predicted grade's curve."""
    n_gt = ledger_grade_gt_count(ledger, grade)
    if n_gt == 0:
        raise ValueError(f"no {grade.display} ground-truth lesions in ledger")
    events = []
    for p in ledger.patients:
        for e in p.lesions:
            if not e.detected or e.pred_grade != grade:
                continue
            events.append(("tp" if e.grade == grade else "fp", e.score))
        for f in p.fps:
            if f.grade == grade:
                events.append(("fp", f.score))
    return _ledger_sweep(events, n_gt, ledger.n_patients)


def ledger_confusion(ledger: PhantomLedger, include_fn_as_gs6: bool = False, fold=None):
    """Expected 4x4 grading counts (rows GT, columns prediction)."""
    counts = [[0] * 4 for _ in range(4)]
    for p in ledger.patients:
        if fold is not None and p.fold != fold:
            continue
        for e in p.lesions:
            gi = e.grade.ordinal
            if e.detected:
                counts[gi][e.pred_grade.ordinal] += 1
            elif include_fn_as_gs6:
                counts[gi][Grade.GS6.ordinal] += 1
    return tuple(tuple(r) for r in counts)


# ---------------------------------------------------------------------------
# Serialization


def _entry_dict(e) -> dict:
    d = {"grade": e.grade.display, "zone": e.zone, "voxels": [list(v) for v in e.voxels],
         "score": e.score}
    if isinstance(e, LesionEntry):
        d["detected"] = e.detected
        d["pred_grade"] = None if e.pred_grade is None else e.pred_grade.display
    return d


def ledger_to_dict(ledger: PhantomLedger) -> dict:
    return {
        "dims": list(ledger.dims),
        "spacing_mm": list(ledger.spacing_mm),
        "patients": [
            {
                "patient_id": p.patient_id,
                "fold": p.fold,
                "lesions": [_entry_dict(e) for e in p.lesions],
                "fps": [_entry_dict(f) for f in p.fps],
            }
            for p in ledger.patients
        ],
    }


def _blob_from_voxels(voxels, dims, where: str) -> dict:
    """The box and mask of an entry from its (x, y, z) voxel list: the
    tightest box, and the mask painted within it.  A list that is empty,
    holds anything but integer triples, leaves the (nx, ny, nz) grid or
    names a voxel twice raises ValueError naming where the entry is."""
    triples = ValueError(f"{where}: voxels must be a list of [x, y, z] integer triples")
    try:
        xyz = np.array(voxels)
    except ValueError:  # ragged lists
        raise triples from None
    if xyz.size == 0:
        raise ValueError(f"{where}: voxels is empty")
    if xyz.ndim != 2 or xyz.shape[1] != 3 or xyz.dtype.kind not in "iu":
        raise triples
    if (xyz < 0).any() or (xyz >= np.array(dims)).any():
        raise ValueError(f"{where}: a voxel lies outside the grid of dims {list(dims)}")
    lo, hi = xyz.min(axis=0)[::-1], xyz.max(axis=0)[::-1] + 1  # (z, y, x)
    mask = np.zeros(hi - lo, dtype=bool)
    x, y, z = (xyz - lo[::-1]).T
    mask[z, y, x] = True
    if np.count_nonzero(mask) != len(xyz):
        raise ValueError(f"{where}: voxels names a voxel twice")
    return {"box": tuple(map(slice, lo.tolist(), hi.tolist())), "mask": mask}


def _grade_field(e: dict, key: str, where: str) -> Grade:
    try:
        return parse_grade(e[key])
    except (AttributeError, ValueError):  # AttributeError: not a string
        raise ValueError(f"{where}: unknown {key} {e[key]!r}") from None


def _score_field(e: dict, where: str) -> float:
    score = e["score"]
    if not (is_real(score) and 0.0 <= score <= 1.0):
        raise ValueError(f"{where}: score must be a number in [0, 1], got {score!r}")
    return score


def _entry_from_dict(e: dict, dims, where: str, lesion: bool):
    """The LesionEntry (or, with lesion false, FpEntry) an entry dict
    describes; a field the generator could not have written raises
    ValueError naming where the entry is."""
    grade = _grade_field(e, "grade", where)
    zone = e["zone"]
    if zone not in (ZONE_PZ, ZONE_TZ):
        raise ValueError(f"{where}: zone must be {ZONE_PZ!r} or {ZONE_TZ!r}, got {zone!r}")
    blob = _blob_from_voxels(e["voxels"], dims, where)
    if not lesion:
        if grade not in CS_GRADES:
            raise ValueError(f"{where}: a false positive must have a CS grade, got {e['grade']!r}")
        return FpEntry(grade, zone, **blob, score=_score_field(e, where))
    detected = e["detected"]
    if type(detected) is not bool:
        raise ValueError(f"{where}: detected must be true or false, got {detected!r}")
    if not detected:
        if e["pred_grade"] is not None or e["score"] is not None:
            raise ValueError(f"{where}: a missed lesion's pred_grade and score must be null")
        return LesionEntry(grade, zone, **blob, detected=False, pred_grade=None, score=None)
    if e["pred_grade"] is None:
        raise ValueError(f"{where}: a detected lesion needs a pred_grade")
    return LesionEntry(grade, zone, **blob, detected=True,
                       pred_grade=_grade_field(e, "pred_grade", where),
                       score=_score_field(e, where))


def ledger_from_dict(d: dict) -> PhantomLedger:
    """The ledger a ledger_to_dict dict describes.  An entry field the
    generator could not have written (see _entry_from_dict and
    _blob_from_voxels) raises ValueError naming the patient, "lesions" or
    "fps", and the entry index; a fold that is not an int names the
    patient."""
    dims = tuple(d["dims"])
    patients = []
    for p in d["patients"]:
        pid = p["patient_id"]
        if type(p["fold"]) is not int:
            raise ValueError(f"patient {pid}: fold must be an integer, got {p['fold']!r}")
        lesions = tuple(_entry_from_dict(e, dims, f"patient {pid} lesions[{i}]", True)
                        for i, e in enumerate(p["lesions"]))
        fps = tuple(_entry_from_dict(f, dims, f"patient {pid} fps[{i}]", False)
                    for i, f in enumerate(p["fps"]))
        patients.append(PatientScript(pid, p["fold"], lesions, fps))
    return PhantomLedger(tuple(patients), dims, tuple(d["spacing_mm"]))


def write_cohort(cfg: PhantomConfig, out_dir) -> PhantomLedger:
    """Generate a cohort and write it as an on-disk directory:
    gt/<pid>_labels, zones/<pid>_{pz,tz}, pred/<pid>_prob_c{0..5} volume
    pairs, plus ledger.json and cohort.json (fold manifest).  Each patient's
    labels and prediction stack are rendered from the ledger just before
    they are written and released before the next patient, so one
    patient's volumes are held at a time."""
    gt, zones, pred = (os.path.join(out_dir, d) for d in ("gt", "zones", "pred"))
    patients, ledger = generate_cohort(cfg)
    for patient, script in zip(patients, ledger.patients):
        pid = patient.patient_id
        # a one-script ledger: the render indexes one script, not the whole cohort's
        (stack,) = degrade_prediction([patient], PhantomLedger((script,), cfg.dims, cfg.spacing_mm))
        write_volume(patient.labels, os.path.join(gt, f"{pid}_labels"))
        write_volume(patient.zones.pz, os.path.join(zones, f"{pid}_pz"))
        write_volume(patient.zones.tz, os.path.join(zones, f"{pid}_tz"))
        for c in range(6):
            write_volume(stack.channel(c), os.path.join(pred, f"{pid}_prob_c{c}"))
        del stack
    write_json(os.path.join(out_dir, "ledger.json"), ledger_to_dict(ledger))
    manifest = {
        "n_folds": cfg.n_folds,
        "patients": [
            {"patient_id": p.patient_id, "fold": p.fold} for p in ledger.patients
        ],
    }
    write_json(os.path.join(out_dir, "cohort.json"), manifest)
    return ledger
