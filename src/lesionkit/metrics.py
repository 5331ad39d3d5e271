"""Detection and grading metrics: FROC curves (binary CS and per-grade),
sensitivity-at-FP readout, confusion matrices in both variants, quadratic
weighted Cohen's kappa with bootstrap, Dice, one-sided Wilcoxon signed-rank,
and cross-fold aggregation with 2-sigma bands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .cluster import LesionMap
from .grades import GRADE_ORDER, MISSED, Grade
from .matching import _dice, match_detections

#: Threshold sentinel just above the maximum attainable score.
ABOVE_MAX_SCORE = float(np.nextafter(1.0, 2.0))

#: Bootstrap resampling units: single lesion records, or whole patients.
RESAMPLE_UNITS = ("lesion", "patient")

WILCOXON_EXACT_MAX_N = 20
N_GRADES = len(GRADE_ORDER)

#: Quadratic kappa weights (i - j)^2 over the grade ordinals, without the
#: common 1/(K-1)^2 factor.
_KAPPA_WEIGHTS = np.subtract.outer(np.arange(N_GRADES), np.arange(N_GRADES)) ** 2


@dataclass(frozen=True)
class FrocPoint:
    threshold: float
    mean_fp_per_patient: float
    sensitivity: float


@dataclass(frozen=True)
class FrocCurve:
    """Sensitivity / mean-FP trade-off over the score-threshold sweep."""

    points: tuple[FrocPoint, ...]
    n_patients: int
    n_gt_lesions: int

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("curve needs at least one patient")
        if self.n_gt_lesions < 1:
            raise ValueError("sensitivity is undefined without ground-truth lesions")
        last = None
        for p in self.points:
            if not (0.0 <= p.sensitivity <= 1.0) or p.mean_fp_per_patient < 0:
                raise ValueError(f"invalid curve point {p}")
            if last is not None:
                if p.threshold <= last.threshold:
                    raise ValueError("thresholds must increase strictly")
                if p.sensitivity > last.sensitivity + 1e-12:
                    raise ValueError("sensitivity must be non-increasing in threshold")
                if p.mean_fp_per_patient > last.mean_fp_per_patient + 1e-12:
                    raise ValueError("mean FP must be non-increasing in threshold")
            last = p
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 lesion-grading counts; rows ground truth, columns prediction,
    both in the order (GS6, GS3+4, GS4+3, GS>=8)."""

    counts: tuple[tuple[int, ...], ...]
    include_fn_as_gs6: bool

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.counts)
        if len(rows) != N_GRADES or any(len(r) != N_GRADES for r in rows):
            raise ValueError(f"counts must be {N_GRADES}x{N_GRADES}")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", rows)

    @property
    def total(self) -> int:
        return sum(v for r in self.counts for v in r)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.counts)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(r[j] for r in self.counts) for j in range(N_GRADES))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    degenerate: bool = False
    bootstrap_mean: float | None = None
    bootstrap_std: float | None = None
    n_iterations: int = 0

    def __post_init__(self):
        if not (-1.0 - 1e-12 <= self.kappa <= 1.0 + 1e-12):
            raise ValueError(f"kappa {self.kappa} outside [-1, 1]")


@dataclass(frozen=True)
class AggregatePoint:
    fp_rate: float
    sens_mean: float
    sens_lo: float  # mean - 2*std
    sens_hi: float  # mean + 2*std


# ---------------------------------------------------------------------------
# FROC


def _sweep_thresholds(matches) -> list[float]:
    scores = set()
    for m in matches:
        for t in m.tp:
            scores.add(t.pred.score)
        for c in m.fp:
            scores.add(c.score)
        for c in m.duplicates:
            scores.add(c.score)
    return sorted(scores | {0.0, ABOVE_MAX_SCORE})


def froc_from_matches(matches, n_patients: int) -> FrocCurve:
    """Build the curve from per-patient full matches (score threshold 0).

    Restricting a match to predictions with score >= t is equivalent to
    re-matching at threshold t: crediting runs in descending score order, so
    dropping lower-scored predictions never disturbs earlier credits.
    """
    if n_patients < 1:
        raise ValueError("need at least one patient")
    n_gt = sum(m.n_gt for m in matches)
    if n_gt == 0:
        raise ValueError("sensitivity is undefined without ground-truth lesions")
    points = []
    for thr in _sweep_thresholds(matches):
        tp = sum(1 for m in matches for t in m.tp if t.pred.score >= thr)
        fp = sum(1 for m in matches for c in m.fp if c.score >= thr)
        points.append(
            FrocPoint(
                threshold=thr,
                mean_fp_per_patient=fp / n_patients,
                sensitivity=tp / n_gt,
            )
        )
    return FrocCurve(tuple(points), n_patients, n_gt)


def froc_curve(
    patients,
    overlap_frac: float = 0.10,
    denom: str = "pred",
    strict_duplicates: bool = False,
) -> FrocCurve:
    """FROC over a cohort of per-patient (prediction map, ground-truth map)
    pairs.  Thresholds sweep every distinct lesion score plus sentinels at 0
    and just above 1."""
    pairs = list(patients)
    matches = [
        match_detections(
            pred, gt, overlap_frac=overlap_frac, denom=denom,
            strict_duplicates=strict_duplicates,
        )
        for pred, gt in pairs
    ]
    return froc_from_matches(matches, len(pairs))


def _only_grade(m: LesionMap, grade: Grade) -> LesionMap:
    return replace(m, clusters=tuple(c for c in m.clusters if c.grade == grade))


def froc_by_grade(
    patients,
    grade: Grade,
    overlap_frac: float = 0.10,
    denom: str = "pred",
    strict_duplicates: bool = False,
) -> FrocCurve:
    """Per-grade FROC: grade-g predictions against grade-g lesions only.

    A detected but misgraded lesion therefore counts as a false negative in
    its true grade's curve, and its prediction as a false positive in the
    predicted grade's curve.
    """
    filtered = [(_only_grade(p, grade), _only_grade(g, grade)) for p, g in patients]
    return froc_curve(
        filtered, overlap_frac=overlap_frac, denom=denom,
        strict_duplicates=strict_duplicates,
    )


def sensitivity_at_fp(curve: FrocCurve, fp_rate: float) -> float:
    """Step-interpolation readout: the best sensitivity among curve points
    with mean FP/patient at or below the target rate; 0 if none qualifies."""
    if fp_rate < 0:
        raise ValueError("fp_rate must be nonnegative")
    best = 0.0
    for p in curve.points:
        if p.mean_fp_per_patient <= fp_rate:
            best = max(best, p.sensitivity)
    return best


# ---------------------------------------------------------------------------
# Confusion matrix and kappa


def confusion_matrix(records, include_fn_as_gs6: bool = False) -> ConfusionMatrix:
    """Lesion-grading matrix from detection records.

    The TP-only variant counts matched lesions at (gt grade, predicted
    grade).  The FN variant additionally books every missed lesion in the
    GS6 prediction column."""
    counts = [[0] * N_GRADES for _ in range(N_GRADES)]
    for r in records:
        gi = r.gt_grade.ordinal
        if r.pred_grade == MISSED:
            if include_fn_as_gs6:
                counts[gi][Grade.GS6.ordinal] += 1
            continue
        counts[gi][r.pred_grade.ordinal] += 1
    return ConfusionMatrix(tuple(tuple(r) for r in counts), include_fn_as_gs6)


def quadratic_weighted_kappa(cm: ConfusionMatrix) -> KappaResult:
    """kappa = 1 - (sum W*O)/(sum W*E), W_ij = (i-j)^2/(K-1)^2, K = 4,
    expected counts from the marginal products.

    Both sums reduce to exact integer arithmetic (the common 1/(K-1)^2 and
    1/n factors cancel), so the result is a single correctly-rounded
    division.  A degenerate matrix with zero expected disagreement yields
    kappa 1 when observed disagreement is zero too, else 0.
    """
    if cm.total <= 0:
        raise ValueError("kappa needs a populated matrix")
    o = cm.counts
    n = cm.total
    rows = cm.row_sums()
    cols = cm.col_sums()
    obs = sum(o[i][j] * (i - j) ** 2 for i in range(N_GRADES) for j in range(N_GRADES))
    exp = sum(
        rows[i] * cols[j] * (i - j) ** 2
        for i in range(N_GRADES)
        for j in range(N_GRADES)
    )
    kappa, degenerate = _kappa_from_sums(n, obs, exp)
    return KappaResult(kappa=kappa, degenerate=degenerate)


def _kappa_from_sums(n: int, obs: int, exp: int) -> tuple[float, bool]:
    """Kappa and the degenerate flag from the integer sums n, sum W*O and
    sum W*row*col: one correctly-rounded division of Python ints."""
    if exp == 0:
        return (1.0 if obs == 0 else 0.0), True
    return 1.0 - (n * obs) / exp, False


def bootstrap_kappa(
    records,
    n_iter: int = 1000,
    seed: int = 0,
    include_fn_as_gs6: bool = False,
    resample: str = "lesion",
) -> KappaResult:
    """Resample detection records with replacement and report the mean and
    std of kappa over iterations.

    Lesion-level resampling draws records directly; patient-level draws
    whole patients, in sorted patient-id order.  Each iteration uses an
    independent counter-based substream of the master seed, so results do
    not depend on execution order.  Every unit's confusion counts are
    tabulated once; an iteration's table is the count-weighted sum of the
    drawn units' tables, so no record is revisited per draw."""
    recs = list(records)
    if not recs:
        raise ValueError("bootstrap needs at least one record")
    if resample not in RESAMPLE_UNITS:
        raise ValueError(f"resample must be 'lesion' or 'patient', got {resample!r}")
    if n_iter < 1:
        raise ValueError("bootstrap needs at least one iteration")
    point = quadratic_weighted_kappa(confusion_matrix(recs, include_fn_as_gs6))
    if resample == "patient":
        by_patient = {}
        for r in recs:
            by_patient.setdefault(r.patient_id, []).append(r)
        units = [by_patient[k] for k in sorted(by_patient)]
    else:
        units = [[r] for r in recs]
    cells = np.array(
        [confusion_matrix(u, include_fn_as_gs6).as_array().ravel() for u in units],
        dtype=np.int64,
    )
    tables = np.empty((n_iter, N_GRADES * N_GRADES), dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(n_iter)
    for it in range(n_iter):
        rng = np.random.Generator(np.random.Philox(streams[it]))
        idx = rng.integers(0, len(units), size=len(units))
        tables[it] = np.bincount(idx, minlength=len(units)) @ cells
    tables = tables.reshape(n_iter, N_GRADES, N_GRADES)
    n = tables.sum(axis=(1, 2))
    obs = (tables * _KAPPA_WEIGHTS).sum(axis=(1, 2))
    exp = ((tables.sum(axis=2) @ _KAPPA_WEIGHTS) * tables.sum(axis=1)).sum(axis=1)
    values = np.array(
        [
            # an empty table: every drawn record was a MISSED lesion in the
            # TP-only variant
            _kappa_from_sums(ni, oi, ei)[0] if ni else 0.0
            for ni, oi, ei in zip(n.tolist(), obs.tolist(), exp.tolist())
        ],
        dtype=np.float64,
    )
    return KappaResult(
        kappa=point.kappa,
        degenerate=point.degenerate,
        bootstrap_mean=float(values.mean()),
        bootstrap_std=float(values.std()),
        n_iterations=n_iter,
    )


# ---------------------------------------------------------------------------
# Dice


def dice_coefficient(a, b) -> float:
    """2|A n B| / (|A| + |B|) for binary volumes on one grid; two empty
    masks count as perfect agreement (1)."""
    if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
        raise ValueError("volumes must share the voxel grid")
    av, bv = np.asarray(a.values), np.asarray(b.values)
    na, nb = int(np.count_nonzero(av)), int(np.count_nonzero(bv))
    if na + nb == 0:
        return 1.0
    return _dice(int(np.count_nonzero(np.logical_and(av, bv))), na, nb)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank, one-sided (alternative: x > y)


def _signed_ranks(diffs: np.ndarray):
    """Doubled average ranks of |d| (doubling keeps tied ranks integral)."""
    mags = np.abs(diffs)
    order = np.argsort(mags, kind="stable")
    doubled = np.empty(len(diffs), dtype=np.int64)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        # positions i+1 .. j+1 share the average rank; doubled it is exact
        for k in range(i, j + 1):
            doubled[order[k]] = (i + 1) + (j + 1)
        i = j + 1
    return doubled


def _exact_tail_prob(doubled_ranks, doubled_obs: int) -> float:
    # distribution of the doubled W+ over all 2^n sign patterns, by
    # polynomial convolution; exact because doubled ranks are integers
    total = int(sum(doubled_ranks))
    counts = np.zeros(total + 1, dtype=object)
    counts[0] = 1
    for r in doubled_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    tail = int(sum(counts[doubled_obs:]))
    return tail / (2 ** len(doubled_ranks))


def wilcoxon_one_sided(x, y) -> float:
    """P(W+ >= observed) for the signed-rank statistic of x - y.

    Zero differences are removed first.  Exact enumeration (tie-aware) for
    up to 20 remaining pairs; beyond that, normal approximation with tie
    correction and continuity correction.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ValueError("x and y must be equal-length 1D samples")
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - y
    if not np.all(np.isfinite(d)):
        raise ValueError("samples and their paired differences must be finite")
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise ValueError("all paired differences are zero; test undefined")
    doubled = _signed_ranks(d)
    doubled_w_plus = int(doubled[d > 0].sum())
    if n <= WILCOXON_EXACT_MAX_N:
        return _exact_tail_prob(doubled, doubled_w_plus)
    w_plus = doubled_w_plus / 2.0
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        raise ValueError("zero variance under ties; test undefined")
    z = (w_plus - mean - 0.5) / np.sqrt(var)
    return float(norm.sf(z))


# ---------------------------------------------------------------------------
# Fold aggregation


def aggregate_folds(curves, fp_grid) -> tuple[AggregatePoint, ...]:
    """Mean sensitivity with a 2-sigma band across folds, read out at each
    FP rate of the grid via step interpolation."""
    curves = list(curves)
    grid = [float(v) for v in fp_grid]
    if len(curves) < 2:
        raise ValueError("aggregation needs at least two folds")
    if not grid:
        raise ValueError("empty FP grid")
    out = []
    for fp in grid:
        sens = np.array([sensitivity_at_fp(c, fp) for c in curves])
        mean = float(sens.mean())
        band = 2.0 * float(sens.std())
        out.append(AggregatePoint(fp, mean, mean - band, mean + band))
    return tuple(out)
