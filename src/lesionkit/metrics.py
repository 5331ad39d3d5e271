"""Detection and grading metrics: FROC curves (binary CS and per-grade),
sensitivity-at-FP readout, confusion matrices in both variants, quadratic
weighted Cohen's kappa with bootstrap, Dice, one-sided Wilcoxon signed-rank,
and cross-fold aggregation with 2-sigma bands.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cluster import LesionMap
from .grades import GRADE_ORDER, MISSED, Grade
from .matching import DEFAULT_OVERLAP_FRAC, MatchResult, _dice, match_detections

#: Threshold sentinel just above the maximum attainable score.
ABOVE_MAX_SCORE = float(np.nextafter(1.0, 2.0))

#: Bootstrap resampling units: single lesion records, or whole patients.
RESAMPLE_UNITS = ("lesion", "patient")

WILCOXON_EXACT_MAX_N = 20
N_GRADES = len(GRADE_ORDER)
_N_CELLS = N_GRADES * N_GRADES

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
class KappaBootstrap:
    """Both grading variants of one bootstrap, from the same draws: TP-only
    and with missed lesions booked as GS6 predictions."""

    tp_only: KappaResult
    with_fn: KappaResult

    @property
    def n_iterations(self) -> int:
        # the with-FN matrix holds every record, so it is never left empty
        return self.with_fn.n_iterations


@dataclass(frozen=True)
class AggregatePoint:
    fp_rate: float
    sens_mean: float
    sens_lo: float  # mean - 2*std
    sens_hi: float  # mean + 2*std


# ---------------------------------------------------------------------------
# FROC


def froc_from_matches(matches, n_patients: int) -> FrocCurve:
    """Build the curve from per-patient full matches (score threshold 0).

    Restricting a match to predictions with score >= t is equivalent to
    re-matching at threshold t: crediting runs in descending score order, so
    dropping lower-scored predictions never disturbs earlier credits.
    Each threshold's TP and FP counts are read off the sorted scores by
    bisection.
    """
    if n_patients < 1:
        raise ValueError("need at least one patient")
    n_gt = sum(m.n_gt for m in matches)
    if n_gt == 0:
        raise ValueError("sensitivity is undefined without ground-truth lesions")
    tp_scores = sorted(t.pred.score for m in matches for t in m.tp)
    fp_scores = sorted(c.score for m in matches for c in m.fp)
    dup_scores = [c.score for m in matches for c in m.duplicates]
    thresholds = sorted({*tp_scores, *fp_scores, *dup_scores, 0.0, ABOVE_MAX_SCORE})
    points = []
    for thr in thresholds:
        tp = len(tp_scores) - bisect_left(tp_scores, thr)
        fp = len(fp_scores) - bisect_left(fp_scores, thr)
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
    overlap_frac: float = DEFAULT_OVERLAP_FRAC,
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


def match_grade(
    pred: LesionMap,
    gt: LesionMap,
    grade: Grade,
    overlap_frac: float = DEFAULT_OVERLAP_FRAC,
    denom: str = "pred",
    strict_duplicates: bool = False,
) -> MatchResult:
    """match_detections of grade-g predictions against grade-g lesions only."""
    pred, gt = (m.select(lambda c: c.grade == grade) for m in (pred, gt))
    return match_detections(pred, gt, overlap_frac=overlap_frac, denom=denom,
                            strict_duplicates=strict_duplicates)


def froc_by_grade(
    patients,
    grade: Grade,
    overlap_frac: float = DEFAULT_OVERLAP_FRAC,
    denom: str = "pred",
    strict_duplicates: bool = False,
) -> FrocCurve:
    """Per-grade FROC over match_grade of each (prediction, ground truth) pair.

    A detected but misgraded lesion therefore counts as a false negative in
    its true grade's curve, and its prediction as a false positive in the
    predicted grade's curve.
    """
    pairs = list(patients)
    matches = [match_grade(p, g, grade, overlap_frac, denom, strict_duplicates) for p, g in pairs]
    return froc_from_matches(matches, len(pairs))


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


def _cell(record, include_fn_as_gs6: bool) -> int:
    """Flat index gt * 4 + pred of the confusion cell a record counts in,
    or -1 for a missed lesion in the TP-only variant (counted nowhere)."""
    pred = record.pred_grade
    if pred == MISSED:
        if not include_fn_as_gs6:
            return -1
        pred = Grade.GS6
    return record.gt_grade.ordinal * N_GRADES + pred.ordinal


def _unit_tables(records, include_fn_as_gs6: bool, unit=0, n_units: int = 1) -> np.ndarray:
    """(n_units, 4, 4) confusion counts: record k counts in table
    unit[k] (every record in table 0 by default), at the cell _cell gives."""
    cell = np.fromiter((_cell(r, include_fn_as_gs6) for r in records), dtype=np.intp)
    flat = (unit * _N_CELLS + cell)[cell >= 0]
    return np.bincount(flat, minlength=n_units * _N_CELLS).reshape(n_units, N_GRADES, N_GRADES)


def confusion_matrix(records, include_fn_as_gs6: bool = False) -> ConfusionMatrix:
    """Lesion-grading matrix from detection records.

    The TP-only variant counts matched lesions at (gt grade, predicted
    grade).  The FN variant additionally books every missed lesion in the
    GS6 prediction column."""
    return ConfusionMatrix(_unit_tables(records, include_fn_as_gs6)[0], include_fn_as_gs6)


def _kappa_sums(tables: np.ndarray):
    """n, sum W*O and sum W*row*col of each 4x4 count table in the last two
    axes, W being _KAPPA_WEIGHTS.  The int64 sums are exact: sum W*row*col
    is at most 9 n^2."""
    n = tables.sum(axis=(-2, -1))
    obs = (tables * _KAPPA_WEIGHTS).sum(axis=(-2, -1))
    exp = ((tables.sum(axis=-1) @ _KAPPA_WEIGHTS) * tables.sum(axis=-2)).sum(axis=-1)
    return n, obs, exp


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
    n, obs, exp = _kappa_sums(cm.as_array())
    return KappaResult(kappa=float(_kappa_values(n, obs, exp)), degenerate=bool(exp == 0))


def _kappa_values(n, obs, exp) -> np.ndarray:
    """Kappa of each table from its integer sums n, sum W*O and sum W*row*col,
    as one float64 division 1 - (n*obs)/exp.  Both operands are at most
    9 n^2, which the assert keeps below 2**53: they convert to float64
    exactly, so each quotient rounds as a division of Python ints does.  A
    table with zero expected disagreement reads 1 when observed
    disagreement is zero too, else 0; an empty table reads 0."""
    assert 9 * int(n.max()) ** 2 < 2**53
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 - (n * obs) / exp
    return np.select([n == 0, (exp == 0) & (obs == 0), exp == 0], [0.0, 1.0, 0.0], kappa)


# ---------------------------------------------------------------------------
# Bootstrap draws
#
# Iteration i of a bootstrap over U units draws
#     Generator(Philox(SeedSequence(seed).spawn(n_iter)[i])).integers(0, U, size=U)
# numpy's Generator draws every row, from one Philox re-keyed to each child.
# Only the children's keys are computed here, all at once: a child's
# SeedSequence is its parent's with the spawn index as one more entropy word,
# so its pool is the parent's pool with that index hashed into each word.

_MASK32 = 0xFFFFFFFF
_U32_SHIFT = np.uint64(32)

# numpy.random.SeedSequence: hash constants
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

#: Draws yielded per block of iterations.  A block holds
#: max(1, _BLOCK_DRAWS // U) iterations, so memory stays near this size
#: whatever n_iter and U are.
_BLOCK_DRAWS = 1 << 16


class _HashConsts:
    """SeedSequence's running hash multiplier: each use xors with the
    current value, then multiplies by the next."""

    def __init__(self, init: int, mult: int):
        self.value, self.mult = init, mult

    def hash(self, x: np.ndarray) -> np.ndarray:
        x = x ^ np.uint32(self.value)
        self.value = self.value * self.mult & _MASK32
        x = x * np.uint32(self.value)
        return x ^ (x >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _SS_MIX_L * x - _SS_MIX_R * y
    return r ^ (r >> np.uint32(16))


def _spawn_keys(seed, n_iter: int) -> np.ndarray:
    """Philox keys of SeedSequence(seed).spawn(n_iter), as (n_iter, 2)
    uint64: one lane of uint32 SeedSequence arithmetic per child."""
    parent = np.random.SeedSequence(seed)
    n_words = max(1, -(-int(seed).bit_length() // 32))
    # the parent's mixing hashed each pool word once, cross-mixed every pair
    # of them, then mixed in each seed word beyond the pool: pool_size uses
    # of the multiplier per entropy word, counting the zero padding
    n_used = parent.pool_size * max(parent.pool_size, n_words)
    h = _HashConsts(_SS_INIT_A * pow(_SS_MULT_A, n_used, 2**32) & _MASK32, _SS_MULT_A)
    index = np.arange(n_iter, dtype=np.uint32)
    pool = [_mix(p, h.hash(index)) for p in parent.pool.reshape(-1, 1)]
    # generate_state(2, np.uint64): four hashed pool words, paired low first
    h = _HashConsts(_SS_INIT_B, _SS_MULT_B)
    state = [h.hash(p).astype(np.uint64) for p in pool]
    return np.stack(
        (state[0] | state[1] << _U32_SHIFT, state[2] | state[3] << _U32_SHIFT), axis=1
    )


def _bootstrap_draws(seed, n_iter: int, n_units: int):
    """Yield (start, idx): row r of idx holds the n_units indices that
    iteration start + r draws, as
    Generator(Philox(SeedSequence(seed).spawn(n_iter)[i])).integers(0, n_units, size=n_units)
    returns them."""
    keys = _spawn_keys(seed, n_iter)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # a fresh Philox's state, counter 0 and an empty buffer, as a child
    # starts; each row sets only its key
    state = bitgen.state
    per_block = max(1, _BLOCK_DRAWS // n_units)
    for start in range(0, n_iter, per_block):
        block = keys[start:start + per_block]
        idx = np.empty((len(block), n_units), dtype=np.intp)
        for row, key in zip(idx, block):
            state["state"]["key"] = key
            bitgen.state = state
            row[:] = gen.integers(0, n_units, size=n_units)
        yield start, idx


def bootstrap_kappa(
    records,
    n_iter: int = 1000,
    seed: int = 0,
    resample: str = "lesion",
) -> KappaBootstrap:
    """Resample detection records with replacement and report, for both
    confusion variants, the mean and std of kappa over iterations.

    Lesion-level resampling draws records directly; patient-level draws
    whole patients, in sorted patient-id order.  Iteration i draws from
    child i of SeedSequence(seed), through Philox, so results do not depend
    on execution order; the children's keys are computed in bulk (see
    _bootstrap_draws).  Every unit's confusion counts in both variants are
    tabulated once; an iteration's two tables are the count-weighted sum of
    the drawn units' tables, so one draw and one count feed both variants
    and no record is revisited per draw.  When every record is a missed
    lesion, the TP-only variant is KappaResult(0.0, degenerate=True), with
    no bootstrap."""
    recs = list(records)
    if not recs:
        raise ValueError("bootstrap needs at least one record")
    if resample not in RESAMPLE_UNITS:
        raise ValueError(f"resample must be 'lesion' or 'patient', got {resample!r}")
    if n_iter < 1:
        raise ValueError("bootstrap needs at least one iteration")
    if resample == "patient":
        unit_of = {pid: u for u, pid in enumerate(sorted({r.patient_id for r in recs}))}
        unit = np.array([unit_of[r.patient_id] for r in recs], dtype=np.intp)
        n_units = len(unit_of)
    else:
        unit = np.arange(len(recs))
        n_units = len(recs)
    # (n_units, 32): a unit's 16 TP-only cells, then its 16 with-FN cells
    cells = np.concatenate(
        [_unit_tables(recs, fn, unit, n_units).reshape(n_units, _N_CELLS) for fn in (False, True)],
        axis=1,
    )
    point_tables = cells.sum(axis=0).reshape(2, N_GRADES, N_GRADES)
    # the product runs in float64, which has a BLAS path where int64 has
    # none; every sum is an integer of at most n_units * cells.max(), exact
    # in float64 below 2**53, and storing into tables casts it back to int64
    assert n_units * int(cells.max()) < 2**53
    cells = cells.astype(np.float64)
    tables = np.empty((n_iter, 2 * _N_CELLS), dtype=np.int64)
    for start, idx in _bootstrap_draws(seed, n_iter, n_units):
        rows = len(idx)
        # in place: each block's idx is a new array that nothing else reads
        idx += n_units * np.arange(rows)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * n_units)
        tables[start:start + rows] = counts.reshape(rows, n_units) @ cells
    # (2, n_iter): one row of kappas per variant
    values = _kappa_values(*_kappa_sums(
        tables.reshape(n_iter, 2, N_GRADES, N_GRADES).transpose(1, 0, 2, 3)))
    results = []
    for fn, table, kappas in zip((False, True), point_tables, values):
        if not table.any():
            # only the TP-only table can be empty: every record was missed
            results.append(KappaResult(kappa=0.0, degenerate=True))
            continue
        point = quadratic_weighted_kappa(ConfusionMatrix(table, fn))
        results.append(KappaResult(
            kappa=point.kappa,
            degenerate=point.degenerate,
            bootstrap_mean=float(kappas.mean()),
            bootstrap_std=float(kappas.std()),
            n_iterations=n_iter,
        ))
    return KappaBootstrap(*results)


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
    # scipy.stats is imported on first use, here and for norm below: it is
    # slow to import, and only the Wilcoxon test needs it
    from scipy.stats import rankdata

    return (2 * rankdata(np.abs(diffs))).astype(np.int64)


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
    from scipy.stats import norm

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
