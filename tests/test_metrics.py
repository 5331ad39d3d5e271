"""FROC, confusion matrices, kappa, Dice, Wilcoxon, and fold aggregation.

Oracles: direct textbook-formula kappa loops, exhaustive sign-pattern
enumeration for Wilcoxon, linear-scan FROC readout, hand arithmetic.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from lesionkit import metrics
from lesionkit.cluster import LesionMap
from lesionkit.grades import MISSED, Grade
from lesionkit.matching import DetectionRecord, match_detections
from lesionkit.metrics import (
    ABOVE_MAX_SCORE,
    ConfusionMatrix,
    FrocCurve,
    FrocPoint,
    KappaResult,
    aggregate_folds,
    bootstrap_kappa,
    confusion_matrix,
    dice_coefficient,
    froc_by_grade,
    froc_curve,
    froc_from_matches,
    quadratic_weighted_kappa,
    sensitivity_at_fp,
    wilcoxon_one_sided,
)
from lesionkit.volume import KIND_LABEL, Volume

from lesion_builders import from_voxels

DIMS = (16, 16, 4)
SPACING = (1.0, 1.0, 3.0)


def box(x0, x1, y0, y1, z0, z1):
    return tuple(
        (x, y, z) for z in range(z0, z1) for y in range(y0, y1) for x in range(x0, x1)
    )


def mk(voxels, grade=Grade.GS34, score=0.9):
    return from_voxels(voxels, grade, len(voxels) * 3.0, score)


def mk_map(clusters):
    return LesionMap(tuple(clusters), DIMS, SPACING)


def kappa_oracle(counts):
    """Textbook transcription: W, O, E matrices with explicit float loops."""
    o = np.asarray(counts, dtype=np.float64)
    n = o.sum()
    k = o.shape[0]
    w = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            w[i, j] = (i - j) ** 2 / (k - 1) ** 2
    rows = o.sum(axis=1)
    cols = o.sum(axis=0)
    e = np.outer(rows, cols) / n
    num = (w * o).sum()
    den = (w * e).sum()
    if den == 0:
        return 1.0 if num == 0 else 0.0
    return 1.0 - num / den


def wilcoxon_enumeration_oracle(x, y):
    """All 2^n sign patterns over the observed |differences|."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0]
    n = len(d)
    ranks = rankdata(np.abs(d))
    observed = ranks[d > 0].sum()
    hits = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w >= observed - 1e-12:
            hits += 1
    return hits / 2**n


class TestFrocCurve:
    def _patients_perfect(self):
        out = []
        for k in range(3):
            gt = mk_map([mk(box(1, 4, 1, 4, 0, 2)), mk(box(8, 11, 8, 11, 1, 3), grade=Grade.GS8)])
            pred = mk_map(
                [
                    mk(box(1, 4, 1, 4, 0, 2), score=0.8),
                    mk(box(8, 11, 8, 11, 1, 3), grade=Grade.GS8, score=0.7),
                ]
            )
            out.append((pred, gt))
        return out

    def test_perfect_cohort_hits_full_sensitivity_at_zero_fp(self):
        curve = froc_curve(self._patients_perfect())
        assert curve.n_gt_lesions == 6
        for p in curve.points:
            if p.threshold <= 0.7:
                assert p.sensitivity == 1.0
            assert p.mean_fp_per_patient == 0.0
        assert curve.points[-1].sensitivity == 0.0  # above-max sentinel

    def test_empty_predictions_flatline(self):
        gt = mk_map([mk(box(0, 3, 0, 3, 0, 1))])
        curve = froc_curve([(mk_map([]), gt)])
        assert all(p.sensitivity == 0.0 and p.mean_fp_per_patient == 0.0 for p in curve.points)

    def test_zero_gt_rejected(self):
        pred = mk_map([mk(box(0, 3, 0, 3, 0, 1))])
        with pytest.raises(ValueError):
            froc_curve([(pred, mk_map([]))])

    def test_injected_fp_rate(self):
        # two stray clusters per patient at score 0.9, plus one perfect hit
        patients = []
        for _ in range(4):
            gt = mk_map([mk(box(0, 3, 0, 3, 0, 1))])
            pred = mk_map(
                [
                    mk(box(0, 3, 0, 3, 0, 1), score=0.95),
                    mk(box(6, 8, 6, 8, 1, 2), score=0.9),
                    mk(box(10, 13, 10, 13, 2, 3), score=0.9),
                ]
            )
            patients.append((pred, gt))
        curve = froc_curve(patients)
        for p in curve.points:
            if p.threshold <= 0.9:
                assert p.mean_fp_per_patient == 2.0
            elif p.threshold <= 0.95:
                assert p.mean_fp_per_patient == 0.0
                assert p.sensitivity == 1.0

    def test_matches_rematching_at_every_threshold(self):
        # the sweep built from one full match must equal re-matching per
        # threshold (greedy crediting is prefix-stable in score order)
        rng = np.random.default_rng(3)
        for _ in range(10):
            patients = [random_patient(rng) for _ in range(3)]
            if sum(len(gt.clusters) for _, gt in patients) == 0:
                continue
            curve = froc_curve(patients)
            n_gt = curve.n_gt_lesions
            for p in curve.points:
                tp = fp = 0
                for pred, gt in patients:
                    res = match_detections(pred, gt, score_threshold=p.threshold)
                    tp += len(res.tp)
                    fp += len(res.fp)
                assert p.sensitivity == tp / n_gt
                assert p.mean_fp_per_patient == fp / len(patients)

    def test_curve_invariants_validated(self):
        with pytest.raises(ValueError):
            FrocCurve(
                (FrocPoint(0.1, 0.0, 0.2), FrocPoint(0.2, 0.0, 0.4)),
                n_patients=1,
                n_gt_lesions=5,
            )
        with pytest.raises(ValueError):
            FrocCurve((FrocPoint(0.1, 0.0, 0.2),), n_patients=1, n_gt_lesions=0)


# Reference: the FROC sweep as first written, counting every threshold's
# TPs and FPs with a full scan (quadratic in thresholds x matches).


def _ref_froc_from_matches(matches, n_patients):
    if n_patients < 1:
        raise ValueError("need at least one patient")
    n_gt = sum(m.n_gt for m in matches)
    if n_gt == 0:
        raise ValueError("sensitivity is undefined without ground-truth lesions")
    scores = set()
    for m in matches:
        for t in m.tp:
            scores.add(t.pred.score)
        for c in m.fp:
            scores.add(c.score)
        for c in m.duplicates:
            scores.add(c.score)
    points = []
    for thr in sorted(scores | {0.0, ABOVE_MAX_SCORE}):
        tp = sum(1 for m in matches for t in m.tp if t.pred.score >= thr)
        fp = sum(1 for m in matches for c in m.fp if c.score >= thr)
        points.append(FrocPoint(thr, fp / n_patients, tp / n_gt))
    return FrocCurve(tuple(points), n_patients, n_gt)


# a few values, so that scores repeat within and across TP, FP and
# duplicate sets; 0.0 and ABOVE_MAX_SCORE coincide with the sentinels
_scores = st.sampled_from((0.0, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0, ABOVE_MAX_SCORE))


def _fake_match(tp, fp, dup, n_fn):
    """The fields froc_from_matches reads of a MatchResult."""
    return SimpleNamespace(
        tp=[SimpleNamespace(pred=SimpleNamespace(score=s)) for s in tp],
        fp=[SimpleNamespace(score=s) for s in fp],
        duplicates=[SimpleNamespace(score=s) for s in dup],
        n_gt=len(tp) + n_fn,
    )


_fake_matches = st.lists(
    st.builds(_fake_match, st.lists(_scores, max_size=5), st.lists(_scores, max_size=5),
              st.lists(_scores, max_size=3), st.integers(0, 2)),
    max_size=6,
)


def _outcome_froc(fn, matches, n_patients):
    """The curve, or the error it raised."""
    try:
        return fn(matches, n_patients)
    except ValueError as e:
        return ("error", str(e))


class TestFrocSweepMatchesReference:
    """The bisection sweep against the full-scan sweep: every point equal,
    and the same error when the curve is undefined."""

    @settings(max_examples=300, deadline=None)
    @given(matches=_fake_matches, n_patients=st.integers(0, 8))
    @example(matches=[_fake_match([], [0.5, 0.5], [0.5], 1)], n_patients=1)  # no TP
    @example(matches=[_fake_match([0.0, 0.0], [], [], 0)], n_patients=2)  # no FP
    @example(matches=[_fake_match([ABOVE_MAX_SCORE], [ABOVE_MAX_SCORE, 0.0], [1.0], 0)],
             n_patients=3)
    @example(matches=[], n_patients=1)
    def test_equals_reference(self, matches, n_patients):
        assert _outcome_froc(froc_from_matches, matches, n_patients) == \
            _outcome_froc(_ref_froc_from_matches, matches, n_patients)


def random_patient(rng):
    def clusters(n):
        used = set()
        out = []
        for _ in range(n):
            x0, y0 = (int(v) for v in rng.integers(0, 12, size=2))
            z0 = int(rng.integers(0, 3))
            vox = tuple(
                v
                for v in box(x0, x0 + int(rng.integers(2, 5)), y0, y0 + int(rng.integers(2, 5)), z0, z0 + 1)
                if v not in used
            )
            if not vox:
                continue
            used.update(vox)
            grade = Grade(int(rng.integers(2, 6)))
            out.append(mk(vox, grade=grade, score=float(rng.uniform(0.2, 1.0))))
        return out

    return mk_map(clusters(int(rng.integers(0, 4)))), mk_map(clusters(int(rng.integers(1, 4))))


class TestFrocByGrade:
    def test_misgrade_charged_twice(self):
        # three lesions: one correct GS3+4, one GS3+4 predicted GS4+3
        # (FN for GS3+4 and FP for GS4+3), one missed GS>=8
        gt = mk_map(
            [
                mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS34),
                mk(box(6, 9, 6, 9, 0, 1), grade=Grade.GS34),
                mk(box(11, 14, 11, 14, 0, 1), grade=Grade.GS8),
            ]
        )
        pred = mk_map(
            [
                mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS34, score=0.9),
                mk(box(6, 9, 6, 9, 0, 1), grade=Grade.GS43, score=0.8),
            ]
        )
        c34 = froc_by_grade([(pred, gt)], Grade.GS34)
        assert c34.n_gt_lesions == 2
        low = c34.points[0]
        assert low.sensitivity == 0.5  # misgraded lesion is FN here
        assert low.mean_fp_per_patient == 0.0
        # the FP charge needs a cohort with a GS4+3 stratum to form a curve
        gt2 = mk_map(
            [
                mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS34),
                mk(box(6, 9, 6, 9, 0, 1), grade=Grade.GS34),
                mk(box(11, 14, 11, 14, 0, 1), grade=Grade.GS43),
            ]
        )
        c43 = froc_by_grade([(pred, gt2)], Grade.GS43)
        low = c43.points[0]
        assert low.mean_fp_per_patient == 1.0  # the misgraded prediction
        assert low.sensitivity == 0.0

    def test_all_correct_per_grade(self):
        gt = mk_map(
            [
                mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS6),
                mk(box(6, 9, 6, 9, 0, 1), grade=Grade.GS43),
            ]
        )
        pred = mk_map(
            [
                mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS6, score=0.9),
                mk(box(6, 9, 6, 9, 0, 1), grade=Grade.GS43, score=0.9),
            ]
        )
        for g in (Grade.GS6, Grade.GS43):
            c = froc_by_grade([(pred, gt)], g)
            assert c.points[0].sensitivity == 1.0
            assert c.points[0].mean_fp_per_patient == 0.0

    def test_no_gt_of_grade_rejected(self):
        gt = mk_map([mk(box(0, 3, 0, 3, 0, 1), grade=Grade.GS34)])
        pred = mk_map([])
        with pytest.raises(ValueError):
            froc_by_grade([(pred, gt)], Grade.GS8)


class TestSensitivityAtFp:
    def _curve(self, pts):
        return FrocCurve(
            tuple(FrocPoint(*p) for p in pts), n_patients=5, n_gt_lesions=10
        )

    def test_step_rule(self):
        c = self._curve([(0.2, 1.2, 0.7), (0.5, 0.9, 0.6)])
        assert sensitivity_at_fp(c, 1.0) == 0.6

    def test_query_beyond_max_fp(self):
        c = self._curve([(0.2, 1.2, 0.7), (0.5, 0.9, 0.6)])
        assert sensitivity_at_fp(c, 50.0) == 0.7

    def test_query_below_min_fp(self):
        c = self._curve([(0.2, 1.2, 0.7), (0.5, 0.9, 0.6)])
        assert sensitivity_at_fp(c, 0.1) == 0.0

    def test_negative_rejected(self):
        c = self._curve([(0.2, 1.0, 0.5)])
        with pytest.raises(ValueError):
            sensitivity_at_fp(c, -0.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), q=st.floats(0, 5))
    def test_matches_scan_oracle_and_monotone(self, seed, q):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        thr = np.sort(rng.uniform(0, 1, size=n))
        sens = np.sort(rng.uniform(0, 1, size=n))[::-1]
        fp = np.sort(rng.uniform(0, 4, size=n))[::-1]
        c = self._curve(list(zip(thr, fp, sens)))
        want = max((s for t, f, s in zip(thr, fp, sens) if f <= q), default=0.0)
        assert sensitivity_at_fp(c, q) == want
        assert sensitivity_at_fp(c, q + 0.5) >= sensitivity_at_fp(c, q)


def rec(gt, pred, pid="p0", fold=0, score=0.8):
    return DetectionRecord(pid, fold, "PZ", gt, pred, score, 0.9, 0.5)


class TestConfusionMatrix:
    def test_diagonal_when_all_correct(self):
        records = [rec(g, g) for g in Grade for _ in range(3)]
        cm = confusion_matrix(records)
        assert cm.as_array().tolist() == (np.eye(4, dtype=int) * 3).tolist()

    def test_missed_lesions_excluded_in_tp_variant(self):
        records = [rec(Grade.GS8, Grade.GS8), rec(Grade.GS8, MISSED)]
        cm = confusion_matrix(records, include_fn_as_gs6=False)
        assert cm.total == 1
        assert cm.counts[3][3] == 1

    def test_missed_lesions_in_gs6_column(self):
        records = [rec(Grade.GS8, Grade.GS8), rec(Grade.GS8, MISSED)]
        cm = confusion_matrix(records, include_fn_as_gs6=True)
        assert cm.counts[3][0] == 1  # (GS>=8 row, GS6 column)
        assert cm.counts[3][3] == 1

    def test_fn_variant_row_sums_are_total_gt_counts(self):
        rng = np.random.default_rng(7)
        records = []
        want = [0, 0, 0, 0]
        for _ in range(60):
            g = Grade(int(rng.integers(2, 6)))
            want[g.ordinal] += 1
            p = MISSED if rng.random() < 0.4 else Grade(int(rng.integers(2, 6)))
            records.append(rec(g, p))
        cm = confusion_matrix(records, include_fn_as_gs6=True)
        assert [sum(row) for row in cm.counts] == want
        tp_only = confusion_matrix(records, include_fn_as_gs6=False)
        detected = [0, 0, 0, 0]
        for r in records:
            if r.pred_grade != MISSED:
                detected[r.gt_grade.ordinal] += 1
        assert [sum(row) for row in tp_only.counts] == detected

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(((1, 2), (3, 4)), False)
        with pytest.raises(ValueError):
            ConfusionMatrix(tuple(tuple([-1] + [0] * 3) for _ in range(4)), False)


class TestKappa:
    def test_perfect_diagonal_is_exactly_one(self):
        cm = ConfusionMatrix(((5, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 7)), False)
        assert quadratic_weighted_kappa(cm).kappa == 1.0

    def test_half_gs8_predicted_gs6(self):
        counts = ((10, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (10, 0, 0, 0))
        got = quadratic_weighted_kappa(ConfusionMatrix(counts, False)).kappa
        assert got == pytest.approx(kappa_oracle(counts), abs=1e-12)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            counts = rng.integers(0, 30, size=(4, 4))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(tuple(tuple(int(v) for v in r) for r in counts), False)
            got = quadratic_weighted_kappa(cm).kappa
            assert got == pytest.approx(kappa_oracle(counts), abs=1e-12)
            assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    def test_single_diagonal_cell_degenerate(self):
        cm = ConfusionMatrix(((0, 0, 0, 0), (0, 9, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), False)
        res = quadratic_weighted_kappa(cm)
        assert res.kappa == 1.0
        assert res.degenerate

    def test_scaling_invariance_exact(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 12, size=(4, 4))
        counts[0, 1] += 1  # ensure non-degenerate
        cm1 = ConfusionMatrix(tuple(tuple(int(v) for v in r) for r in counts), False)
        cm7 = ConfusionMatrix(tuple(tuple(int(v) * 7 for v in r) for r in counts), False)
        assert quadratic_weighted_kappa(cm1).kappa == quadratic_weighted_kappa(cm7).kappa

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(tuple(tuple([0] * 4) for _ in range(4)), False)
        with pytest.raises(ValueError):
            quadratic_weighted_kappa(cm)


class TestBootstrapKappa:
    def test_identical_records_zero_std(self):
        records = [rec(Grade.GS34, Grade.GS34), rec(Grade.GS43, Grade.GS43)] * 5
        res = bootstrap_kappa(records, n_iter=50, seed=3)
        assert res.bootstrap_std == 0.0
        assert res.bootstrap_mean == 1.0
        assert res.kappa == 1.0

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(4)
        records = [
            rec(Grade(int(rng.integers(2, 6))), Grade(int(rng.integers(2, 6))))
            for _ in range(25)
        ]
        a = bootstrap_kappa(records, n_iter=200, seed=42)
        b = bootstrap_kappa(records, n_iter=200, seed=42)
        assert (a.bootstrap_mean, a.bootstrap_std) == (b.bootstrap_mean, b.bootstrap_std)
        c = bootstrap_kappa(records, n_iter=200, seed=43)
        assert (a.bootstrap_mean, a.bootstrap_std) != (c.bootstrap_mean, c.bootstrap_std)

    def test_two_record_enumeration(self):
        r1 = rec(Grade.GS6, Grade.GS6)
        r2 = rec(Grade.GS8, Grade.GS6)
        # the four equiprobable resamples: (r1,r1) (r1,r2) (r2,r1) (r2,r2)
        enum = [
            quadratic_weighted_kappa(confusion_matrix(pair)).kappa
            for pair in [(r1, r1), (r1, r2), (r2, r1), (r2, r2)]
        ]
        res = bootstrap_kappa([r1, r2], n_iter=4000, seed=9)
        # every iteration's kappa must be one of the enumerated values and
        # the empirical mean must approach the enumeration mean
        expect_mean = float(np.mean(enum))
        expect_std = float(np.std(enum))
        assert abs(res.bootstrap_mean - expect_mean) < 4 * expect_std / np.sqrt(4000) + 1e-9

    def test_patient_resampling_mode(self):
        records = [
            rec(Grade.GS34, Grade.GS34, pid="a"),
            rec(Grade.GS43, Grade.GS6, pid="a"),
            rec(Grade.GS8, Grade.GS8, pid="b"),
        ]
        res = bootstrap_kappa(records, n_iter=100, seed=5, resample="patient")
        assert res.n_iterations == 100
        with pytest.raises(ValueError):
            bootstrap_kappa(records, resample="fold")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_kappa([], n_iter=10, seed=0)

    @pytest.mark.parametrize("n_iter", [0, -3])
    def test_no_iterations_rejected(self, n_iter):
        with pytest.raises(ValueError, match="iteration"):
            bootstrap_kappa([rec(Grade.GS6, Grade.GS6)], n_iter=n_iter, seed=0)



# Reference: the per-iteration bootstrap as first written, with its own
# copies of the confusion matrix and kappa so that a change to either in
# the package shows up as a difference.


def _ref_confusion_matrix(records, include_fn_as_gs6=False):
    counts = [[0] * 4 for _ in range(4)]
    for r in records:
        gi = r.gt_grade.ordinal
        if r.pred_grade == MISSED:
            if include_fn_as_gs6:
                counts[gi][Grade.GS6.ordinal] += 1
            continue
        counts[gi][r.pred_grade.ordinal] += 1
    return ConfusionMatrix(tuple(tuple(r) for r in counts), include_fn_as_gs6)


def _ref_quadratic_weighted_kappa(cm):
    if cm.total <= 0:
        raise ValueError("kappa needs a populated matrix")
    o = cm.counts
    n = cm.total
    rows = [sum(row) for row in o]
    cols = [sum(row[j] for row in o) for j in range(4)]
    obs = sum(o[i][j] * (i - j) ** 2 for i in range(4) for j in range(4))
    exp = sum(rows[i] * cols[j] * (i - j) ** 2 for i in range(4) for j in range(4))
    if exp == 0:
        return KappaResult(kappa=1.0 if obs == 0 else 0.0, degenerate=True)
    return KappaResult(kappa=1.0 - (n * obs) / exp)


def _ref_bootstrap_kappa(records, n_iter=1000, seed=0, include_fn_as_gs6=False,
                         resample="lesion"):
    recs = list(records)
    if not recs:
        raise ValueError("bootstrap needs at least one record")
    if resample not in ("lesion", "patient"):
        raise ValueError(f"resample must be 'lesion' or 'patient', got {resample!r}")
    point = _ref_quadratic_weighted_kappa(_ref_confusion_matrix(recs, include_fn_as_gs6))
    groups = None
    if resample == "patient":
        by_patient = {}
        for r in recs:
            by_patient.setdefault(r.patient_id, []).append(r)
        groups = [by_patient[k] for k in sorted(by_patient)]
    values = np.empty(n_iter, dtype=np.float64)
    streams = np.random.SeedSequence(seed).spawn(n_iter)
    for it in range(n_iter):
        rng = np.random.Generator(np.random.Philox(streams[it]))
        if groups is None:
            idx = rng.integers(0, len(recs), size=len(recs))
            sample = [recs[i] for i in idx]
        else:
            idx = rng.integers(0, len(groups), size=len(groups))
            sample = [r for i in idx for r in groups[i]]
        cm = _ref_confusion_matrix(sample, include_fn_as_gs6)
        if cm.total == 0:
            values[it] = 0.0
            continue
        values[it] = _ref_quadratic_weighted_kappa(cm).kappa
    return KappaResult(
        kappa=point.kappa,
        degenerate=point.degenerate,
        bootstrap_mean=float(values.mean()),
        bootstrap_std=float(values.std()),
        n_iterations=n_iter,
    )


def _outcome(fn, *args, **kwargs):
    """A KappaResult as a tuple with its floats as hex strings (bitwise
    comparison), or the error it raised."""
    try:
        res = fn(*args, **kwargs)
    except ValueError as e:
        return ("error", str(e))
    floats = (res.kappa, res.bootstrap_mean, res.bootstrap_std)
    return (*(float(v).hex() for v in floats), res.degenerate, res.n_iterations)


#: Patient ids whose first-appearance order is not their sorted order.
_PIDS = ("p2", "p10", "a", "p1")
_PRED_GRADES = (*Grade, MISSED, MISSED)

_records = st.lists(
    st.tuples(st.sampled_from(_PIDS), st.sampled_from(tuple(Grade)),
              st.sampled_from(_PRED_GRADES)),
    min_size=1, max_size=24,
).map(lambda rows: [rec(g, p, pid=pid) for pid, g, p in rows])


def _recs(*rows):
    return [rec(g, p, pid=pid) for pid, g, p in rows]


class TestBootstrapMatchesReference:
    """The table-based bootstrap against the per-iteration reference: every
    field equal, the floats bitwise."""

    @settings(max_examples=250, deadline=None)
    @given(
        records=_records,
        n_iter=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        include_fn=st.booleans(),
        resample=st.sampled_from(("lesion", "patient")),
    )
    @example(records=_recs(("p1", Grade.GS34, Grade.GS43)), n_iter=1, seed=0,
             include_fn=False, resample="lesion")
    @example(records=_recs(("p1", Grade.GS8, MISSED)), n_iter=5, seed=1,
             include_fn=True, resample="patient")
    # TP-only: most draws of these records hold only missed lesions
    @example(records=_recs(("p2", Grade.GS6, MISSED), ("p10", Grade.GS8, MISSED),
                           ("a", Grade.GS43, MISSED), ("p1", Grade.GS34, Grade.GS8)),
             n_iter=40, seed=3, include_fn=False, resample="patient")
    # exp == 0 in every draw that holds a detected lesion: they all sit in
    # one diagonal cell
    @example(records=_recs(("p2", Grade.GS43, Grade.GS43), ("a", Grade.GS43, Grade.GS43),
                           ("p1", Grade.GS6, MISSED)),
             n_iter=30, seed=5, include_fn=False, resample="lesion")
    # uneven patients given out of sorted order
    @example(records=_recs(("p2", Grade.GS6, Grade.GS6), ("p10", Grade.GS8, Grade.GS6),
                           ("p10", Grade.GS8, MISSED), ("p10", Grade.GS34, Grade.GS43),
                           ("a", Grade.GS43, Grade.GS43), ("p2", Grade.GS6, MISSED),
                           ("p1", Grade.GS8, Grade.GS8)),
             n_iter=40, seed=7, include_fn=True, resample="patient")
    def test_equals_reference(self, records, n_iter, seed, include_fn, resample):
        kwargs = dict(n_iter=n_iter, seed=seed, include_fn_as_gs6=include_fn,
                      resample=resample)
        assert _outcome(bootstrap_kappa, records, **kwargs) == \
            _outcome(_ref_bootstrap_kappa, records, **kwargs)


def _numpy_draws(seed, n_iter, n_units):
    """Each iteration's draws from its own live generator."""
    return np.array([
        np.random.Generator(np.random.Philox(child)).integers(0, n_units, size=n_units)
        for child in np.random.SeedSequence(seed).spawn(n_iter)
    ]).reshape(n_iter, n_units)


def _bulk_draws(seed, n_iter, n_units):
    blocks = list(metrics._bootstrap_draws(seed, n_iter, n_units))
    assert [start for start, _ in blocks] == list(
        range(0, n_iter, max(1, metrics._BLOCK_DRAWS // n_units)))
    return np.concatenate([idx for _, idx in blocks])


class TestBulkDraws:
    """The bulk draws against numpy's per-iteration generators: equal
    arrays, for seeds of one to five 32-bit words, unit counts around
    powers of two, and iteration counts around the block size."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130])
    @pytest.mark.parametrize("n_units", [1, 2, 3, 160, 255, 256, 257, 4016])
    def test_equals_numpy(self, monkeypatch, seed, n_units):
        # a small block keeps the reference loop short; the blocking logic
        # does not depend on the constant
        monkeypatch.setattr(metrics, "_BLOCK_DRAWS", 1024)
        block = max(1, 1024 // n_units)
        for n_iter in sorted({1, block - 1, block, block + 1} - {0}):
            np.testing.assert_array_equal(
                _bulk_draws(seed, n_iter, n_units), _numpy_draws(seed, n_iter, n_units))

    def test_equals_numpy_at_the_real_block_size(self):
        n_units = 160
        n_iter = metrics._BLOCK_DRAWS // n_units + 1
        np.testing.assert_array_equal(
            _bulk_draws(7, n_iter, n_units), _numpy_draws(7, n_iter, n_units))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200 + 1])
    @pytest.mark.parametrize("n_iter", [0, 1, 1000])
    def test_spawn_keys_equal_numpy_children(self, seed, n_iter):
        """Seeds of one to seven 32-bit words: past the 4-word pool, each
        extra seed word advances the hash multiplier the spawn index uses."""
        want = [c.generate_state(2, np.uint64)
                for c in np.random.SeedSequence(seed).spawn(n_iter)]
        keys = metrics._spawn_keys(seed, n_iter)
        assert keys.shape == (n_iter, 2) and keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, np.array(want, dtype=np.uint64).reshape(n_iter, 2))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bootstrap_kappa([rec(Grade.GS6, Grade.GS6)], n_iter=1, seed=-1)

    def test_rejected_draw_takes_the_fallback(self):
        """At seed 0 and 4016 units, numpy rejects a draw in iterations 72
        and 119 and draws again, which shifts every later draw of those
        rows; the bulk rows still equal numpy's."""
        seed, n_iter, n_units = 0, 400, 4016
        want = _numpy_draws(seed, n_iter, n_units)
        np.testing.assert_array_equal(_bulk_draws(seed, n_iter, n_units), want)

    def test_rejected_draw_kappa_equals_reference(self):
        pids = ("p2", "p10", "a", "p1")
        grades = tuple(Grade)
        preds = (*Grade, MISSED)
        records = [
            rec(grades[i % 4], preds[(i * 7 // 3) % 5], pid=pids[(i // 5) % 4])
            for i in range(4016)
        ]
        kwargs = dict(n_iter=400, seed=0, include_fn_as_gs6=True, resample="lesion")
        assert _outcome(bootstrap_kappa, records, **kwargs) == \
            _outcome(_ref_bootstrap_kappa, records, **kwargs)


class TestDice:
    def _vol(self, mask):
        return Volume(np.asarray(mask, dtype=np.uint8), SPACING, KIND_LABEL)

    def test_identical_masks(self):
        m = np.zeros((2, 4, 4))
        m[0, :2, :2] = 1
        assert dice_coefficient(self._vol(m), self._vol(m)) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((1, 4, 4))
        b = np.zeros((1, 4, 4))
        a[0, 0, 0] = 1
        b[0, 3, 3] = 1
        assert dice_coefficient(self._vol(a), self._vol(b)) == 0.0

    def test_half_overlap(self):
        a = np.zeros((1, 10, 20))
        b = np.zeros((1, 10, 20))
        a[0, :10, :10] = 1  # 100 voxels
        b[0, :10, 5:15] = 1  # 100 voxels, 50 shared
        assert dice_coefficient(self._vol(a), self._vol(b)) == 0.5

    def test_both_empty_is_one(self):
        z = self._vol(np.zeros((1, 4, 4)))
        assert dice_coefficient(z, z) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = self._vol(rng.random((2, 6, 6)) < 0.4)
            b = self._vol(rng.random((2, 6, 6)) < 0.4)
            d1 = dice_coefficient(a, b)
            assert d1 == dice_coefficient(b, a)
            assert 0.0 <= d1 <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_any_nonzero_code_is_foreground(self, seed):
        # multi-code label volumes: a voxel counts when its code is nonzero,
        # whatever the two codes are (2 and 1 share no bit)
        rng = np.random.default_rng(seed)
        a, b = (rng.choice(6, size=(2, 5, 6), p=[0.4, 0.12, 0.12, 0.12, 0.12, 0.12])
                for _ in range(2))
        na, nb, inter = int((a != 0).sum()), int((b != 0).sum()), int(((a != 0) & (b != 0)).sum())
        want = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
        got = dice_coefficient(self._vol(a), self._vol(b))
        assert type(got) is float and got == want

    def test_grid_mismatch(self):
        a = self._vol(np.zeros((1, 4, 4)))
        b = Volume(np.zeros((1, 4, 5), dtype=np.uint8), SPACING, KIND_LABEL)
        with pytest.raises(ValueError):
            dice_coefficient(a, b)


#: (x, y, float.hex of the one-sided p-value) for two samples that take the
#: normal approximation: 24 pairs with continuous scores, and 30 pairs of
#: eighths with 4 zero differences and heavily tied |d| (tie correction)
WILCOXON_PINNED = {
    "24-pairs": (
        [0.702, 0.751, 0.712, 0.542, 0.509, 0.625, 0.689, 0.661, 0.765, 0.68, 0.671, 0.561,
         0.531, 0.739, 0.624, 0.685, 0.51, 0.585, 0.517, 0.558, 0.692, 0.502, 0.577, 0.633],
        [0.527, 0.56, 0.562, 0.613, 0.545, 0.602, 0.585, 0.614, 0.598, 0.713, 0.527, 0.676,
         0.548, 0.503, 0.677, 0.545, 0.549, 0.469, 0.412, 0.631, 0.487, 0.642, 0.728, 0.571],
        "0x1.2648229e5ded4p-5",
    ),
    "30-pairs-tied": (
        [0.25, 0.375, 0.75, 0.5, 0.5, 0.25, 0.625, 0.625, 0.375, 0.75, 0.375, 0.875, 0.25,
         0.375, 0.75, 0.25, 0.25, 0.5, 0.75, 0.625, 0.375, 0.375, 0.375, 0.625, 0.75, 0.875,
         0.625, 0.5, 0.375, 0.5],
        [0.375, 0.625, 0.625, 0.5, 0.25, 0.625, 0.25, 0.5, 0.625, 0.75, 0.5, 0.125, 0.5, 0.5,
         0.5, 0.125, 0.25, 0.75, 0.125, 0.375, 0.125, 0.125, 0.125, 0.75, 0.375, 0.75, 0.5,
         0.25, 0.375, 0.25],
        "0x1.213519566a44dp-5",
    ),
}


class TestWilcoxon:
    def test_all_positive_n5_is_one_thirtysecond(self):
        x = [2.0, 3.0, 4.0, 5.0, 6.0]
        y = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert wilcoxon_one_sided(x, y) == 1.0 / 32.0

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if np.all(x == y):
                continue
            assert wilcoxon_one_sided(x, y) == pytest.approx(
                wilcoxon_enumeration_oracle(x, y), abs=1e-12
            )

    def test_ties_match_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            # small integers force tied |differences| and zero differences
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if np.all(x == y):
                continue
            assert wilcoxon_one_sided(x, y) == pytest.approx(
                wilcoxon_enumeration_oracle(x, y), abs=1e-12
            )

    def test_zero_differences_dropped(self):
        x = [1.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        y = [1.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        # first pair drops, leaving 5 strictly positive differences
        assert wilcoxon_one_sided(x, y) == 1.0 / 32.0

    def test_large_n_uses_close_approximation(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0.6, 1.0, size=24)
        y = rng.normal(0.0, 1.0, size=24)
        from lesionkit.metrics import _exact_tail_prob, _signed_ranks

        d = x - y
        d = d[d != 0]
        doubled = _signed_ranks(d)
        exact = _exact_tail_prob(doubled, int(doubled[d > 0].sum()))
        approx = wilcoxon_one_sided(x, y)
        assert abs(approx - exact) < 0.01

    @pytest.mark.parametrize("name", sorted(WILCOXON_PINNED))
    def test_normal_approximation_bits(self, name):
        x, y, expected = WILCOXON_PINNED[name]
        assert wilcoxon_one_sided(x, y).hex() == expected

    def test_negative_shift_gives_large_p(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0, 3.0, 4.0, 5.0, 6.0]
        assert wilcoxon_one_sided(x, y) == 1.0  # W+ = 0, tail covers all


class TestAggregateFolds:
    def _flat_curve(self, sens):
        return FrocCurve(
            (FrocPoint(0.5, 1.0, sens),), n_patients=3, n_gt_lesions=6
        )

    def test_identical_folds_zero_band(self):
        agg = aggregate_folds([self._flat_curve(0.7)] * 4, [1.0, 2.0])
        for p in agg:
            assert p.sens_mean == 0.7
            assert p.sens_lo == p.sens_hi == 0.7

    def test_two_fold_band(self):
        agg = aggregate_folds([self._flat_curve(0.6), self._flat_curve(0.8)], [1.5])
        (p,) = agg
        assert p.sens_mean == pytest.approx(0.7)
        assert p.sens_lo == pytest.approx(0.5)
        assert p.sens_hi == pytest.approx(0.9)

    def test_five_scripted_folds(self):
        vals = [0.5, 0.6, 0.7, 0.8, 0.9]
        agg = aggregate_folds([self._flat_curve(v) for v in vals], [2.0])
        (p,) = agg
        mean = sum(vals) / 5
        std = (sum((v - mean) ** 2 for v in vals) / 5) ** 0.5
        assert p.sens_mean == pytest.approx(mean)
        assert p.sens_lo == pytest.approx(mean - 2 * std)
        assert p.sens_hi == pytest.approx(mean + 2 * std)

    def test_errors(self):
        with pytest.raises(ValueError):
            aggregate_folds([self._flat_curve(0.5)], [1.0])
        with pytest.raises(ValueError):
            aggregate_folds([self._flat_curve(0.5)] * 2, [])
