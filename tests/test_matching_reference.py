"""Differential tests: detection matching, best-Dice grading, the staged
detection records and the cohort FROC curves against a brute-force
reference.

The reference intersects frozensets of voxels for every (prediction,
lesion) pair, written out in full here so the package's intersection code
is checked against something that shares none of it.  Random clusters are
arbitrary disjoint voxel sets on a tiny grid, so predictions that span two
lesions, several predictions on one lesion (duplicates) and overlaps that
land exactly on the threshold all occur; the explicit examples pin each.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionkit.cluster import MAP_GS, LesionCluster, LesionMap
from lesionkit.evaluation import EvaluationConfig, PatientEval, aggregate_stages, stage_cohort
from lesionkit.grades import GRADE_ORDER, MISSED
from lesionkit.matching import OVERLAP_DENOMS, best_dice_assignment, match_detections
from lesionkit.volume import KIND_LABEL, ProbStack, Volume

DIMS = (4, 3, 2)  # (nx, ny, nz)
N_VOX = DIMS[0] * DIMS[1] * DIMS[2]
SCORES = (0.25, 0.5, 0.75, 1.0)
# every one is hit exactly by some intersection/size ratio on this grid
FRACS = (0.1, 0.25, 1 / 3, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Reference


def ref_overlap(inter, p, g, denom):
    if denom == "pred":
        return inter / p.n_voxels
    if denom == "gt":
        return inter / g.n_voxels
    return inter / (p.n_voxels + g.n_voxels - inter)


def ref_dice(a, b):
    return 2.0 * len(a & b) / (len(a) + len(b))


def ref_match(pred, gt, overlap_frac, denom, strict_duplicates):
    order = sorted(
        pred.clusters,
        key=lambda c: (-c.score, c.voxels[0][2], c.voxels[0][1], c.voxels[0][0]),
    )
    claimed = [False] * len(gt.clusters)
    tp, fp, dup = [], [], []
    for p in order:
        ps = frozenset(p.voxels)
        best = None
        for gi, g in enumerate(gt.clusters):
            inter = len(ps & frozenset(g.voxels))
            if inter and ref_overlap(inter, p, g, denom) >= overlap_frac:
                if best is None or inter > best[0]:
                    best = (inter, gi)
        if best is None:
            fp.append(p)
        elif claimed[best[1]]:
            (fp if strict_duplicates else dup).append(p)
        else:
            inter, gi = best
            claimed[gi] = True
            g = gt.clusters[gi]
            tp.append((p, g, inter, ref_overlap(inter, p, g, denom),
                       ref_dice(ps, frozenset(g.voxels))))
    fn = [g for gi, g in enumerate(gt.clusters) if not claimed[gi]]
    return tp, fp, fn, dup


def ref_best(gt, cands):
    gs = frozenset(gt.voxels)

    def key(c):
        cs = frozenset(c.voxels)
        return (ref_dice(cs, gs), len(cs & gs), -int(c.grade))

    return max(cands, key=key)


def ref_records(stage, cfg):
    out = []
    for lesion in stage.gs_gt.clusters:
        ls = frozenset(lesion.voxels)
        cands = [
            c for c in stage.gs_pred.clusters
            if len(frozenset(c.voxels) & ls)
            and ref_overlap(len(frozenset(c.voxels) & ls), c, lesion, cfg.overlap_denom)
            >= cfg.overlap_frac
        ]
        if not cands:
            out.append((lesion.grade, MISSED, 0.0, 0.0, 0.0))
            continue
        best = ref_best(lesion, cands)
        inter = len(frozenset(best.voxels) & ls)
        out.append((lesion.grade, best.grade, best.score, ref_dice(frozenset(best.voxels), ls),
                    ref_overlap(inter, best, lesion, cfg.overlap_denom)))
    return out


ABOVE_MAX = float(np.nextafter(1.0, 2.0))


def ref_curve(pairs, overlap_frac, denom, strict_duplicates):
    """(points, n_gt) of the FROC over per-patient (pred, gt) maps, or None
    without ground-truth lesions.  Every threshold re-matches each patient
    from scratch on the predictions scoring at or above it."""
    n_gt = sum(len(gt.clusters) for _, gt in pairs)
    if n_gt == 0:
        return None
    scores = {c.score for pred, _ in pairs for c in pred.clusters}
    points = []
    for thr in sorted(scores | {0.0, ABOVE_MAX}):
        n_tp = n_fp = 0
        for pred, gt in pairs:
            kept = replace(pred, clusters=tuple(c for c in pred.clusters if c.score >= thr))
            tp, fp, _, _ = ref_match(kept, gt, overlap_frac, denom, strict_duplicates)
            n_tp += len(tp)
            n_fp += len(fp)
        points.append((thr, n_fp / len(pairs), n_tp / n_gt))
    return points, n_gt


def ref_only_grade(m, grade):
    return replace(m, clusters=tuple(c for c in m.clusters if c.grade == grade))


# ---------------------------------------------------------------------------
# Inputs


def _voxel(i):
    nx, ny, _ = DIMS
    return (i % nx, (i // nx) % ny, i // (nx * ny))


def lesion_map(ids, scores, grades):
    """Clusters from a per-voxel id list in scan order; id 0 is background."""
    groups = {}
    for i, k in enumerate(ids):
        if k:
            groups.setdefault(k, []).append(_voxel(i))
    clusters = tuple(
        LesionCluster(voxels=tuple(vs), grade=GRADE_ORDER[grades[k - 1]],
                      volume_mm3=float(len(vs)), score=SCORES[scores[k - 1]])
        for k, vs in sorted(groups.items())
    )
    return LesionMap(clusters, DIMS, (1.0, 1.0, 1.0), MAP_GS)


ids = st.lists(st.integers(0, 4), min_size=N_VOX, max_size=N_VOX)
picks = st.lists(st.integers(0, 3), min_size=4, max_size=4)

# one prediction spanning two lesions, and a second prediction on the first
SPAN = (
    [1, 1, 1, 1, 2, 2, 3, 3, 0, 0, 0, 0] + [0] * 12,
    [1, 1, 0, 2, 1, 1, 1, 1, 0, 0, 0, 0] + [0] * 12,
)
# 1 voxel of a 10-voxel prediction on a lesion: exactly 10% under "pred"
AT_TEN_PERCENT = (
    [1] * 10 + [0] * 14,
    [0] * 9 + [1] * 3 + [0] * 12,
)


@settings(max_examples=300, deadline=None)
@given(pred_ids=ids, gt_ids=ids, scores=picks, grades=picks, gt_grades=picks,
       frac=st.sampled_from(FRACS), denom=st.sampled_from(OVERLAP_DENOMS),
       strict=st.booleans())
@example(pred_ids=SPAN[0], gt_ids=SPAN[1], scores=[3, 2, 1, 0], grades=[0, 1, 2, 3],
         gt_grades=[0, 1, 2, 3], frac=0.1, denom="pred", strict=False)
@example(pred_ids=SPAN[0], gt_ids=SPAN[1], scores=[3, 2, 1, 0], grades=[0, 1, 2, 3],
         gt_grades=[0, 1, 2, 3], frac=0.1, denom="union", strict=True)
@example(pred_ids=AT_TEN_PERCENT[0], gt_ids=AT_TEN_PERCENT[1], scores=[0, 0, 0, 0],
         grades=[0, 0, 0, 0], gt_grades=[0, 0, 0, 0], frac=0.1, denom="pred", strict=False)
def test_match_detections_matches_reference(pred_ids, gt_ids, scores, grades, gt_grades,
                                            frac, denom, strict):
    pred = lesion_map(pred_ids, scores, grades)
    gt = lesion_map(gt_ids, [3] * 4, gt_grades)
    got = match_detections(pred, gt, overlap_frac=frac, denom=denom, strict_duplicates=strict)
    tp, fp, fn, dup = ref_match(pred, gt, frac, denom, strict)
    assert [(t.pred, t.gt, t.intersection, t.overlap, t.dice) for t in got.tp] == tp
    assert list(got.fp) == fp
    assert list(got.fn) == fn
    assert list(got.duplicates) == dup
    for t in got.tp:  # bundles are JSON: no numpy scalars may leak out
        assert type(t.intersection) is int
        assert type(t.overlap) is float and type(t.dice) is float


@settings(max_examples=300, deadline=None)
@given(pred_ids=ids, gt_ids=ids, grades=picks)
@example(pred_ids=SPAN[0], gt_ids=SPAN[1], grades=[0, 1, 2, 3])
def test_best_dice_assignment_matches_reference(pred_ids, gt_ids, grades):
    pred = lesion_map(pred_ids, [0] * 4, grades)
    gt = lesion_map(gt_ids, [0] * 4, [0] * 4)
    for lesion in gt.clusters:
        cands = [c for c in pred.clusters if set(c.voxels) & set(lesion.voxels)]
        if cands:
            assert best_dice_assignment(lesion, cands) is ref_best(lesion, cands)


def _one_hot_probs(labels, score_idx):
    """Probabilities whose argmax is `labels`, with per-voxel winning
    probability drawn from a few values above 1/2."""
    winner = np.asarray([0.6, 0.7, 0.8, 0.9], dtype=np.float32)[score_idx]
    rest = (1.0 - winner) / 5.0
    data = np.broadcast_to(rest, (6,) + labels.shape).copy()
    np.put_along_axis(data, labels[None].astype(np.intp), winner[None], axis=0)
    return data


def _patient(pid, fold, gt_lab, pred_lab, score_idx):
    shape = (DIMS[2], DIMS[1], DIMS[0])
    gt = np.asarray(gt_lab, dtype=np.uint8).reshape(shape)
    pred = np.asarray(pred_lab, dtype=np.uint8).reshape(shape)
    probs = _one_hot_probs(pred, np.asarray(score_idx).reshape(shape))
    return PatientEval(
        patient_id=pid, fold=fold,
        labels=Volume(gt, (1.0, 1.0, 1.0), KIND_LABEL),
        probs=ProbStack(probs, (1.0, 1.0, 1.0)),
    )


grid_labels = st.lists(st.integers(0, 5), min_size=N_VOX, max_size=N_VOX)
grid_scores = st.lists(st.integers(0, 3), min_size=N_VOX, max_size=N_VOX)


@settings(max_examples=200, deadline=None)
@given(gt_lab=grid_labels, pred_lab=grid_labels, score_idx=grid_scores,
       frac=st.sampled_from(FRACS), denom=st.sampled_from(OVERLAP_DENOMS))
def test_staged_records_match_reference(gt_lab, pred_lab, score_idx, frac, denom):
    patient = _patient("p", 0, gt_lab, pred_lab, score_idx)
    cfg = EvaluationConfig(min_volume_mm3=0.0, overlap_frac=frac, overlap_denom=denom)
    (stage,) = stage_cohort([patient], cfg)
    got = [(r.gt_grade, r.pred_grade, r.score, r.dice, r.overlap_frac) for r in stage.records]
    assert got == ref_records(stage, cfg)
    for r in stage.records:
        assert type(r.dice) is float and type(r.overlap_frac) is float


def _curve_points(curve):
    if curve is None:
        return None
    return [(p.threshold, p.mean_fp_per_patient, p.sensitivity) for p in curve.points], \
        curve.n_gt_lesions


@settings(max_examples=20, deadline=None)
@given(cohort=st.lists(st.tuples(grid_labels, grid_labels, grid_scores), min_size=2, max_size=4))
def test_cohort_curves_match_reference(cohort):
    """Pooled CS, per-fold CS and per-grade curves of aggregate_stages, for
    every overlap rule, against full-scan curves of the reference matcher
    over a two-fold cohort."""
    patients = [_patient(f"p{i}", i % 2, *arrays) for i, arrays in enumerate(cohort)]
    for frac, denom, strict in itertools.product(FRACS, OVERLAP_DENOMS, (False, True)):
        cfg = EvaluationConfig(min_volume_mm3=0.0, overlap_frac=frac, overlap_denom=denom,
                               strict_duplicates=strict, bootstrap_iterations=1)
        stages = stage_cohort(patients, cfg)
        rule = (frac, denom, strict)
        pooled = ref_curve([(s.cs_pred, s.cs_gt) for s in stages], *rule)
        if pooled is None:
            with pytest.raises(ValueError):
                aggregate_stages(stages, cfg)
            continue
        report = aggregate_stages(stages, cfg)
        assert _curve_points(report.cs_froc) == pooled
        assert sorted(report.cs_froc_by_fold) == [0, 1]
        for f, curve in report.cs_froc_by_fold.items():
            fold = [(s.cs_pred, s.cs_gt) for s in stages if s.fold == f]
            assert _curve_points(curve) == ref_curve(fold, *rule)
        for g in GRADE_ORDER:
            graded = [(ref_only_grade(s.gs_pred, g), ref_only_grade(s.gs_gt, g)) for s in stages]
            assert _curve_points(report.grade_froc[g]) == ref_curve(graded, *rule)
