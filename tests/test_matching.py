"""Detection matching rules, the best-Dice grading rule as the pipeline's
detection records apply it, and the point protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionkit.cluster import LesionMap, cs_lesion_maps, gs_lesion_maps
from lesionkit.grades import CS_BINARY, MISSED, Grade
from lesionkit.matching import DetectionRecord, match_detections, point_in_cluster_grade
from lesionkit.volume import KIND_LABEL, Volume

from lesion_builders import from_voxels, graded_records
from test_matching_reference import ref_dice

DIMS = (12, 12, 4)
SPACING = (1.0, 1.0, 3.0)


def box(x0, x1, y0, y1, z0, z1):
    return tuple(
        (x, y, z)
        for z in range(z0, z1)
        for y in range(y0, y1)
        for x in range(x0, x1)
    )


def mk(voxels, grade=Grade.GS34, score=0.9):
    return from_voxels(voxels, grade, len(voxels) * 3.0, score)


def mk_map(clusters):
    return LesionMap(tuple(clusters), DIMS, SPACING)


class TestMatchDetections:
    def test_exact_ten_percent_is_tp(self):
        gt = mk_map([mk(box(0, 2, 0, 2, 0, 1))])  # 4 voxels
        pred_vox = box(1, 2, 1, 2, 0, 1) + box(4, 7, 4, 7, 0, 1)  # 1 of 10 inside
        pred = mk_map([mk(pred_vox)])
        res = match_detections(pred, gt, overlap_frac=0.10)
        assert len(res.tp) == 1 and len(res.fp) == 0
        assert res.tp[0].overlap == pytest.approx(0.1)

    def test_nine_percent_is_fp(self):
        gt = mk_map([mk(box(0, 3, 0, 3, 0, 1))])  # 9 voxels
        inside = box(0, 3, 0, 3, 0, 1)[:9]
        pred_vox = tuple(inside[:9])  # will rebuild: 9 inside + 91 outside
        outside = [(x, y, z) for z in range(1, 4) for y in range(12) for x in range(12)]
        pred_vox = inside + tuple(outside[: 100 - 9])
        pred = mk_map([mk(pred_vox)])
        res = match_detections(pred, gt, overlap_frac=0.10)
        assert len(res.tp) == 0 and len(res.fp) == 1
        assert len(res.fn) == 1

    def test_zero_predictions_all_fn(self):
        gt = mk_map([mk(box(0, 2, 0, 2, 0, 1)), mk(box(5, 7, 5, 7, 0, 1), grade=Grade.GS8)])
        res = match_detections(mk_map([]), gt)
        assert len(res.tp) == 0
        assert len(res.fn) == 2
        assert res.sensitivity == 0.0

    def test_credit_goes_to_largest_intersection(self):
        g1 = mk(box(0, 2, 0, 2, 0, 1))  # pred intersects 4 of these voxels
        g2 = mk(box(0, 4, 2, 4, 0, 1), grade=Grade.GS43)  # pred intersects 8
        pred = mk(box(0, 2, 0, 4, 0, 1) + box(2, 4, 2, 4, 0, 1))
        res = match_detections(mk_map([pred]), mk_map([g1, g2]), overlap_frac=0.10)
        assert len(res.tp) == 1
        inter1 = len(frozenset(pred.voxels) & frozenset(g1.voxels))
        inter2 = len(frozenset(pred.voxels) & frozenset(g2.voxels))
        assert inter1 != inter2
        larger = g1 if inter1 > inter2 else g2
        assert res.tp[0].gt.voxels == larger.voxels
        assert len(res.fn) == 1  # the other lesion stays unmatched

    def test_duplicates_neither_tp_nor_fp_by_default(self):
        gt = mk_map([mk(box(0, 4, 0, 4, 0, 1))])
        p_hi = mk(box(0, 2, 0, 2, 0, 1), score=0.9)
        p_lo = mk(box(2, 4, 2, 4, 0, 1), score=0.6)
        res = match_detections(mk_map([p_hi, p_lo]), gt)
        assert len(res.tp) == 1
        assert res.tp[0].pred.score == 0.9  # lesion keeps its best prediction
        assert len(res.fp) == 0
        assert len(res.duplicates) == 1

    def test_strict_mode_counts_duplicates_as_fp(self):
        gt = mk_map([mk(box(0, 4, 0, 4, 0, 1))])
        p_hi = mk(box(0, 2, 0, 2, 0, 1), score=0.9)
        p_lo = mk(box(2, 4, 2, 4, 0, 1), score=0.6)
        res = match_detections(mk_map([p_hi, p_lo]), gt, strict_duplicates=True)
        assert len(res.tp) == 1
        assert len(res.fp) == 1
        assert not res.duplicates

    def test_score_threshold_excludes_predictions(self):
        gt = mk_map([mk(box(0, 4, 0, 4, 0, 1))])
        pred = mk_map([mk(box(0, 2, 0, 2, 0, 1), score=0.4)])
        res = match_detections(pred, gt, score_threshold=0.5)
        assert len(res.tp) == 0
        assert len(res.fp) == 0
        assert len(res.fn) == 1

    def test_partition_accounting(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gt_cl, pred_cl = random_maps(rng)
            res = match_detections(mk_map(pred_cl), mk_map(gt_cl))
            assert len(res.tp) + len(res.fp) + len(res.duplicates) == len(pred_cl)
            assert len(res.tp) + len(res.fn) == len(gt_cl)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gt_cl, pred_cl = random_maps(rng)
            gt, pred = mk_map(gt_cl), mk_map(pred_cl)
            prev_tp, prev_fp = None, None
            for thr in (0.0, 0.3, 0.6, 0.9, 1.01):
                res = match_detections(pred, gt, score_threshold=thr)
                if prev_tp is not None:
                    assert len(res.tp) <= prev_tp
                    assert len(res.fp) <= prev_fp
                prev_tp, prev_fp = len(res.tp), len(res.fp)

    def test_overlap_frac_extremes(self):
        gt = mk_map([mk(box(0, 4, 0, 4, 0, 1))])
        barely = mk(box(3, 8, 3, 8, 0, 1))  # 1 of 25 voxels inside
        res_low = match_detections(mk_map([barely]), gt, overlap_frac=1e-9)
        assert len(res_low.tp) == 1
        res_full = match_detections(mk_map([barely]), gt, overlap_frac=1.0)
        assert len(res_full.tp) == 0
        contained = mk(box(1, 3, 1, 3, 0, 1))
        assert len(match_detections(mk_map([contained]), gt, overlap_frac=1.0).tp) == 1

    def test_denominator_variants(self):
        gt = mk_map([mk(box(0, 10, 0, 10, 0, 1))])  # 100 voxels
        pred = mk(box(0, 2, 0, 2, 0, 1))  # 4 voxels, fully inside
        # pred-denominator: 4/4 = 1.0 qualifies; gt-denominator: 4/100 < 0.10
        assert len(match_detections(mk_map([pred]), gt, denom="pred").tp) == 1
        assert len(match_detections(mk_map([pred]), gt, denom="gt").tp) == 0
        # union: 4 / 100 = 0.04 < 0.10
        assert len(match_detections(mk_map([pred]), gt, denom="union").tp) == 0
        with pytest.raises(ValueError):
            match_detections(mk_map([pred]), gt, denom="both")

    def test_grid_mismatch_rejected(self):
        gt = LesionMap((mk(box(0, 2, 0, 2, 0, 1)),), (8, 8, 4), SPACING)
        pred = mk_map([mk(box(0, 2, 0, 2, 0, 1))])
        with pytest.raises(ValueError):
            match_detections(pred, gt)

    def test_bad_overlap_frac(self):
        gt = mk_map([])
        with pytest.raises(ValueError):
            match_detections(mk_map([]), gt, overlap_frac=0.0)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_equal_intersections_credit_the_lesion_first_in_scan_order(self, mirror):
        gt = np.zeros((4, 12, 12), dtype=np.uint8)
        gt[0, 0:2, 0:2] = int(Grade.GS34)
        gt[0, 0:2, 4:6] = int(Grade.GS43)
        pred = np.zeros_like(gt)
        pred[0, 0:2, 1:5] = int(Grade.GS43)  # 2 voxels in each lesion
        if mirror:  # the GS4+3 lesion now comes first in scan order
            gt, pred = gt[:, :, ::-1], pred[:, :, ::-1]
        gt_map, pred_map = (gs_lesion_maps(Volume(np.ascontiguousarray(a), SPACING, KIND_LABEL),
                                           None) for a in (gt, pred))
        res = match_detections(pred_map, gt_map)
        first, second = (Grade.GS43, Grade.GS34) if mirror else (Grade.GS34, Grade.GS43)
        assert [t.intersection for t in res.tp] == [2]
        assert res.tp[0].gt.grade == first and res.tp[0].gt is gt_map.clusters[0]
        assert [c.grade for c in res.fn] == [second]


def random_maps(rng):
    """Small random disjoint GT and prediction cluster sets on DIMS."""

    def random_clusters(n, salt):
        used = set()
        out = []
        for k in range(n):
            x0 = int(rng.integers(0, 9))
            y0 = int(rng.integers(0, 9))
            z0 = int(rng.integers(0, 3))
            vox = tuple(
                v
                for v in box(x0, x0 + int(rng.integers(1, 4)), y0, y0 + int(rng.integers(1, 4)), z0, z0 + 1)
                if v not in used
            )
            if not vox:
                continue
            used.update(vox)
            out.append(mk(vox, score=float(rng.uniform(0.1, 1.0))))
        return out

    return random_clusters(int(rng.integers(0, 4)), 0), random_clusters(int(rng.integers(0, 4)), 1)


class TestBestDiceAssignment:
    """The grade of each lesion, read from the DetectionRecords that the
    pipeline builds: the highest-Dice qualifying cluster grades it, and ties
    break toward the larger intersection, then the lower grade code.  Each
    case stages the clusters in both map orders, so that the rule picks,
    not the order; the scores differ, so a record's score names its pick."""

    def _graded(self, gt, cands, **cfg):
        """The record of the one lesion gt, the same under both orders."""
        (first,), (second,) = (graded_records(mk_map(order), mk_map([gt]), **cfg)
                               for order in (cands, cands[::-1]))
        assert first == second
        return first

    def test_single_candidate(self):
        gt = mk(box(0, 3, 0, 3, 0, 1))
        cand = mk(box(1, 3, 1, 3, 0, 1), grade=Grade.GS43, score=0.7)
        r = self._graded(gt, [cand])
        assert (r.gt_grade, r.pred_grade, r.score) == (Grade.GS34, Grade.GS43, 0.7)
        assert (r.dice, r.overlap_frac) == (8 / 13, 1.0)

    def test_prefers_higher_dice(self):
        gt = mk(box(0, 4, 0, 4, 0, 1))  # 16 voxels
        good = mk(box(0, 4, 0, 3, 0, 1), score=0.6)  # 12 voxels inside, dice 2*12/28
        poor = mk(box(3, 5, 3, 5, 0, 1), grade=Grade.GS8, score=0.95)  # 1 of 4 inside
        r = self._graded(gt, [poor, good])
        assert (r.pred_grade, r.score, r.dice) == (Grade.GS34, 0.6, 24 / 28)

    def test_tie_breaks_on_intersection_then_grade(self):
        gt = mk(box(0, 4, 0, 2, 0, 1))  # 8 voxels
        # dice 2*2/(4+8) against 2*3/(10+8): both 1/3, as floats too; the
        # larger intersection wins over the lower grade code
        small = mk(box(0, 2, 0, 1, 0, 1) + box(0, 2, 5, 6, 0, 1), grade=Grade.GS34, score=0.6)
        large = mk(box(2, 4, 0, 1, 0, 1) + ((2, 1, 0),) + box(5, 12, 8, 9, 0, 1),
                   grade=Grade.GS8, score=0.7)
        r = self._graded(gt, [small, large])
        assert (r.pred_grade, r.score, r.dice) == (Grade.GS8, 0.7, 1 / 3)
        # both candidates: dice = 2*4/(8+8) = 0.5, intersection 4
        a = mk(box(0, 2, 0, 2, 0, 1) + box(6, 10, 6, 7, 0, 1), grade=Grade.GS43, score=0.6)
        b = mk(box(2, 4, 0, 2, 0, 1) + box(6, 10, 8, 9, 0, 1), grade=Grade.GS34, score=0.7)
        r = self._graded(gt, [a, b])
        assert (r.pred_grade, r.score, r.dice) == (Grade.GS34, 0.7, 0.5)  # lower grade code

    def test_only_qualifying_clusters_grade(self):
        gt = mk(box(0, 4, 0, 4, 0, 1))  # 16 voxels
        qualifying = mk(box(0, 2, 0, 1, 0, 1), grade=Grade.GS6, score=0.6)  # dice 4/18
        # 6 of 13 voxels inside: below the 50% rule, though its dice is 12/29
        short = mk(box(0, 3, 2, 4, 0, 1) + box(0, 7, 6, 7, 0, 1), grade=Grade.GS8, score=0.7)
        r = self._graded(gt, [qualifying, short], overlap_frac=0.5)
        assert (r.pred_grade, r.score, r.dice) == (Grade.GS6, 0.6, 4 / 18)
        r = self._graded(gt, [short], overlap_frac=0.5)
        assert (r.pred_grade, r.score, r.dice, r.overlap_frac) == (MISSED, 0.0, 0.0, 0.0)

    def test_one_cluster_grades_each_lesion_it_qualifies_for(self):
        lesions = [mk(box(0, 2, 0, 2, 0, 1)), mk(box(3, 5, 0, 2, 0, 1), grade=Grade.GS8),
                   mk(box(8, 10, 8, 10, 0, 1), grade=Grade.GS6)]
        bridge = mk(box(1, 4, 0, 2, 0, 1), grade=Grade.GS43, score=0.8)
        records = graded_records(mk_map([bridge]), mk_map(lesions))
        assert [(r.gt_grade, r.pred_grade, r.score) for r in records] == [
            (Grade.GS34, Grade.GS43, 0.8), (Grade.GS8, Grade.GS43, 0.8),
            (Grade.GS6, MISSED, 0.0)]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(33)
        gt = mk(box(2, 7, 2, 7, 0, 2))
        gt_voxels = frozenset(gt.voxels)
        for _ in range(25):
            cands, used = [], set()
            for k in range(int(rng.integers(1, 5))):
                x0 = int(rng.integers(0, 6))
                y0 = int(rng.integers(0, 6))
                vox = tuple(v for v in box(x0, x0 + int(rng.integers(2, 5)),
                                           y0, y0 + int(rng.integers(2, 5)), 0, 2)
                            if v not in used)
                if vox:
                    used.update(vox)
                    cands.append(mk(vox, grade=Grade(int(rng.integers(2, 6))),
                                    score=0.5 + 0.1 * k))
            qualifying = [c for c in cands
                          if len(frozenset(c.voxels) & gt_voxels) >= 0.1 * c.n_voxels]
            r = self._graded(gt, cands)
            if not qualifying:
                assert r.pred_grade == MISSED
                continue
            best = max(
                qualifying,
                key=lambda c: (
                    ref_dice(frozenset(c.voxels), gt_voxels),
                    len(frozenset(c.voxels) & gt_voxels),
                    -int(c.grade),
                ),
            )
            assert (r.pred_grade, r.score) == (best.grade, best.score)
            assert r.dice == ref_dice(frozenset(best.voxels), gt_voxels)


class TestPointProtocol:
    def _label_volume(self, lab):
        return Volume(np.asarray(lab, dtype=np.uint8), SPACING, KIND_LABEL)

    def test_uncovered_point_reads_gs6(self):
        lab = np.zeros((4, 12, 12), dtype=np.uint8)
        labels = self._label_volume(lab)
        cs = cs_lesion_maps(labels, None, 26)
        assert point_in_cluster_grade((5, 5, 1), cs, labels) == Grade.GS6

    def test_modal_grade_of_containing_cluster(self):
        lab = np.zeros((4, 12, 12), dtype=np.uint8)
        lab[0, 0, 0:6] = 4  # 6 voxels GS4+3
        lab[0, 1, 0:4] = 3  # 4 voxels GS3+4, touching
        labels = self._label_volume(lab)
        cs = cs_lesion_maps(labels, None, 26)
        assert len(cs) == 1
        assert point_in_cluster_grade((0, 1, 0), cs, labels) == Grade.GS43

    def test_modal_tie_goes_to_higher_grade(self):
        lab = np.zeros((4, 12, 12), dtype=np.uint8)
        lab[0, 0, 0:3] = 3
        lab[0, 1, 0:3] = 5
        labels = self._label_volume(lab)
        cs = cs_lesion_maps(labels, None, 26)
        assert point_in_cluster_grade((1, 0, 0), cs, labels) == Grade.GS8

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            lab = np.zeros((4, 12, 12), dtype=np.uint8)
            blob = (rng.random((2, 5, 5)) < 0.7).astype(np.uint8)
            grades = rng.integers(3, 6, size=blob.shape, dtype=np.uint8)
            lab[1:3, 2:7, 2:7] = blob * grades
            labels = self._label_volume(lab)
            cs = cs_lesion_maps(labels, None, 26)
            for c in cs.clusters:
                x, y, z = c.voxels[0]
                got = point_in_cluster_grade((x, y, z), cs, labels)
                counts = {g: 0 for g in Grade}
                for (vx, vy, vz) in c.voxels:
                    counts[Grade(int(lab[vz, vy, vx]))] += 1
                want = max(counts, key=lambda g: (counts[g], int(g)))
                assert got == want

    def test_out_of_grid_point_rejected(self):
        lab = np.zeros((4, 12, 12), dtype=np.uint8)
        labels = self._label_volume(lab)
        cs = cs_lesion_maps(labels, None, 26)
        with pytest.raises(ValueError):
            point_in_cluster_grade((12, 0, 0), cs, labels)


class TestDetectionRecord:
    def test_missed_sentinel_accepted(self):
        DetectionRecord("p1", 0, "PZ", Grade.GS34, MISSED, 0.0, 0.0, 0.0)

    def test_bad_pred_grade_rejected(self):
        with pytest.raises(ValueError):
            DetectionRecord("p1", 0, "PZ", Grade.GS34, "GS7", 0.5, 0.5, 0.5)
