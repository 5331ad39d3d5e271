"""Synthetic-cohort generator: determinism, geometry guarantees, and exact
agreement between the ledger oracle and the clustering/matching pipeline."""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionkit import phantom
from lesionkit.cluster import (
    cs_lesion_maps,
    filter_by_volume,
    filter_by_zone,
    gs_lesion_maps,
)
from lesionkit.evaluation import EvaluationConfig, stage_cohort
from lesionkit.grades import CS_GRADES, GRADE_ORDER, MISSED, Grade
from lesionkit.matching import match_detections
from lesionkit.metrics import (
    ABOVE_MAX_SCORE,
    froc_by_grade,
    froc_curve,
    quadratic_weighted_kappa,
    ConfusionMatrix,
)
from lesionkit.netmath import label_from_probs
from lesionkit.phantom import (
    IDENTITY_TRANSITIONS,
    FpEntry,
    LesionEntry,
    PatientScript,
    PhantomConfig,
    PhantomLedger,
    PlacementError,
    ZONE_PZ,
    ZONE_TZ,
    degrade_prediction,
    generate_cohort,
    ledger_confusion,
    ledger_cs_gt_count,
    ledger_from_dict,
    ledger_froc_cs,
    ledger_froc_grade,
    ledger_grade_gt_count,
    ledger_to_dict,
    ledger_zone_subset,
    phantom_patient_evals,
    write_cohort,
)
from lesionkit.volume import json_chunks, read_volume


SMALL = PhantomConfig(
    seed=7,
    n_patients=6,
    dims=(48, 48, 12),
    lesions_per_grade=(2, 1, 1, 1),
    fp_per_patient=2,
    miss_fraction=0.3,
    misgrade=(
        (0.7, 0.3, 0.0, 0.0),
        (0.2, 0.6, 0.2, 0.0),
        (0.0, 0.2, 0.6, 0.2),
        (0.0, 0.0, 0.3, 0.7),
    ),
    n_folds=3,
)


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))


class TestGeneration:
    def test_deterministic_ledger_and_volumes(self):
        pats1, led1 = generate_cohort(SMALL)
        pats2, led2 = generate_cohort(SMALL)
        assert ledger_to_dict(led1) == ledger_to_dict(led2)
        for a, b in zip(pats1, pats2):
            assert np.array_equal(a.labels.values, b.labels.values)
            assert np.array_equal(a.zones.pz.values, b.zones.pz.values)
        s1 = degrade_prediction(pats1, led1)
        s2 = degrade_prediction(pats2, led2)
        for a, b in zip(s1, s2):
            assert a.data.tobytes() == b.data.tobytes()

    def test_patients_are_a_sequence_rendered_from_the_ledger(self):
        pats, ledger = generate_cohort(SMALL)
        assert len(pats) == SMALL.n_patients
        assert pats[-1].patient_id == ledger.patients[-1].patient_id
        with pytest.raises(IndexError):
            pats[SMALL.n_patients]
        indexed = [pats[i] for i in range(len(pats))]
        iterated = list(pats)
        assert [p.patient_id for p in iterated] == [p.patient_id for p in indexed]
        assert [p.patient_id for p in iterated] == [s.patient_id for s in ledger.patients]
        for a, b in zip(iterated, indexed):
            assert np.array_equal(a.labels.values, b.labels.values)
            assert a.zones is b.zones is pats[0].zones  # one ZoneMask per cohort
        assert np.array_equal(pats[-1].labels.values, indexed[-1].labels.values)

    def test_cohort_memory_is_one_patients_not_the_cohorts(self):
        # 35 more patients of 96x96x24 add their scripts to the peak, but
        # no label volume: a cohort holding every volume grows it by 7.2 MB
        cfg = PhantomConfig(seed=7, n_patients=5, dims=(96, 96, 24))
        generate_cohort(cfg)  # lazy imports and caches, outside the trace

        def peak(n_patients):
            tracemalloc.start()
            try:
                # the cohort stays alive while the peak is read
                cohort = generate_cohort(dataclasses.replace(cfg, n_patients=n_patients))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) - peak(5) < 96 * 96 * 24

    def test_lesion_counts_and_sizes(self):
        pats, ledger = generate_cohort(SMALL)
        for script in ledger.patients:
            per_grade = {g: 0 for g in GRADE_ORDER}
            for e in script.lesions:
                per_grade[e.grade] += 1
                assert len(e.voxels) >= SMALL.min_lesion_voxels
            assert [per_grade[g] for g in GRADE_ORDER] == list(SMALL.lesions_per_grade)
            assert len(script.fps) == SMALL.fp_per_patient
            for f in script.fps:
                assert f.grade in CS_GRADES
                assert len(f.voxels) >= SMALL.min_lesion_voxels

    def test_blob_separation_at_least_two_voxels(self):
        pats, ledger = generate_cohort(SMALL)
        script = ledger.patients[0]
        blobs = [e.voxels for e in script.lesions] + [f.voxels for f in script.fps]
        for i in range(len(blobs)):
            for j in range(i + 1, len(blobs)):
                d = min(chebyshev(a, b) for a in blobs[i] for b in blobs[j])
                assert d >= 2

    def test_blobs_respect_zones(self):
        pats, ledger = generate_cohort(SMALL)
        for patient, script in zip(pats, ledger.patients):
            masks = {
                ZONE_PZ: np.asarray(patient.zones.pz.values) != 0,
                ZONE_TZ: np.asarray(patient.zones.tz.values) != 0,
            }
            for e in list(script.lesions) + list(script.fps):
                m = masks[e.zone]
                assert all(m[z, y, x] for (x, y, z) in e.voxels)

    def test_gt_census_matches_cluster_module(self):
        # every scripted blob is exactly one 26-connected component
        pats, ledger = generate_cohort(SMALL)
        for patient, script in zip(pats, ledger.patients):
            gt = gs_lesion_maps(patient.labels, None)
            assert len(gt) == len(script.lesions)
            by_vox = {c.voxels: c for c in gt.clusters}
            for e in script.lesions:
                assert e.voxels in by_vox
                assert by_vox[e.voxels].grade == e.grade
            # the 45 mm^3 filter must keep everything
            assert len(filter_by_volume(gt)) == len(gt)

    def test_zone_filter_recovers_scripted_zones(self):
        pats, ledger = generate_cohort(SMALL)
        patient, script = pats[0], ledger.patients[0]
        gt = gs_lesion_maps(patient.labels, None)
        pz_only = filter_by_zone(gt, patient.zones.pz)
        want = {e.voxels for e in script.lesions if e.zone == ZONE_PZ}
        assert {c.voxels for c in pz_only.clusters} == want

    def test_impossible_placement_raises(self):
        cfg = PhantomConfig(
            seed=0,
            n_patients=1,
            dims=(16, 16, 6),
            lesions_per_grade=(1, 0, 0, 0),
            lesion_radius_mm=(10.0, 12.0),
            max_place_retries=50,
            n_folds=1,
        )
        with pytest.raises(PlacementError):
            generate_cohort(cfg)

    @pytest.mark.parametrize("kind, counts, fps", [("a lesion", (0, 1, 0, 0), 0),
                                                   ("an FP", (0, 0, 0, 0), 1)])
    def test_empty_zone_named_when_placement_fails(self, kind, counts, fps):
        # the TZ of an 8x8x2 grid at tz_scale 0.1 holds no voxel centre
        cfg = PhantomConfig(seed=0, n_patients=1, dims=(8, 8, 2), tz_scale=0.1,
                            pz_fraction=0.0, lesions_per_grade=counts, fp_per_patient=fps,
                            max_place_retries=40, n_folds=1)
        with pytest.raises(PlacementError, match=f"could not place {kind} blob after 40 "
                                                 "retries: drawn zone TZ holds no voxels"):
            generate_cohort(cfg)

    def test_config_rejects_sub_filter_blobs(self):
        with pytest.raises(ValueError, match="volume"):
            PhantomConfig(spacing_mm=(0.5, 0.5, 3.0), min_lesion_voxels=15)

    def test_config_lists_are_stored_as_tuples(self):
        # a config from JSON lists equals the same config from tuples
        listed = PhantomConfig(dims=[48, 48, 12], spacing_mm=[1, 1, 3],
                               misgrade=[list(r) for r in IDENTITY_TRANSITIONS])
        assert listed == PhantomConfig(dims=(48, 48, 12), spacing_mm=(1, 1, 3))
        assert listed.misgrade == IDENTITY_TRANSITIONS and hash(listed) is not None


class TestPrediction:
    def test_scores_bit_exact_and_grades_scripted(self):
        pats, ledger = generate_cohort(SMALL)
        stacks = degrade_prediction(pats, ledger)
        for patient, script, stack in zip(pats, ledger.patients, stacks):
            pred_labels = label_from_probs(stack)
            pred = gs_lesion_maps(pred_labels, stack)
            by_vox = {c.voxels: c for c in pred.clusters}
            n_expected = 0
            for e in script.lesions:
                if not e.detected:
                    # missed lesions render as prostate: no cluster there
                    assert e.voxels not in by_vox
                    continue
                n_expected += 1
                c = by_vox[e.voxels]
                assert c.grade == e.pred_grade
                assert c.score == e.score  # bit-for-bit
            for f in script.fps:
                n_expected += 1
                c = by_vox[f.voxels]
                assert c.grade == f.grade
                assert c.score == f.score
            assert len(pred) == n_expected

    def test_cs_map_scores_bit_exact(self):
        pats, ledger = generate_cohort(SMALL)
        stacks = degrade_prediction(pats, ledger)
        patient, script, stack = pats[1], ledger.patients[1], stacks[1]
        pred = cs_lesion_maps(label_from_probs(stack), stack)
        by_vox = {c.voxels: c for c in pred.clusters}
        for e in script.lesions:
            if e.detected and e.pred_grade in CS_GRADES:
                assert by_vox[e.voxels].score == e.score

    def test_prostate_support_identical(self):
        # the gland mask survives the prediction round-trip exactly
        pats, ledger = generate_cohort(SMALL)
        stacks = degrade_prediction(pats, ledger)
        for patient, stack in zip(pats, stacks):
            gt_gland = np.asarray(patient.labels.values) >= 1
            pred_gland = np.asarray(label_from_probs(stack).values) >= 1
            assert np.array_equal(gt_gland, pred_gland)


def _handmade_ledger():
    def vox(base):
        # box and mask of three voxels in a row along x, from (x, y, z) base
        x, y, z = base
        return np.s_[z : z + 1, y : y + 1, x : x + 3], np.ones((1, 1, 3), dtype=bool)

    p0 = PatientScript(
        patient_id="p000",
        fold=0,
        lesions=(
            LesionEntry(Grade.GS34, ZONE_PZ, *vox((0, 0, 0)), True, Grade.GS34, 0.8),
            LesionEntry(Grade.GS6, ZONE_TZ, *vox((10, 0, 0)), True, Grade.GS43, 0.7),
        ),
        fps=(FpEntry(Grade.GS8, ZONE_PZ, *vox((20, 0, 0)), 0.9),),
    )
    p1 = PatientScript(
        patient_id="p001",
        fold=1,
        lesions=(LesionEntry(Grade.GS43, ZONE_PZ, *vox((0, 10, 0)), False, None, None),),
        fps=(),
    )
    return PhantomLedger((p0, p1), (32, 32, 4), (1.0, 1.0, 3.0))


class TestLedgerOracles:
    def test_cs_froc_points(self):
        led = _handmade_ledger()
        assert ledger_cs_gt_count(led) == 2  # GS3+4 and GS4+3 lesions
        pts = ledger_froc_cs(led)
        # events: TP at 0.8, FP at 0.7 (GS6 called CS), FP at 0.9 (injected)
        assert [p[0] for p in pts] == [0.0, 0.7, 0.8, 0.9, ABOVE_MAX_SCORE]
        assert pts[0] == (0.0, 1.0, 0.5)
        assert pts[1] == (0.7, 1.0, 0.5)
        assert pts[2] == (0.8, 0.5, 0.5)
        assert pts[3] == (0.9, 0.5, 0.0)
        assert pts[4] == (ABOVE_MAX_SCORE, 0.0, 0.0)

    def test_grade_froc_points(self):
        led = _handmade_ledger()
        assert ledger_grade_gt_count(led, Grade.GS43) == 1
        pts = ledger_froc_grade(led, Grade.GS43)
        # the GS4+3 lesion is missed; the GS6 lesion predicted GS4+3 is a FP
        assert [p[0] for p in pts] == [0.0, 0.7, ABOVE_MAX_SCORE]
        assert pts[0] == (0.0, 0.5, 0.0)
        assert pts[1] == (0.7, 0.5, 0.0)
        with pytest.raises(ValueError):
            ledger_froc_grade(led, Grade.GS8)  # injected FP only, no GT

    def test_confusion_variants(self):
        led = _handmade_ledger()
        tp_only = ledger_confusion(led, include_fn_as_gs6=False)
        assert tp_only[1][1] == 1 and tp_only[0][2] == 1
        assert sum(v for r in tp_only for v in r) == 2
        with_fn = ledger_confusion(led, include_fn_as_gs6=True)
        assert with_fn[2][0] == 1
        assert sum(v for r in with_fn for v in r) == 3
        only_fold0 = ledger_confusion(led, include_fn_as_gs6=True, fold=0)
        assert sum(v for r in only_fold0 for v in r) == 2

    def test_zone_subset(self):
        led = ledger_zone_subset(_handmade_ledger(), ZONE_PZ)
        grades = [e.grade for p in led.patients for e in p.lesions]
        assert grades == [Grade.GS34, Grade.GS43]
        assert sum(len(p.fps) for p in led.patients) == 1

    def test_json_round_trip(self):
        pats, ledger = generate_cohort(SMALL)
        blob = json.dumps(ledger_to_dict(ledger), sort_keys=True)
        assert ledger_from_dict(json.loads(blob)) == ledger

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_voxel_lists_round_trip(self, data):
        def voxel_list():
            # a random non-empty mask of a small grid, optionally hollowed and
            # with two opposite corners set so it touches every grid face
            nz, ny, nx = (data.draw(st.integers(1, 6)) for _ in range(3))
            cells = data.draw(st.lists(st.booleans(), min_size=nz * ny * nx,
                                       max_size=nz * ny * nx))
            mask = np.array(cells, dtype=bool).reshape(nz, ny, nx)
            if data.draw(st.booleans()):
                mask[1:-1, 1:-1, 1:-1] = False
            if data.draw(st.booleans()):
                mask[0, 0, 0] = mask[-1, -1, -1] = True
            mask.flat[data.draw(st.integers(0, mask.size - 1))] = True
            ox, oy, oz = (data.draw(st.integers(0, 4)) for _ in range(3))
            return [[int(x) + ox, int(y) + oy, int(z) + oz] for z, y, x in np.argwhere(mask)]

        lesion, fp = voxel_list(), voxel_list()
        d = {
            "dims": [10, 10, 10],
            "spacing_mm": [1.0, 1.0, 3.0],
            "patients": [{
                "patient_id": "p000",
                "fold": 0,
                "lesions": [{"grade": "GS3+4", "zone": ZONE_PZ, "voxels": lesion,
                             "detected": True, "pred_grade": "GS4+3", "score": 0.75}],
                "fps": [{"grade": "GS>=8", "zone": ZONE_TZ, "voxels": fp, "score": 0.9}],
            }],
        }
        ledger = ledger_from_dict(d)
        assert "".join(json_chunks(ledger_to_dict(ledger))) == "".join(json_chunks(d))
        (script,) = ledger.patients
        assert len(script.lesions[0].voxels) == len(lesion)
        assert len(script.fps[0].voxels) == len(fp)

    @pytest.mark.parametrize("key, index, voxels, message", [
        ("lesions", 1, [], "voxels is empty"),
        ("fps", 0, [[1, 2]], "integer triples"),
        ("lesions", 0, [[1, 2, 3], [1, 2, 4]], "outside the grid of dims"),
        ("fps", 0, [[1, 2, 0], [3, 2, 0], [1, 2, 0]], "names a voxel twice"),
    ], ids=["empty", "non-triple", "out-of-grid", "repeated"])
    def test_bad_voxel_lists_raise(self, key, index, voxels, message):
        d = ledger_to_dict(_handmade_ledger())  # dims (32, 32, 4)
        d["patients"][0][key][index]["voxels"] = voxels
        with pytest.raises(ValueError, match=rf"patient p000 {key}\[{index}\]: .*{message}"):
            ledger_from_dict(d)

    # p000 lesions[0] and [1] are detected, p001 lesions[0] is missed, p000 fps[0] is GS>=8;
    # key None edits the patient itself
    @pytest.mark.parametrize("patient, key, index, fields, message", [
        (0, "lesions", 0, {"zone": "XX"}, "zone must be"),
        (0, "fps", 0, {"zone": "pz"}, "zone must be"),
        (0, "lesions", 1, {"grade": "GS7"}, "unknown grade"),
        (0, "lesions", 0, {"grade": 3}, "unknown grade"),
        (0, "lesions", 0, {"pred_grade": "GS9"}, "unknown pred_grade"),
        (0, "lesions", 0, {"score": "high"}, "score must be a number"),
        (0, "lesions", 1, {"score": None}, "score must be a number"),
        (0, "lesions", 0, {"score": float("nan")}, "score must be a number"),
        (0, "fps", 0, {"score": 7}, "score must be a number"),
        (0, "fps", 0, {"score": True}, "score must be a number"),
        (0, "fps", 0, {"score": -0.5}, "score must be a number"),
        (1, "lesions", 0, {"score": 0.5}, "must be null"),
        (0, "lesions", 0, {"detected": 1}, "detected must be"),
        (1, "lesions", 0, {"detected": "false"}, "detected must be"),
        (0, "lesions", 0, {"detected": False}, "must be null"),
        (1, "lesions", 0, {"pred_grade": "GS6"}, "must be null"),
        (1, "lesions", 0, {"detected": True, "pred_grade": None, "score": 0.6},
         "needs a pred_grade"),
        (0, "fps", 0, {"grade": "GS6"}, "must have a CS grade"),
        (1, None, None, {"fold": "1"}, "fold must be an integer"),
        (1, None, None, {"fold": 1.0}, "fold must be an integer"),
        (1, None, None, {"fold": True}, "fold must be an integer"),
        (1, None, None, {"fold": None}, "fold must be an integer"),
    ], ids=["lesion-zone", "fp-zone-lowercase", "unknown-grade", "grade-not-text",
            "unknown-pred-grade", "score-text", "detected-score-null", "score-nan",
            "fp-score-above-one", "fp-score-bool", "fp-score-negative", "missed-score",
            "detected-int", "detected-text", "missed-with-pred-grade",
            "missed-pred-grade-only", "detected-without-pred-grade", "fp-not-cs",
            "fold-text", "fold-float", "fold-bool", "fold-null"])
    def test_bad_fields_raise(self, patient, key, index, fields, message):
        d = ledger_to_dict(_handmade_ledger())
        p = d["patients"][patient]
        where = f"patient {p['patient_id']}"
        if key is None:
            p.update(fields)
        else:
            p[key][index].update(fields)
            where += rf" {key}\[{index}\]"
        with pytest.raises(ValueError, match=rf"^{where}: .*{message}"):
            ledger_from_dict(d)

    def test_entries_compare_by_ledger_form(self):
        # the cohort benchmark's check compares written ledgers with !=
        _, ledger = generate_cohort(SMALL)
        d = ledger_to_dict(ledger)
        same = ledger_from_dict(json.loads(json.dumps(d)))
        assert same == ledger and not (same != ledger)

        def move_voxel(p):  # to the empty low corner of its box: box and count stay
            vox = p["lesions"][0]["voxels"]
            corner = [min(v[i] for v in vox) for i in range(3)]
            assert corner not in vox
            vox[len(vox) // 2] = corner

        def nudge_score(p):
            p["fps"][0]["score"] = 0.75

        def flip_zone(p):
            e = p["lesions"][0]
            e["zone"] = ZONE_TZ if e["zone"] == ZONE_PZ else ZONE_PZ

        def regrade(p):
            e = next(e for e in p["lesions"] if e["detected"])
            e["pred_grade"] = "GS6" if e["pred_grade"] != "GS6" else "GS>=8"

        for edit in (move_voxel, nudge_score, flip_zone, regrade):
            changed = json.loads(json.dumps(d))
            edit(changed["patients"][0])
            edited = ledger_from_dict(changed)
            assert edited != ledger and not (edited == ledger), edit.__name__
            if edit is move_voxel:
                a, b = same.patients[0].lesions[0], edited.patients[0].lesions[0]
                assert (a.box, len(a.voxels)) == (b.box, len(b.voxels))

    def test_entry_mask_must_fill_the_box_and_is_read_only(self):
        # the rule and the message of LesionCluster's mask
        box, mask = (slice(0, 1), slice(0, 2), slice(1, 3)), np.ones((1, 2, 2), dtype=bool)
        with pytest.raises(ValueError, match=r"^mask of shape \(1, 2, 2\) does not fill the box"):
            FpEntry(Grade.GS8, ZONE_PZ, box[:2] + (slice(0, 3),), mask, 0.9)
        e = FpEntry(Grade.GS8, ZONE_PZ, box, mask, 0.9)
        mask[0, 0, 0] = False  # the caller's array stays writable, and e holds a copy
        assert e.mask.all() and not e.mask.flags.writeable


class TestPipelineAgreement:
    """The clustering/matching pipeline must reproduce the ledger exactly."""

    CFG = PhantomConfig(
        seed=11,
        n_patients=5,
        dims=(48, 48, 12),
        lesions_per_grade=(1, 1, 1, 1),
        fp_per_patient=1,
        miss_fraction=0.25,
        misgrade=(
            (0.6, 0.4, 0.0, 0.0),
            (0.2, 0.6, 0.2, 0.0),
            (0.0, 0.2, 0.6, 0.2),
            (0.0, 0.0, 0.4, 0.6),
        ),
        n_folds=5,
    )

    def _cohort_maps(self):
        pats, ledger = generate_cohort(self.CFG)
        stacks = degrade_prediction(pats, ledger)
        cs_pairs, gs_pairs = [], []
        for patient, stack in zip(pats, stacks):
            pred_labels = label_from_probs(stack)
            cs_pairs.append(
                (
                    filter_by_volume(cs_lesion_maps(pred_labels, stack)),
                    filter_by_volume(cs_lesion_maps(patient.labels, None)),
                )
            )
            gs_pairs.append(
                (
                    filter_by_volume(gs_lesion_maps(pred_labels, stack)),
                    filter_by_volume(gs_lesion_maps(patient.labels, None)),
                )
            )
        return ledger, cs_pairs, gs_pairs

    def test_cs_froc_exact(self):
        ledger, cs_pairs, _ = self._cohort_maps()
        curve = froc_curve(cs_pairs)
        expect = ledger_froc_cs(ledger)
        assert curve.n_gt_lesions == ledger_cs_gt_count(ledger)
        got = [(p.threshold, p.mean_fp_per_patient, p.sensitivity) for p in curve.points]
        assert got == expect  # exact float equality, no tolerance

    def test_per_grade_froc_exact(self):
        ledger, _, gs_pairs = self._cohort_maps()
        for grade in GRADE_ORDER:
            if ledger_grade_gt_count(ledger, grade) == 0:
                continue
            curve = froc_by_grade(gs_pairs, grade)
            expect = ledger_froc_grade(ledger, grade)
            got = [
                (p.threshold, p.mean_fp_per_patient, p.sensitivity) for p in curve.points
            ]
            assert got == expect

    def test_match_counts_exact(self):
        ledger, cs_pairs, _ = self._cohort_maps()
        tp = fp = 0
        for pred, gt in cs_pairs:
            m = match_detections(pred, gt)
            tp += len(m.tp)
            fp += len(m.fp)
            assert len(m.duplicates) == 0
        pts = ledger_froc_cs(ledger)
        n_gt = ledger_cs_gt_count(ledger)
        assert pts[0][2] == tp / n_gt
        assert pts[0][1] == fp / ledger.n_patients

    def test_confusion_and_kappa_exact(self):
        """The matrices tallied from the detection records of the staged
        cohort, one per ground-truth lesion, are the ledger's."""
        pats, ledger = generate_cohort(self.CFG)
        stages = stage_cohort(phantom_patient_evals(pats, ledger), EvaluationConfig())
        counts = [[0] * 4 for _ in range(4)]
        counts_fn = [[0] * 4 for _ in range(4)]
        for stage, script in zip(stages, ledger.patients):
            assert stage.patient_id == script.patient_id
            assert len(stage.records) == len(stage.gs_gt) == len(script.lesions)
            for r in stage.records:
                gi = r.gt_grade.ordinal
                if r.pred_grade != MISSED:
                    pj = r.pred_grade.ordinal
                    counts[gi][pj] += 1
                    counts_fn[gi][pj] += 1
                else:
                    counts_fn[gi][Grade.GS6.ordinal] += 1
        want = ledger_confusion(ledger, include_fn_as_gs6=False)
        want_fn = ledger_confusion(ledger, include_fn_as_gs6=True)
        assert tuple(tuple(r) for r in counts) == want
        assert tuple(tuple(r) for r in counts_fn) == want_fn
        k_pipe = quadratic_weighted_kappa(ConfusionMatrix(tuple(map(tuple, counts_fn)), True))
        k_led = quadratic_weighted_kappa(ConfusionMatrix(want_fn, True))
        assert abs(k_pipe.kappa - k_led.kappa) <= 1e-12


class TestCohortFiles:
    def test_write_round_trip_and_determinism(self, tmp_path):
        cfg = PhantomConfig(
            seed=3, n_patients=2, dims=(48, 48, 12), lesions_per_grade=(1, 0, 1, 0),
            fp_per_patient=1, n_folds=2,
        )
        led1 = write_cohort(cfg, tmp_path / "a")
        led2 = write_cohort(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "ledger.json").read_bytes()
        b = (tmp_path / "b" / "ledger.json").read_bytes()
        assert a == b
        pats, _ = generate_cohort(cfg)
        disk = read_volume(tmp_path / "a" / "gt" / "p000_labels")
        assert np.array_equal(disk.values, pats[0].labels.values)
        assert (tmp_path / "a" / "pred" / "p001_prob_c5.vol.raw").exists()
        manifest = json.loads((tmp_path / "a" / "cohort.json").read_text())
        assert [p["fold"] for p in manifest["patients"]] == [0, 1]
        assert led1 == led2

    def test_one_stack_held_at_a_time(self, tmp_path, monkeypatch):
        rendered, alive, writes = [], [], []
        labels, labels_alive = [], []
        render, write = phantom.degrade_prediction, phantom.write_volume

        def counting_render(patients, ledger):
            stacks = render(patients, ledger)
            rendered.extend(weakref.ref(s) for s in stacks)
            alive.append(sum(r() is not None for r in rendered))
            return stacks

        def counting_write(v, path):
            writes.append(path)
            if path.endswith("_labels"):
                labels.append(weakref.ref(v))
                labels_alive.append(sum(r() is not None for r in labels))
            write(v, path)

        monkeypatch.setattr(phantom, "degrade_prediction", counting_render)
        monkeypatch.setattr(phantom, "write_volume", counting_write)
        write_cohort(SMALL, tmp_path / "c")
        assert len(rendered) == SMALL.n_patients and max(alive) == 1
        # the labels are rendered from the ledger per patient, not held for the cohort
        assert len(labels) == SMALL.n_patients and max(labels_alive) == 1
        # every volume still goes through the module's write_volume
        assert len(writes) == 9 * SMALL.n_patients

    def test_each_render_gets_its_own_script_only(self, tmp_path, monkeypatch):
        # a render that indexes every patient's script makes the cohort
        # write quadratic in the patient count
        seen = []
        render = phantom.degrade_prediction

        def recording_render(patients, ledger):
            seen.append(([p.patient_id for p in patients],
                         [s.patient_id for s in ledger.patients]))
            return render(patients, ledger)

        monkeypatch.setattr(phantom, "degrade_prediction", recording_render)
        ledger = write_cohort(SMALL, tmp_path / "c")
        assert seen == [([s.patient_id], [s.patient_id]) for s in ledger.patients]
