"""Cohort evaluation: protocol composition, report content, disk round
trips, and exact agreement with the phantom ledger."""

import json
import time
import weakref

import numpy as np
import pytest

from lesionkit import evaluation, matching, metrics
from lesionkit.evaluation import (
    EvaluationConfig,
    PatientEval,
    aggregate_stages,
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
from lesionkit.metrics import sensitivity_at_fp
from lesionkit.phantom import (
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

    def test_confusion_exact(self):
        ledger, report = _evaluate(SCRIPTED)
        assert report.confusion_tp_only.counts == ledger_confusion(ledger, False)
        assert report.confusion_with_fn.counts == ledger_confusion(ledger, True)
        # FN-variant row sums are the full per-grade GT census
        for g in GRADE_ORDER:
            assert report.confusion_with_fn.row_sums()[g.ordinal] == ledger_grade_gt_count(
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

    def test_volume_filter_off_never_hurts_sensitivity(self):
        _, with_filter = _evaluate(SCRIPTED)
        _, without = _evaluate(SCRIPTED, min_volume_mm3=0.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            assert sensitivity_at_fp(without.cs_froc, t) >= sensitivity_at_fp(
                with_filter.cs_froc, t
            )


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

    def test_threads_do_not_change_results(self):
        pats, ledger = generate_cohort(SCRIPTED)
        evals = phantom_patient_evals(pats, ledger)
        r1 = evaluate_cohort(evals, EvaluationConfig(**FAST))
        r2 = evaluate_cohort(evals, EvaluationConfig(threads=4, **FAST))
        d1, d2 = report_to_dict(r1), report_to_dict(r2)
        d1["config"].pop("threads", None)
        d2["config"].pop("threads", None)
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

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
        base = dict(
            EvaluationConfig.for_cohort_dir(tmp_path / "cohort").__dict__, **FAST
        )
        cfg1 = EvaluationConfig(**{**base, "output_dir": str(tmp_path / "out1")})
        cfg2 = EvaluationConfig(**{**base, "output_dir": str(tmp_path / "out2")})
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
    @pytest.mark.parametrize("threads, bound", [(1, 1), (2, 3)])
    def test_one_patient_alive_per_thread(self, tmp_path, monkeypatch, threads, bound):
        write_cohort(SCRIPTED, tmp_path / "cohort")
        cfg = EvaluationConfig.for_cohort_dir(tmp_path / "cohort", threads=threads, **FAST)
        loaded, alive = [], []
        load, stage = evaluation.load_patient_eval, evaluation._stage_patient

        def counting(*args):
            patient = load(*args)
            loaded.append(weakref.ref(patient))
            alive.append(sum(r() is not None for r in loaded))
            return patient

        def slow_stage(patient, cfg):
            time.sleep(0.02)  # slower than a load, so an unbounded window would fill
            return stage(patient, cfg)

        monkeypatch.setattr(evaluation, "load_patient_eval", counting)
        monkeypatch.setattr(evaluation, "_stage_patient", slow_stage)
        patients = load_cohort(cfg)
        assert loaded == []  # the manifest is read now, the volumes lazily
        stages = stage_cohort(patients, cfg)
        assert [s.patient_id for s in stages] == [f"p{i:03d}" for i in range(6)]
        assert len(alive) == 6 and max(alive) <= bound

    @pytest.mark.parametrize("threads", [1, 2])
    def test_errors_on_a_lazy_iterable(self, threads):
        evals = phantom_patient_evals(*generate_cohort(PERFECT))
        cfg = EvaluationConfig(threads=threads, **FAST)
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

    def test_missing_patient_rejected(self):
        points = [
            type("P", (), {"patient_id": "ghost", "x": 0, "y": 0, "z": 0,
                           "zone": "PZ", "gs_label": Grade.GS6})()
        ]
        with pytest.raises(ValueError, match="ghost"):
            evaluate_points(points, {"a": _one_cluster_stack()}, EvaluationConfig(**FAST))
