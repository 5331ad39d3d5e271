"""Golden bundle: `lesionkit evaluate` on a fixed-seed phantom cohort must
write byte-identical files, and the numbers in its report.json must match
the cohort's ledger.json exactly.

The cohort has misgraded detections (the DRIFT table), missed lesions and
injected false positives, so every bundle file carries non-trivial content.
A digest that moves means a reported number, its formatting or its order
changed; refresh the digests only for a change that is meant to do that,
and say so in CHANGES.md.
"""

import hashlib
import json

import pytest

from lesionkit.cli import EXIT_OK, main
from lesionkit.grades import GRADE_ORDER
from lesionkit.metrics import ConfusionMatrix, quadratic_weighted_kappa
from lesionkit.netmath import label_from_probs
from lesionkit.phantom import (
    ZONE_PZ,
    ZONE_TZ,
    ledger_confusion,
    ledger_from_dict,
    ledger_froc_cs,
    ledger_froc_grade,
    ledger_grade_gt_count,
    ledger_zone_subset,
)
from lesionkit.volume import read_prob_stack, write_volume

DRIFT = (
    (0.7, 0.3, 0.0, 0.0),
    (0.15, 0.7, 0.15, 0.0),
    (0.0, 0.15, 0.7, 0.15),
    (0.0, 0.0, 0.3, 0.7),
)

PHANTOM = {
    "n_patients": 8,
    "dims": [48, 48, 12],
    "lesions_per_grade": [1, 1, 1, 1],
    "fp_per_patient": 2,
    "miss_fraction": 0.3,
    "misgrade": [list(r) for r in DRIFT],
    "n_folds": 4,
}

GOLDEN = {
    "all": {
        "clusters.json":
            "aca1a2b69462183920853cb171289f5be2126382559d3d7d28a7c6498de1484d",
        "confusion_tp_only.json":
            "66a11e3e1de0d0b69af74830cbb6134d2583d8371a84b7f7a71a59f96770a751",
        "confusion_with_fn.json":
            "aaf1211b1e49153d3089b1b031547e78acc4e64443419dc85bb0155fde6642b3",
        "detections.csv":
            "2d7f6889bfb781d6bf4089aecb7da5e7ff779e66efa0e7aae79b6757388bfc4c",
        "froc_cs.csv":
            "188ab1c1d3dc44b8d828ecb21d6a5a26e4708e36b475458a47b2c74839f8a0d7",
        "froc_cs_aggregate.csv":
            "3d235be7f532a4ade24c8e7a9a5b18a6f1939d71a1dfc7f0e523b52e085e3dce",
        "froc_cs_fold0.csv":
            "0df16a559a886325aab044c8cb10dcb899df6b36f0b4afac1eb5dbf99c7d0598",
        "froc_cs_fold1.csv":
            "c4deb7d27c0339685ad3f03e4af123a9a92b819a8e25f25d6bd5c6c94bf4e516",
        "froc_cs_fold2.csv":
            "087e64cc4d6c80d34428a8ec3f23f5aba50f475edabce7563d3d20b536d7d110",
        "froc_cs_fold3.csv":
            "6b758f315a808450bd766f6b545d5c4ccb97d09a1d62068933814a6cb1fbd8a7",
        "froc_gs34.csv":
            "9949b1f83941f7640c7bd567d87cf1526e15485d7dfe425d4553d50651c71c56",
        "froc_gs43.csv":
            "c65ad8b1aa517b150fb5787d32add651d6481112d06b5cff8aa7cd8cf6d6bde1",
        "froc_gs6.csv":
            "9dd4c6eb9ce02359c41f42404f23eb8b69161c43db173d2b0c6618d073051c02",
        "froc_gs8.csv":
            "b55e5d0157dc964dc3bf95ee7077c8842951143777af8daa5f843dbeb627bae8",
        "report.json":
            "139828e5ed58bef9bb16184700525a6f1d6ef38045cf08f2f1cfd5abf34fd540",
    },
    "pz": {
        "clusters.json":
            "e4988138089e735e6633d2e9d505b04f21363867a0076695850a710af1d073ee",
        "confusion_tp_only.json":
            "c1dda2d200c4bf94abc2eda9a4d28dde8ee811fec3a8269de82b648d4f604fdb",
        "confusion_with_fn.json":
            "da4a539233f8f204e7b1dd27e35d8f67190d7601ebad6735c766ec5671fdd806",
        "detections.csv":
            "0717a27bd17d79ac93fecd3d9d6ed5734f6e78eab588e1e4dfbdb76e0b749154",
        "froc_cs.csv":
            "e4e3c3a841823c2a44682163286b3150c4fe6f5bdc7b90133d7353c66b573122",
        "froc_cs_aggregate.csv":
            "7a325561c8aa9515725f2bd3394695596f5808db1939cfedb44f7d1dea93d2b2",
        "froc_cs_fold0.csv":
            "8618c09c1b5f4ee8c2392a017195676c06ecebf4d362627ce22864182729cad2",
        "froc_cs_fold1.csv":
            "20bbf0718bcb40d2283eecefaad0c1fc15f6cfa941fcb67c4cb33aa8d9cc054d",
        "froc_cs_fold2.csv":
            "5e7e19d0d379289093dae6a9d57b56445c00b018bee3fb646ffc09cb6ddd3c59",
        "froc_cs_fold3.csv":
            "dcb71ef41cb8ae57c4d2ac262fb9322deaec6857b1e422f904e1cdbc3d056b98",
        "froc_gs34.csv":
            "3b8ce8583bb50a2d927f8f1ee8101ebcf22891c90438d8be718d1ac0ecea7780",
        "froc_gs43.csv":
            "50f1fa06f660977dc2f1f79abe117e1a4adad96dc1ee991544fb382e539702ca",
        "froc_gs6.csv":
            "1d679b61a95eba052dc6a897fe3ca6f5651af9a2629a05dc7915d306209c6e7f",
        "froc_gs8.csv":
            "f09cdbad2161d5cb6af2fba52e5e0484f368c871dfc7390dbf8b532ffe9c2c3f",
        "report.json":
            "e46b625f4f2139be5c182397ba5142d3800be81f92851a5e52b3a60841b8d215",
    },
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"phantom": PHANTOM}))
    code = main(["--config", str(cfg), "--seed", "11", "phantom", "--out", str(root / "coh")])
    assert code == EXIT_OK
    return root / "coh"


def _digests(out_dir) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("zone", ["all", "pz"])
def test_bundle_digests(cohort, tmp_path, capsys, zone):
    out = tmp_path / "bundle"
    argv = ["evaluate", "--cohort", str(cohort), "--out", str(out), "--bootstrap", "200"]
    if zone != "all":
        argv += ["--zone", zone]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert _digests(out) == GOLDEN[zone]


@pytest.mark.parametrize("flag", [["--zone", "none"], []])
def test_zone_flag_against_config_file(cohort, tmp_path, capsys, flag):
    """An explicit --zone none wins over the file's zone and writes the
    unzoned bundle; without --zone the file's zone holds."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"evaluation": {"zone": "pz"}}))
    out = tmp_path / "bundle"
    argv = ["--config", str(cfg), "evaluate", "--cohort", str(cohort), "--out", str(out),
            "--bootstrap", "200", *flag]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    zone = json.loads((out / "report.json").read_text())["config"]["zone"]
    assert zone == (None if flag else "pz")
    assert _digests(out) == GOLDEN["all" if flag else "pz"]


@pytest.mark.parametrize("zone", ["all", "pz", "tz"])
def test_report_matches_ledger(cohort, tmp_path, capsys, zone):
    """The on-disk CLI path, read back from report.json, against the ledger
    the generator wrote: every FROC point and confusion count exactly, and
    kappa to 1e-12."""
    out = tmp_path / "bundle"
    argv = ["evaluate", "--cohort", str(cohort), "--out", str(out), "--bootstrap", "20"]
    ledger = ledger_from_dict(json.loads((cohort / "ledger.json").read_text()))
    if zone != "all":
        argv += ["--zone", zone]
        ledger = ledger_zone_subset(ledger, {"pz": ZONE_PZ, "tz": ZONE_TZ}[zone])
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())

    def points(curve):
        return None if curve is None else [tuple(p) for p in curve["points"]]

    assert points(report["froc"]["cs"]) == ledger_froc_cs(ledger)
    for g in GRADE_ORDER:
        want = ledger_froc_grade(ledger, g) if ledger_grade_gt_count(ledger, g) else None
        assert points(report["froc"]["by_grade"][g.display]) == want, g.display
    for variant, with_fn in (("tp_only", False), ("with_fn", True)):
        want = ledger_confusion(ledger, include_fn_as_gs6=with_fn)
        got = report["confusion"][variant]
        assert got["counts"] == [list(r) for r in want]
        kappa = quadratic_weighted_kappa(ConfusionMatrix(want, with_fn)).kappa
        assert abs(got["kappa"] - kappa) <= 1e-12


#: Every file `lesionkit phantom` writes for the cohort above: the two JSON
#: files by name, and each volume directory as one digest over the sorted
#: "<name> <sha256>" lines of its files.
GOLDEN_COHORT = {
    "cohort.json": "d2a20d3ecdf0dd23c9514026f2d0b8085292b5c1ec0ddfc6e45d76799f520be3",
    "gt/": "7f8d96bd5c8fd53f8517feb5eb565b52c03ae82fe8e95775318ff562b18d08b9",
    "ledger.json": "8205a19abfc08696c5d6ffac456f723b58c2a6d468d336c242b4218c5bbfabb5",
    "pred/": "bf59688fdaff49e9f3f7f34403c42f18dd5c725865a28a81086e4f433691274b",
    "zones/": "ce526551fa89b1282166c410c16483403bc901910d47582bb703874006ab741c",
}


def _cohort_digests(root) -> dict:
    out = {}
    for p in sorted(root.iterdir()):
        if p.is_dir():
            lines = "".join(f"{n} {d}\n" for n, d in _digests(p).items())
            out[p.name + "/"] = hashlib.sha256(lines.encode()).hexdigest()
        else:
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_cohort_digests(cohort):
    assert sorted(len(list((cohort / d).iterdir())) for d in ("gt", "pred", "zones")) == [
        16, 32, 96,
    ]
    assert _cohort_digests(cohort) == GOLDEN_COHORT


@pytest.fixture(scope="module")
def detections(cohort, tmp_path_factory):
    out = tmp_path_factory.mktemp("kappa") / "bundle"
    argv = ["evaluate", "--cohort", str(cohort), "--out", str(out), "--bootstrap", "200"]
    assert main(argv) == EXIT_OK
    return out / "detections.csv"


#: sha256 of `lesionkit kappa` stdout on the unrestricted bundle's
#: detections, bootstrapping whole patients (the bundle itself only
#: resamples lesions).
GOLDEN_KAPPA_PATIENT = {
    "tp-only": "2d700bb7d177d0d73e35a63453fb1d4c789bd1f26f817a49e7db9fb9704d2ecc",
    "with-fn": "702a5f7d957286439e8e739aef7bea7b879fab8c32f143f61eab5654f9c6a3f6",
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_KAPPA_PATIENT))
def test_kappa_patient_resample_digests(detections, capsys, variant):
    capsys.readouterr()
    argv = ["kappa", "--detections", str(detections), "--bootstrap", "200",
            "--resample", "patient"]
    if variant == "with-fn":
        argv.append("--include-fn")
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_KAPPA_PATIENT[variant]


#: sha256 of `lesionkit --seed 18446744073709551619 kappa` stdout on the
#: same detections, resampling lesions: a seed of three 32-bit words
#: (2**64 + 3), which the bundle's seed 0 never exercises.
GOLDEN_KAPPA_WIDE_SEED = "9e5e5fb4ea689334048ba0a779b225d0715a1ba21fb36caf57dbc3c9c228adc9"


def test_kappa_wide_seed_digest(detections, capsys):
    capsys.readouterr()
    argv = ["--seed", "18446744073709551619", "kappa", "--detections", str(detections),
            "--bootstrap", "200", "--resample", "lesion"]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_KAPPA_WIDE_SEED


@pytest.fixture(scope="module")
def points_csv(cohort, tmp_path_factory):
    """One point per ledger lesion, at the first voxel of its blob."""
    ledger = ledger_from_dict(json.loads((cohort / "ledger.json").read_text()))
    lines = ["patient_id,x_vox,y_vox,z_vox,zone,gs_label"]
    for p in ledger.patients:
        for e in p.lesions:
            x, y, z = e.voxels[0]
            lines.append(f"{p.patient_id},{x},{y},{z},{e.zone},{e.grade.display}")
    path = tmp_path_factory.mktemp("px2") / "points.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


#: sha256 of `lesionkit px2` stdout and of both files its --out writes.
GOLDEN_PX2 = {
    "stdout": "bac20cc5366a319ce43a8a325011a23fdd3f59548bdc965ac966427456655c43",
    "px2_records.csv": "c29307c5cce299c560a68cab232f5105ce85069824bdc8fe0051d5ea8fa768fd",
    "px2_report.json": "bac20cc5366a319ce43a8a325011a23fdd3f59548bdc965ac966427456655c43",
}


def test_px2_digests(cohort, points_csv, tmp_path, capsys):
    out = tmp_path / "px2"
    capsys.readouterr()
    argv = ["px2", "--points", str(points_csv), "--pred-dir", str(cohort / "pred"),
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    got = {"stdout": hashlib.sha256(stdout.encode()).hexdigest(), **_digests(out)}
    assert got == GOLDEN_PX2


@pytest.fixture(scope="module")
def one_patient(cohort, tmp_path_factory):
    """(gt labels, predicted labels, probability stack) base paths of the
    cohort's first patient; the predicted labels are the stack's argmax."""
    pid = json.loads((cohort / "cohort.json").read_text())["patients"][0]["patient_id"]
    probs = cohort / "pred" / f"{pid}_prob"
    pred = tmp_path_factory.mktemp("patient") / f"{pid}_pred"
    write_volume(label_from_probs(read_prob_stack(probs)), pred)
    return cohort / "gt" / f"{pid}_labels", pred, probs


#: sha256 of `lesionkit cluster --out` JSON on the first patient's predicted
#: labels and probabilities, and of `lesionkit match` stdout against its
#: ground truth, per --mode.
GOLDEN_CLUSTER = {
    "gs": "d60fe3a0f1baf0e0b2c387184d821257c21bae27b9477891cf33822d35892c65",
    "cs": "0e4deb091b25f18c3cd7def8d9c1aa15b0e0004da75966311a9a2c0a4278e596",
}
GOLDEN_MATCH = {
    "gs": "a07db7da16dc75111593edc6947c8eda51bd0d92facfa50c759cf84c78c2b01e",
    "cs": "42e1c24bc60c7d5f336443b71915ebe3a7f8811e97342c0f7b9d1ea05aa4816f",
}


@pytest.mark.parametrize("mode", ["gs", "cs"])
def test_cluster_and_match_digests(one_patient, tmp_path, capsys, mode):
    gt, pred, probs = one_patient
    out = tmp_path / "clusters.json"
    argv = ["cluster", "--labels", str(pred), "--probs", str(probs), "--mode", mode,
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    argv = ["match", "--pred", str(pred), "--gt", str(gt), "--pred-probs", str(probs),
            "--mode", mode]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CLUSTER[mode]
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_MATCH[mode]
