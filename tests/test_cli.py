"""Command-line interface: exit codes, JSON outputs, config-file merging,
and the full phantom -> evaluate round trip through main()."""

import json
import shutil

import numpy as np
import pytest

from lesionkit import evaluation
from lesionkit.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DEGENERATE, EXIT_OK, main
from lesionkit.volume import (
    KIND_INTENSITY,
    KIND_LABEL,
    KIND_PROBABILITY,
    Volume,
    read_volume,
    write_volume,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "phantom": {
            "n_patients": 4,
            "dims": [48, 48, 12],
            "lesions_per_grade": [1, 1, 1, 1],
            "fp_per_patient": 1,
            "miss_fraction": 0.25,
            "n_folds": 2,
        }
    }))
    code = main(["--config", str(cfg), "--seed", "21", "phantom",
                 "--out", str(root / "coh")])
    assert code == EXIT_OK
    return root / "coh"


@pytest.fixture(scope="module")
def bundle(cohort, tmp_path_factory):
    """The evaluate bundle of the cohort."""
    out = tmp_path_factory.mktemp("bundle")
    assert main(["evaluate", "--cohort", str(cohort), "--out", str(out),
                 "--bootstrap", "10"]) == EXIT_OK
    return out


class TestExitCodes:
    def test_config_file_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run(capsys, "--config", str(bad), "phantom", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG

    def test_unknown_config_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"phantom": {"voxels_per_lesion": 3}}))
        code, _ = run(capsys, "--config", str(bad), "phantom", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("section", [
        {"miss_fraction": 2.0},
        {"seed": 1.5},
        {"seed": -1},
        {"dims": [16, 16, 4.5]},
        {"dims": [16, 16]},
        {"lesions_per_grade": [1, 1, 1.0, 1]},
        {"fp_per_patient": 1.5},
        {"min_lesion_voxels": 15.5},
        {"max_place_retries": 2.5},
        {"n_folds": 2.5},
    ], ids=lambda section: "-".join(f"{k}={v}" for k, v in section.items()))
    def test_invalid_config_value(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        base = {"n_patients": 3, "n_folds": 3, "dims": [48, 48, 12]}
        cfg.write_text(json.dumps({"phantom": {**base, **section}}))
        code, _ = run(capsys, "--config", str(cfg), "phantom", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        "kappa --bootstrap 0 --detections MISSING",
        "kappa --bootstrap -3 --detections MISSING",
        "--seed -2 kappa --detections MISSING",
        "--seed -2 phantom --out MISSING",
        "--seed -2 evaluate --cohort MISSING --out MISSING",
        "losscheck --instances 0",
    ])
    def test_bad_flag_value_fails_before_reading(self, tmp_path, capsys, argv):
        # MISSING names no file: reading it would exit with a data error
        missing = str(tmp_path / "missing")
        code, _ = run(capsys, *(missing if a == "MISSING" else a for a in argv.split()))
        assert code == EXIT_CONFIG
        assert not (tmp_path / "missing").exists()

    def test_missing_volume_is_data_error(self, tmp_path, capsys):
        code, _ = run(capsys, "dice", "--a", str(tmp_path / "nope"), "--b", str(tmp_path / "nope"))
        assert code == EXIT_DATA

    def test_missing_detections_is_data_error(self, tmp_path, capsys):
        code, _ = run(capsys, "kappa", "--detections", str(tmp_path / "nope.csv"))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["dice", "cluster", "match", "preprocess"])
    @pytest.mark.parametrize("header", [
        "{nope",
        {"spacing_mm": ["x", 1, 1]},
        {"dims": [-1, -1, 24]},
        {"dims": [4, 6]},
        {"spacing_mm": [1.0, 1.0]},
        {"spacing_mm": [float("nan"), 1.0, 1.0]},
        {"spacing_mm": [1.0, float("inf"), 1.0]},
    ], ids=["not_json", "spacing_text", "dims_negative", "dims_count", "spacing_count",
            "spacing_nan", "spacing_inf"])
    def test_malformed_volume_header_is_data_error(self, tmp_path, capsys, command, header):
        kind = KIND_INTENSITY if command == "preprocess" else KIND_LABEL
        good, bad = tmp_path / "good", tmp_path / "bad"
        for path in (good, bad):
            write_volume(Volume(np.ones((2, 3, 4)), (1.0, 1.0, 3.0), kind), path)
        header_path = tmp_path / "bad.vol.json"
        if isinstance(header, str):
            header_path.write_text(header)
        else:
            header_path.write_text(json.dumps({**json.loads(header_path.read_text()), **header}))
        argv = {
            "dice": ["dice", "--a", str(bad), "--b", str(good)],
            "cluster": ["cluster", "--labels", str(bad)],
            "match": ["match", "--pred", str(good), "--gt", str(bad)],
            "preprocess": ["preprocess", "--in", str(bad), "--out", str(tmp_path / "out")],
        }[command]
        code, _ = run(capsys, *argv)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command", ["cluster", "match"])
    @pytest.mark.parametrize("shape, spacing", [
        ((2, 2, 2), (1.0, 1.0, 3.0)),
        ((3, 4, 5), (1.0, 1.0, 3.0)),
        ((2, 3, 4), (1.0, 1.0, 2.0)),
    ], ids=["smaller", "larger", "spacing"])
    def test_probability_grid_mismatch_is_data_error(self, tmp_path, capsys, command,
                                                     shape, spacing):
        lab = np.zeros((2, 3, 4))
        lab[:, 1:, 1:] = 4  # one GS4+3 lesion reaching the far corner of the grid
        labels = tmp_path / "labels"
        write_volume(Volume(lab, (1.0, 1.0, 3.0), KIND_LABEL), labels)
        for c in range(6):
            write_volume(Volume(np.full(shape, float(c == 0)), spacing, KIND_PROBABILITY),
                         tmp_path / f"probs_c{c}")
        argv = {
            "cluster": ["cluster", "--labels", str(labels), "--probs", str(tmp_path / "probs")],
            "match": ["match", "--pred", str(labels), "--gt", str(labels),
                      "--pred-probs", str(tmp_path / "probs")],
        }[command]
        code, _ = run(capsys, *argv)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("section", [
        {"overlap_denom": "bogus"},
        {"connectivity": 7},
        {"bootstrap_resample": "fold"},
        {"bootstrap_iterations": 2.5},
        {"bootstrap_iterations": True},
        {"bootstrap_seed": 1.5},
        {"bootstrap_seed": -1},
        {"threads": True},
        {"connectivity": 26.0},
    ])
    def test_bad_evaluation_config_fails_before_loading(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evaluation": section}))
        # the cohort does not exist: reaching the loader would exit with a data error
        code, _ = run(capsys, "--config", str(cfg), "evaluate",
                      "--cohort", str(tmp_path / "missing"), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("section, command, field", [
        pytest.param({"evaluation": {"threads": []}}, "evaluate", "threads", id="threads-list"),
        pytest.param({"evaluation": {"connectivity": [26]}}, "evaluate", "connectivity",
                     id="connectivity-list"),
        pytest.param({"evaluation": {"bootstrap_seed": [1, 2]}}, "evaluate", "bootstrap_seed",
                     id="bootstrap_seed-list"),
        pytest.param({"phantom": {"seed": [3]}}, "phantom", "seed", id="seed-list"),
        pytest.param({"phantom": {"dims": 48}}, "phantom", "dims", id="dims-scalar"),
        pytest.param({"phantom": {"spacing_mm": [-1, -1, 3]}}, "phantom", "spacing_mm",
                     id="spacing-negative"),
        pytest.param({"phantom": {"spacing_mm": [1.0, float("inf"), 3.0]}}, "phantom",
                     "spacing_mm", id="spacing-inf"),
        pytest.param({"phantom": {"spacing_mm": [1.0, 1.0]}}, "phantom", "spacing_mm",
                     id="spacing-count"),
        pytest.param({"phantom": {"spacing_mm": [1.0, "1", 3.0]}}, "phantom", "spacing_mm",
                     id="spacing-text"),
    ])
    def test_config_error_names_the_field(self, tmp_path, capsys, section, command, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        argv = {"evaluate": ["evaluate", "--cohort", str(tmp_path / "missing")],
                "phantom": ["phantom", "--patients", "3"]}[command]
        code = main(["--config", str(cfg), *argv, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "o").exists()


DETECTIONS_HEADER = "patient_id,fold,zone,gt_grade,pred_grade,score,dice,overlap_frac\n"
DETECTION_ROW = "p000,0,PZ,GS6,GS6,0.9,0.8,0.7\n"
POINTS_HEADER = "patient_id,x_vox,y_vox,z_vox,zone,gs_label\n"
NOT_UTF8 = b"\xff\xfe\xfa\n"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DIR = None  # a file entry that is created as a directory
INTENSITY_HEADER = json.dumps({"dims": [2, 2, 2], "spacing_mm": [1.0, 1.0, 3.0], "dtype": "f32",
                               "kind": "intensity", "data": "i.vol.raw"})
EVALUATE_MISSING = "evaluate --cohort {tmp}/missing --out {tmp}/o"
STACK_ARGV = "cluster --labels {tmp}/l --probs {tmp}/p"


def stack_files(payload=None, channel=3, **fields):
    """A 2x1x1 label volume l and a probability stack p_c0..p_c5 on its grid
    (all mass on channel 0), with one channel's payload or header fields
    replaced as given."""
    files = {"l.vol.json": json.dumps({"dims": [2, 1, 1], "spacing_mm": [1.0, 1.0, 3.0],
                                       "dtype": "u8", "kind": "label", "data": "l.vol.raw"}),
             "l.vol.raw": bytes(2)}
    for c in range(6):
        header = {"dims": [2, 1, 1], "spacing_mm": [1.0, 1.0, 3.0], "dtype": "f32",
                  "kind": "probability", "data": f"p_c{c}.vol.raw"}
        raw = np.full(2, float(c == 0), dtype="<f4").tobytes()
        if c == channel:
            header.update(fields)
            raw = raw if payload is None else payload
        files[f"p_c{c}.vol.json"] = json.dumps(header)
        files[f"p_c{c}.vol.raw"] = raw
    return files


def label_volume(dims, spacing_mm=(1.0, 1.0, 3.0), n_bytes=24):
    """A label volume v with the given header fields and an all-zero payload."""
    return {"v.vol.json": json.dumps({"dims": dims, "spacing_mm": spacing_mm, "dtype": "u8",
                                      "kind": "label", "data": "v.vol.raw"}),
            "v.vol.raw": bytes(n_bytes)}


def fold_manifest(fold):
    return {"m.json": json.dumps({"patients": [{"patient_id": "p000", "fold": fold}]})}


EVALUATE_MANIFEST = ("evaluate --gt-dir {cohort}/gt --pred-dir {cohort}/pred "
                     "--manifest {tmp}/m.json --out {tmp}/o --bootstrap 5")


def f32(*values):
    return np.array(values, dtype="<f4").tobytes()


# (id, files written under {tmp}, argv, exit code); {cohort} is the phantom
# cohort of the module fixture.  No malformed input may end in a traceback.
MALFORMED_INPUTS = [
    ("kappa-short-row", {"d.csv": DETECTIONS_HEADER + "p000,0,PZ,GS6\n"},
     "kappa --detections {tmp}/d.csv", EXIT_DATA),
    ("kappa-extra-field", {"d.csv": DETECTIONS_HEADER + DETECTION_ROW[:-1] + ",x\n"},
     "kappa --detections {tmp}/d.csv", EXIT_DATA),
    ("kappa-not-utf8", {"d.csv": NOT_UTF8}, "kappa --detections {tmp}/d.csv", EXIT_DATA),
    ("kappa-directory", {"d.csv": DIR}, "kappa --detections {tmp}/d.csv", EXIT_DATA),
    ("kappa-field-over-csv-limit", {"d.csv": DETECTIONS_HEADER + "x" * 200_000 + "\n"},
     "kappa --detections {tmp}/d.csv", EXIT_DATA),
    ("px2-short-row", {"p.csv": POINTS_HEADER + "p000,1,2\n"},
     "px2 --points {tmp}/p.csv --pred-dir {cohort}/pred", EXIT_DATA),
    ("px2-directory", {"p.csv": DIR}, "px2 --points {tmp}/p.csv --pred-dir {cohort}/pred",
     EXIT_DATA),
    ("wilcoxon-short-row", {"w.csv": "a,b\n0.9,0.7\n0.8\n"},
     "wilcoxon --csv {tmp}/w.csv --x a --y b", EXIT_DATA),
    ("wilcoxon-not-utf8", {"w.csv": NOT_UTF8}, "wilcoxon --csv {tmp}/w.csv --x a --y b",
     EXIT_DATA),
    ("wilcoxon-directory", {"w.csv": DIR}, "wilcoxon --csv {tmp}/w.csv --x a --y b", EXIT_DATA),
    ("wilcoxon-nan", {"w.csv": "a,b\n0.9,0.7\nnan,0.6\n0.7,0.5\n"},
     "wilcoxon --csv {tmp}/w.csv --x a --y b", EXIT_DATA),
    ("config-not-utf8", {"c.json": NOT_UTF8}, "--config {tmp}/c.json " + EVALUATE_MISSING,
     EXIT_CONFIG),
    ("config-directory", {"c.json": DIR}, "--config {tmp}/c.json " + EVALUATE_MISSING,
     EXIT_CONFIG),
    ("config-too-deep", {"c.json": DEEP_JSON}, "--config {tmp}/c.json " + EVALUATE_MISSING,
     EXIT_CONFIG),
    ("config-evaluation-not-object", {"c.json": '{"evaluation": 5}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-phantom-not-object", {"c.json": '{"phantom": 5}'},
     "--config {tmp}/c.json phantom --out {tmp}/o", EXIT_CONFIG),
    ("config-fp-target-nan", {"c.json": '{"evaluation": {"fp_targets": [1, NaN]}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-fp-grid-nan", {"c.json": '{"evaluation": {"fp_grid": [NaN]}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-min-volume-nan", {"c.json": '{"evaluation": {"min_volume_mm3": NaN}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-strict-duplicates-text", {"c.json": '{"evaluation": {"strict_duplicates": "no"}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-path-not-text", {"c.json": '{"evaluation": {"gt_dir": 5}}'},
     "--config {tmp}/c.json froc --pred-dir {cohort}/pred --manifest {cohort}/cohort.json",
     EXIT_CONFIG),
    ("evaluate-without-cohort", {}, "evaluate --out {tmp}/o", EXIT_CONFIG),
    ("evaluate-min-volume-nan", {}, EVALUATE_MISSING + " --min-volume nan", EXIT_CONFIG),
    ("cluster-min-volume-nan", {}, "cluster --labels {cohort}/gt/p000_labels --min-volume nan",
     EXIT_DATA),
    ("match-min-volume-nan", {},
     "match --pred {cohort}/gt/p000_labels --gt {cohort}/gt/p000_labels --min-volume nan",
     EXIT_DATA),
    ("manifest-directory", {"m.json": DIR},
     "froc --gt-dir {cohort}/gt --pred-dir {cohort}/pred --manifest {tmp}/m.json", EXIT_DATA),
    ("manifest-infinite-fold",
     {"m.json": '{"patients": [{"patient_id": "p000", "fold": Infinity}]}'},
     "froc --gt-dir {cohort}/gt --pred-dir {cohort}/pred --manifest {tmp}/m.json", EXIT_DATA),
    ("manifest-duplicate-id",
     {"m.json": '{"patients": [{"patient_id": "p000", "fold": 0}, '
                '{"patient_id": "p000", "fold": 1}]}'},
     "evaluate --gt-dir {cohort}/gt --pred-dir {cohort}/pred --manifest {tmp}/m.json "
     "--out {tmp}/o", EXIT_DATA),
    ("volume-header-directory", {"v.vol.json": DIR}, "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("volume-dims-beyond-memory",
     {"v.vol.json": INTENSITY_HEADER.replace("[2, 2, 2]", "[100000, 100000, 100000]")
      .replace("i.vol.raw", "v.vol.raw"), "v.vol.raw": bytes(32)},
     "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("stack-dims-beyond-memory", stack_files(channel=0, dims=[100000, 100000, 100000]),
     STACK_ARGV, EXIT_DATA),
    ("volume-header-too-deep", {"v.vol.json": DEEP_JSON}, "dice --a {tmp}/v --b {tmp}/v",
     EXIT_DATA),
    ("preprocess-zero-spacing", {"i.vol.json": INTENSITY_HEADER, "i.vol.raw": bytes(32)},
     "preprocess --in {tmp}/i --out {tmp}/o --spacing 0 1 3 --crop 1 1", EXIT_DATA),
    ("evaluate-out-under-file", {"f": "x"},
     "evaluate --cohort {cohort} --out {tmp}/f/o --bootstrap 5", EXIT_DATA),
    ("froc-out-under-file", {"f": "x"}, "froc --cohort {cohort} --out {tmp}/f/froc.csv",
     EXIT_DATA),
    ("cluster-out-under-file", {"f": "x"},
     "cluster --labels {cohort}/gt/p000_labels --out {tmp}/f/c.json", EXIT_DATA),
    ("px2-out-under-file", {"f": "x", "p.csv": POINTS_HEADER + "p000,0,0,0,PZ,GS6\n"},
     "px2 --points {tmp}/p.csv --pred-dir {cohort}/pred --out {tmp}/f/o", EXIT_DATA),
    ("phantom-out-under-file", {"f": "x"}, "phantom --patients 1 --out {tmp}/f/o", EXIT_DATA),
    ("stack-short-payload", stack_files(payload=bytes(4)), STACK_ARGV, EXIT_DATA),
    ("stack-long-payload", stack_files(payload=bytes(12)), STACK_ARGV, EXIT_DATA),
    ("stack-dims-mismatch", stack_files(dims=[1, 2, 1]), STACK_ARGV, EXIT_DATA),
    ("stack-spacing-mismatch", stack_files(spacing_mm=[1.0, 1.0, 2.0]), STACK_ARGV, EXIT_DATA),
    ("stack-nan", stack_files(payload=f32(np.nan, 0.0)), STACK_ARGV, EXIT_DATA),
    ("stack-above-one", stack_files(payload=f32(1.5, 0.0)), STACK_ARGV, EXIT_DATA),
    ("stack-sum-off", stack_files(payload=f32(2e-5, 0.0)), STACK_ARGV, EXIT_DATA),
    ("stack-label-kind", stack_files(payload=bytes(2), kind="label", dtype="u8"), STACK_ARGV,
     EXIT_DATA),
    ("phantom-spacing-negative", {"c.json": '{"phantom": {"spacing_mm": [-1, -1, 3]}}'},
     "--config {tmp}/c.json phantom --patients 3 --out {tmp}/o", EXIT_CONFIG),
    ("config-threads-list", {"c.json": '{"evaluation": {"threads": []}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    ("config-connectivity-list", {"c.json": '{"evaluation": {"connectivity": [26]}}'},
     "--config {tmp}/c.json " + EVALUATE_MISSING, EXIT_CONFIG),
    # header and manifest integers are taken as written, never coerced
    ("volume-dims-text", label_volume("234"), "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("volume-dims-float", label_volume([2.9, 3, 4]), "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("volume-dims-bool", label_volume([True, 3, 8]), "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("volume-spacing-text", label_volume([2, 3, 4], spacing_mm="113"),
     "dice --a {tmp}/v --b {tmp}/v", EXIT_DATA),
    ("manifest-fold-float", fold_manifest(1.7), EVALUATE_MANIFEST, EXIT_DATA),
    ("manifest-fold-text", fold_manifest("2"), EVALUATE_MANIFEST, EXIT_DATA),
    ("manifest-fold-bool", fold_manifest(True), EVALUATE_MANIFEST, EXIT_DATA),
]


@pytest.mark.parametrize("files, argv, expected", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_exit_code(cohort, tmp_path, capsys, files, argv, expected):
    for name, content in files.items():
        path = tmp_path / name
        if content is DIR:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    code = main(argv.format(tmp=tmp_path, cohort=cohort).split())
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("config error:" if expected == EXIT_CONFIG else "data error:")


class TestPhantomEvaluate:
    def test_evaluate_bundle_and_summary(self, cohort, tmp_path, capsys):
        code, payload = run(
            capsys, "evaluate", "--cohort", str(cohort),
            "--out", str(tmp_path / "out"), "--bootstrap", "20",
        )
        assert code == EXIT_OK
        assert payload["n_patients"] == 4
        assert payload["prostate_dice_mean"] == 1.0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "froc_cs.csv").exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_patients"] == 4
        assert report["confusion"]["with_fn"]["include_fn_as_gs6"] is True

    def test_fault_in_last_patient_writes_no_bundle(self, cohort, tmp_path, capsys):
        bad = tmp_path / "coh"
        shutil.copytree(cohort, bad)
        payload = bad / "pred" / "p003_prob_c5.vol.raw"
        payload.write_bytes(payload.read_bytes()[:-4])
        code = main(["evaluate", "--cohort", str(bad), "--out", str(tmp_path / "out"),
                     "--bootstrap", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error:") and str(payload) in err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, cohort, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run(
                capsys, "evaluate", "--cohort", str(cohort),
                "--out", str(tmp_path / name), "--bootstrap", "20",
            )
            assert code == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for n in names:
            assert (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()

    def test_zone_run(self, cohort, tmp_path, capsys):
        code, payload = run(
            capsys, "evaluate", "--cohort", str(cohort),
            "--out", str(tmp_path / "pz"), "--zone", "pz", "--bootstrap", "20",
        )
        # a small zonal cohort may well have empty strata; both codes are fine
        assert code in (EXIT_OK, EXIT_DATA)

    def test_strict_escalates_missing_stratum(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "phantom": {
                "n_patients": 2,
                "dims": [48, 48, 12],
                "lesions_per_grade": [1, 1, 1, 0],  # no GS>=8 stratum
                "n_folds": 2,
            }
        }))
        assert main(["--config", str(cfg), "--seed", "5", "phantom",
                     "--out", str(tmp_path / "coh")]) == EXIT_OK
        capsys.readouterr()
        code, payload = run(
            capsys, "--strict", "evaluate", "--cohort", str(tmp_path / "coh"),
            "--out", str(tmp_path / "out"), "--bootstrap", "10",
        )
        assert code == EXIT_DEGENERATE
        assert any("GS>=8" in m for m in payload["degenerate_stats"])
        # same run without --strict succeeds
        code, _ = run(
            capsys, "evaluate", "--cohort", str(tmp_path / "coh"),
            "--out", str(tmp_path / "out2"), "--bootstrap", "10",
        )
        assert code == EXIT_OK


class TestSmallCommands:
    def test_cluster_json(self, cohort, tmp_path, capsys):
        code, payload = run(
            capsys, "cluster", "--labels", str(cohort / "gt" / "p000_labels"),
            "--mode", "gs", "--out", str(tmp_path / "c.json"),
        )
        assert code == EXIT_OK
        assert payload["n_clusters"] == 4
        disk = json.loads((tmp_path / "c.json").read_text())
        assert disk == payload

    def test_match_self_is_perfect(self, cohort, capsys):
        labels = str(cohort / "gt" / "p000_labels")
        code, payload = run(capsys, "match", "--pred", labels, "--gt", labels,
                            "--mode", "cs")
        assert code == EXIT_OK
        assert payload["fp"] == 0 and payload["fn"] == 0
        assert payload["sensitivity"] == 1.0
        assert all(m["dice"] == 1.0 for m in payload["matches"])

    @pytest.mark.parametrize("flag, expected", [([], 2), (["--threads", "1"], 1)])
    def test_config_threads_apply_unless_flag_given(self, cohort, tmp_path, capsys,
                                                    monkeypatch, flag, expected):
        seen = []
        original = evaluation.stage_cohort

        def recording(patients, cfg):
            seen.append(cfg.threads)
            return original(patients, cfg)

        monkeypatch.setattr(evaluation, "stage_cohort", recording)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evaluation": {"threads": 2}}))
        code, _ = run(capsys, "--config", str(cfg), *flag, "froc", "--cohort", str(cohort))
        assert code == EXIT_OK
        assert seen == [expected]

    @pytest.mark.parametrize("grade, bundle_csv", [
        (None, "froc_cs.csv"), ("GS6", "froc_gs6.csv"), ("GS3+4", "froc_gs34.csv"),
        ("GS4+3", "froc_gs43.csv"), ("GS>=8", "froc_gs8.csv"),
    ], ids=["cs", "gs6", "gs34", "gs43", "gs8"])
    def test_froc_csv(self, cohort, bundle, tmp_path, capsys, grade, bundle_csv):
        out = tmp_path / "froc.csv"
        stratum = [] if grade is None else ["--grade", grade]
        code, payload = run(capsys, "froc", "--cohort", str(cohort), *stratum,
                            "--out", str(out))
        assert code == EXIT_OK
        assert payload["stratum"] == (grade or "CS")
        header = out.read_text().splitlines()[0]
        assert header == "threshold,mean_fp_per_patient,sensitivity"
        assert out.read_bytes() == (bundle / bundle_csv).read_bytes()

    def test_kappa_round_trip(self, cohort, tmp_path, capsys):
        code, _ = run(capsys, "evaluate", "--cohort", str(cohort),
                      "--out", str(tmp_path / "out"), "--bootstrap", "10")
        assert code == EXIT_OK
        code, payload = run(
            capsys, "kappa", "--detections", str(tmp_path / "out" / "detections.csv"),
            "--include-fn", "--bootstrap", "10",
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["kappa"] == report["confusion"]["with_fn"]["kappa"]
        assert payload["counts"] == report["confusion"]["with_fn"]["counts"]

    def test_dice_identical(self, cohort, capsys):
        labels = str(cohort / "gt" / "p000_labels")
        code, payload = run(capsys, "dice", "--a", labels, "--b", labels)
        assert code == EXIT_OK
        assert payload["dice"] == 1.0

    def test_wilcoxon_all_positive(self, tmp_path, capsys):
        f = tmp_path / "w.csv"
        f.write_text("a,b\n0.9,0.7\n0.8,0.6\n0.7,0.5\n0.9,0.5\n0.6,0.3\n")
        code, payload = run(capsys, "wilcoxon", "--csv", str(f), "--x", "a", "--y", "b")
        assert code == EXIT_OK
        assert payload["p_value"] == 0.03125
        assert payload["mode"] == "exact"

    def test_wilcoxon_degenerate_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "w.csv"
        f.write_text("a,b\n0.5,0.5\n0.7,0.7\n")
        code, _ = run(capsys, "wilcoxon", "--csv", str(f), "--x", "a", "--y", "b")
        assert code == EXIT_DATA

    def test_px2_uncovered_point_reads_gs6(self, cohort, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text(
            "patient_id,x_vox,y_vox,z_vox,zone,gs_label\n"
            "p000,0,0,0,PZ,GS6\n"
        )
        code, payload = run(
            capsys, "px2", "--points", str(pts), "--pred-dir", str(cohort / "pred"),
            "--out", str(tmp_path / "px2"),
        )
        assert code == EXIT_OK
        rows = (tmp_path / "px2" / "px2_records.csv").read_text().splitlines()
        assert rows[1].endswith(",GS6")

    def test_losscheck_passes(self, capsys):
        code, payload = run(capsys, "--seed", "3", "losscheck", "--instances", "3")
        assert code == EXIT_OK
        assert payload["pass"] is True
        assert payload["branch_loss_max_rel_err"] < 1e-4
        assert payload["attention_gate_max_rel_err"] < 1e-4

    def test_preprocess_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        v = Volume(
            rng.uniform(0, 800, size=(4, 128, 128)).astype(np.float32),
            (0.5, 0.5, 3.0),
            KIND_INTENSITY,
        )
        write_volume(v, tmp_path / "in")
        code, payload = run(
            capsys, "preprocess", "--in", str(tmp_path / "in"),
            "--out", str(tmp_path / "out"), "--spacing", "1", "1", "3",
            "--crop", "48", "48",
        )
        assert code == EXIT_OK
        out = read_volume(tmp_path / "out")
        assert out.dims == (48, 48, 4)
        assert float(out.values.min()) >= 0.0 and float(out.values.max()) <= 1.0
