"""Every field of EvaluationConfig and PhantomConfig, through the config file
and through its flag where one exists: each invalid value (NaN, +-inf, a
bool, text, a list for a scalar, a scalar for a list, null, out of range, a
wrong length) exits 2 with a config error that names the field, and writes
nothing.  Where argparse itself rejects a flag's text, its usage error names
the flag.  Each end of each field's interval is accepted or rejected as the
protocol states, in-process and through the CLI."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from lesionkit.cli import EXIT_CONFIG, EXIT_DATA, main
from lesionkit.evaluation import EvaluationConfig
from lesionkit.phantom import PhantomConfig

NAN, INF = float("nan"), float("inf")
PATH_FIELDS = ("gt_dir", "pred_dir", "zones_dir", "fold_manifest", "output_dir")

#: a valid value of each field, the one the invalid values are made from
EVALUATION_GOOD = {
    "gt_dir": "gt", "pred_dir": "pred", "zones_dir": "zones", "fold_manifest": "cohort.json",
    "output_dir": "out",
    "connectivity": 26, "min_volume_mm3": 45.0, "overlap_frac": 0.1, "overlap_denom": "pred",
    "zone": "pz", "strict_duplicates": False, "bootstrap_iterations": 10, "bootstrap_seed": 0,
    "bootstrap_resample": "lesion", "fp_targets": [1.0, 1.5], "fp_grid": [0.5, 1.0],
}
PHANTOM_GOOD = {
    "seed": 0, "n_patients": 3, "dims": [48, 48, 12], "spacing_mm": [1.0, 1.0, 3.0],
    "lesions_per_grade": [1, 1, 1, 1], "lesion_radius_mm": [2.5, 5.0], "fp_per_patient": 0,
    "fp_score": 0.9, "miss_fraction": 0.0,
    "misgrade": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                 [0.0, 0.0, 0.0, 1.0]],
    "score_range": [0.55, 0.95], "pz_fraction": 0.6, "tz_scale": 0.55, "min_lesion_voxels": 15,
    "max_place_retries": 400, "n_folds": 3,
}
#: the phantom section every phantom run starts from: small and valid
PHANTOM_BASE = {"n_patients": 3, "n_folds": 3, "dims": [48, 48, 12]}

#: values out of each numeric field's range (or off its list of choices)
OUT_OF_RANGE = {
    "connectivity": [7, 0], "min_volume_mm3": [-0.5], "overlap_frac": [0.0, -0.1, 1.5],
    "overlap_denom": ["both"], "zone": ["apex", "PZ"], "bootstrap_iterations": [0, -3],
    "bootstrap_seed": [-1], "bootstrap_resample": ["fold"], "fp_targets": [[1.0, -0.5]],
    "fp_grid": [[-1.0]],
    "seed": [-1], "n_patients": [0, -2], "dims": [[48, 0, 12], [-1, 48, 12]],
    "spacing_mm": [[0.0, 1.0, 3.0], [1.0, -1.0, 3.0]], "lesions_per_grade": [[1, -1, 1, 1]],
    "lesion_radius_mm": [[0.0, 5.0], [-1.0, 5.0]], "fp_per_patient": [-1],
    "fp_score": [0.5, 0.2, 1.5], "miss_fraction": [-0.1, 1.5],
    "misgrade": [[[-0.5, 1.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]]],
    "score_range": [[0.5, 0.9], [0.6, 1.5]], "pz_fraction": [-0.1, 1.5],
    "tz_scale": [0.0, 1.0, -0.5], "min_lesion_voxels": [0], "max_place_retries": [0, -1],
    "n_folds": [0, 4],
}

#: field -> argv of a command whose flag sets it to VALUE, and the flag; every
#: input is MISSING, so a run that passes the config checks exits 3
FLAGS = {
    "connectivity": ("cluster --labels MISSING --connectivity VALUE", "--connectivity"),
    "min_volume_mm3": ("cluster --labels MISSING --min-volume VALUE", "--min-volume"),
    "overlap_frac": ("match --pred MISSING --gt MISSING --overlap VALUE", "--overlap"),
    "overlap_denom": ("match --pred MISSING --gt MISSING --denom VALUE", "--denom"),
    "zone": ("evaluate --cohort MISSING --out OUT --zone VALUE", "--zone"),
    "bootstrap_iterations": ("kappa --detections MISSING --bootstrap VALUE", "--bootstrap"),
    "bootstrap_seed": ("--seed VALUE kappa --detections MISSING", "--seed"),
    "bootstrap_resample": ("kappa --detections MISSING --resample VALUE", "--resample"),
    "seed": ("--seed VALUE phantom --out OUT", "--seed"),
    "n_patients": ("phantom --out OUT --patients VALUE", "--patients"),
}

#: list fields of any nonzero length
VARIABLE_LENGTH = {"fp_targets", "fp_grid"}


def invalid_values(field, good):
    """(label, value) of each invalid class for one field."""
    bad = [("nan", NAN), ("inf", INF), ("-inf", -INF), ("text", "x")]
    if field != "strict_duplicates":
        bad.append(("bool", True))
    if field != "zone" and field not in PATH_FIELDS:
        bad.append(("null", None))
    if field in PATH_FIELDS:  # any text is a path: the rest must still be refused
        return [(k, v) for k, v in bad if k not in ("text",)] + [("number", 3), ("list", [good])]
    if isinstance(good, list):
        leaf = good[0][0] if isinstance(good[0], list) else good[0]
        bad = [(f"leaf-{k}", _first(good, v)) for k, v in bad]  # in place of the first leaf
        bad += [("scalar", leaf), ("null", None), ("empty", [])]
        if field not in VARIABLE_LENGTH:
            bad += [("short", good[:-1]), ("long", good + good[:1])]
        if isinstance(good[0], list):
            bad += [("flat", list(range(1, len(good) + 1))), ("short-row", [r[:-1] for r in good])]
    else:
        bad.append(("list", [good]))
    bad += [(f"out-{v!r}", v) for v in OUT_OF_RANGE.get(field, [])]
    return bad


def _first(good, leaf):
    if isinstance(good[0], list):
        return [[leaf] + good[0][1:]] + good[1:]
    return [leaf] + good[1:]


CASES = [
    pytest.param("evaluation", field, value, id=f"{field}-{label}")
    for field, good in EVALUATION_GOOD.items() for label, value in invalid_values(field, good)
] + [
    pytest.param("phantom", field, value, id=f"{field}-{label}")
    for field, good in PHANTOM_GOOD.items() for label, value in invalid_values(field, good)
]


def run(argv):
    """main's exit code and stderr; an argparse usage error exits through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def file_argv(tmp_path, section, field, value):
    """argv of a run whose config file sets field to value."""
    cfg = tmp_path / "cfg.json"
    body = {field: value} if section == "evaluation" else {**PHANTOM_BASE, field: value}
    cfg.write_text(json.dumps({section: body}))
    if section == "evaluation":  # cluster reads every field of the section
        return ["--config", cfg, "cluster", "--labels", tmp_path / "missing"]
    return ["--config", cfg, "phantom", "--out", tmp_path / "out"]


def test_every_field_is_covered():
    assert set(EVALUATION_GOOD) == {f.name for f in dataclasses.fields(EvaluationConfig)}
    assert set(PHANTOM_GOOD) == {f.name for f in dataclasses.fields(PhantomConfig)}
    for cls in (EvaluationConfig, PhantomConfig):  # and each field has a spec
        assert all("spec" in f.metadata for f in dataclasses.fields(cls))
    assert EvaluationConfig(**EVALUATION_GOOD) and PhantomConfig(**PHANTOM_GOOD)


@pytest.mark.parametrize("section, field, value", CASES)
def test_invalid_value_through_the_file(tmp_path, section, field, value):
    code, err = run(file_argv(tmp_path, section, field, value))
    assert code == EXIT_CONFIG and err.startswith("config error:") and field in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # nothing written


@pytest.mark.parametrize("section, field, value", CASES)
def test_invalid_value_in_process(section, field, value):
    cls, base = ((EvaluationConfig, {}) if section == "evaluation"
                 else (PhantomConfig, PHANTOM_BASE))
    with pytest.raises(ValueError, match=field):
        cls(**{**base, field: value})


FLAG_CASES = [
    pytest.param(field, text, id=f"{field}-{text}")
    for field in FLAGS
    for text in ["nan", "inf", "-inf", "true", "x", "[1]", "null"]
    + [json.dumps(v) for v in OUT_OF_RANGE.get(field, []) if not isinstance(v, list)]
]


@pytest.mark.parametrize("field, text", FLAG_CASES)
def test_invalid_value_through_the_flag(tmp_path, field, text):
    template, flag = FLAGS[field]
    subs = {"MISSING": tmp_path / "missing", "OUT": tmp_path / "out", "VALUE": text}
    code, err = run([subs.get(a, a) for a in template.split()])
    assert code == EXIT_CONFIG
    if err.startswith("usage: lesionkit"):  # argparse refused the text
        assert flag in err
    else:  # --seed names the flag: it sets two fields
        assert err.startswith("config error:") and (field in err or flag in err)
    assert list(tmp_path.iterdir()) == []


#: (section, field, value, accepted): each end of each interval, and the
#: cross-field rules that decide near it
BOUNDS = [
    ("evaluation", "min_volume_mm3", 0, True),
    ("evaluation", "min_volume_mm3", -1e-9, False),
    ("evaluation", "min_volume_mm3", INF, False),
    ("evaluation", "overlap_frac", 0, False),
    ("evaluation", "overlap_frac", 1e-9, True),
    ("evaluation", "overlap_frac", 1.0, True),
    ("evaluation", "overlap_frac", 1.0 + 1e-9, False),
    ("evaluation", "bootstrap_iterations", 1, True),
    ("evaluation", "bootstrap_iterations", 0, False),
    ("evaluation", "bootstrap_iterations", 2**70, True),
    ("evaluation", "bootstrap_seed", 0, True),
    ("evaluation", "bootstrap_seed", -1, False),
    ("evaluation", "bootstrap_seed", 2**70, True),
    ("evaluation", "connectivity", 6, True),
    ("evaluation", "connectivity", 18, True),
    ("evaluation", "connectivity", 26, True),
    ("evaluation", "fp_targets", [0], True),
    ("evaluation", "fp_targets", [1e300], True),
    ("evaluation", "fp_targets", [-1e-9], False),
    ("evaluation", "fp_grid", [0.0, 0.0], True),
    ("evaluation", "fp_grid", [INF], False),
    ("evaluation", "zone", None, True),
    ("evaluation", "zone", "tz", True),
    ("phantom", "seed", 0, True),
    ("phantom", "n_patients", 3, True),
    ("phantom", "dims", [1, 1, 1], True),
    ("phantom", "spacing_mm", [3.0, 3.0, 5.0], True),
    ("phantom", "spacing_mm", [1.0, 1.0, INF], False),
    ("phantom", "lesions_per_grade", [0, 0, 0, 0], True),
    ("phantom", "lesion_radius_mm", [1e-9, 5.0], True),
    ("phantom", "lesion_radius_mm", [5.0, 5.0], True),
    ("phantom", "lesion_radius_mm", [5.0, 2.5], False),
    ("phantom", "lesion_radius_mm", [2.5, INF], False),
    ("phantom", "fp_per_patient", 0, True),
    ("phantom", "fp_score", 0.5, False),
    ("phantom", "fp_score", 0.5 + 1e-9, True),
    ("phantom", "fp_score", 1.0, True),
    ("phantom", "miss_fraction", 0, True),
    ("phantom", "miss_fraction", 1, True),
    ("phantom", "miss_fraction", 1 + 1e-9, False),
    ("phantom", "misgrade", [[0.5, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], True),
    ("phantom", "misgrade", [[0.5, 0.6, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], False),
    ("phantom", "score_range", [0.5 + 1e-9, 1.0], True),
    ("phantom", "score_range", [0.9, 0.9], True),
    ("phantom", "score_range", [0.9, 0.8], False),
    ("phantom", "score_range", [0.6, 1.0 + 1e-9], False),
    ("phantom", "pz_fraction", 0, True),
    ("phantom", "pz_fraction", 1, True),
    ("phantom", "tz_scale", 1e-9, True),
    ("phantom", "tz_scale", 1 - 1e-9, True),
    ("phantom", "min_lesion_voxels", 14, False),  # 42 mm^3 is under the floor
    ("phantom", "min_lesion_voxels", 15, True),
    ("phantom", "max_place_retries", 1, True),
    ("phantom", "n_folds", 1, True),
    ("phantom", "n_folds", 3, True),  # n_folds == n_patients
]


@pytest.mark.parametrize("section, field, value, accepted", BOUNDS,
                         ids=[f"{f}-{v!r}" for _, f, v, _ in BOUNDS])
def test_interval_ends(tmp_path, section, field, value, accepted):
    cls, base = ((EvaluationConfig, {}) if section == "evaluation"
                 else (PhantomConfig, PHANTOM_BASE))
    if accepted:
        cls(**{**base, field: value})
    else:
        with pytest.raises(ValueError, match=field):
            cls(**{**base, field: value})
    if section == "evaluation":  # accepted, the run goes on to read the missing labels
        code, err = run(file_argv(tmp_path, section, field, value))
        assert code == (EXIT_DATA if accepted else EXIT_CONFIG), err
    elif not accepted:
        code, err = run(file_argv(tmp_path, section, field, value))
        assert code == EXIT_CONFIG and field in err


def test_smallest_lesion_at_the_floor_is_accepted():
    # 1 voxel of 3 x 3 x 5 mm is exactly 45 mm^3
    PhantomConfig(**PHANTOM_BASE, spacing_mm=(3.0, 3.0, 5.0), min_lesion_voxels=1)


@pytest.mark.parametrize("field, value", [("zone", np.array(["pz"])),
                                          ("overlap_denom", np.array(["gt"])),
                                          ("connectivity", [26])])
def test_an_array_or_list_is_no_choice(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be one of"):
        EvaluationConfig(**{field: value})
