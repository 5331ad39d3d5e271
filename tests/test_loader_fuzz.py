"""Loader fuzz: arbitrary bytes, and JSON or CSV documents that are mostly
well formed with faults mixed in, go through main() as each kind of input
file.  main must return, never raise, and exit 0, 2 or 3, with a 2 or 3
explained on stderr."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionkit.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from lesionkit.evaluation import EvaluationConfig
from lesionkit.volume import KIND_LABEL, KIND_PROBABILITY, Volume, write_volume

FUZZ = settings(max_examples=100, deadline=None)

GRADES = ["GS6", "GS3+4", "GS4+3", "GS>=8", "2", "5"]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error:")
    if code == EXIT_DATA:
        assert err.getvalue().startswith("data error:")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A one-patient cohort "a" on a 4x4x2 grid with one GS4+3 lesion, plus a
    config that keeps bootstraps short."""
    root = tmp_path_factory.mktemp("fuzz")
    lab = np.ones((2, 4, 4), dtype=np.uint8)
    lab[:, :2, :2] = 4
    write_volume(Volume(lab, (4.0, 4.0, 3.0), KIND_LABEL), root / "gt" / "a_labels")
    for c in range(6):
        write_volume(Volume((lab == c).astype(np.float32), (4.0, 4.0, 3.0), KIND_PROBABILITY),
                     root / "pred" / f"a_prob_c{c}")
    (root / "cfg.json").write_text(json.dumps({"evaluation": {"bootstrap_iterations": 3}}))
    return root


def any_json(keys=()):
    """Arbitrary JSON values; object keys are drawn partly from keys."""
    scalars = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6)
    key = st.sampled_from(keys) | st.text(max_size=6) if keys else st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(key, inner, max_size=5),
        max_leaves=20,
    )


JSON = any_json()
JUNK_CELL = st.text(max_size=4) | st.floats().map(repr)


def or_junk(good):
    return good | JSON


def encoded(doc):
    """Arbitrary bytes, or the JSON text of doc."""
    return st.binary(max_size=64) | doc.map(lambda d: json.dumps(d).encode())


HEADER = st.fixed_dictionaries({
    "dims": or_junk(st.lists(st.integers(1, 3), min_size=3, max_size=3)),
    "spacing_mm": or_junk(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=3)),
    "dtype": or_junk(st.sampled_from(["u8", "f32"])),
    "kind": or_junk(st.sampled_from(["label", "intensity", "probability"])),
    "data": or_junk(st.just("v.vol.raw")),
})


@st.composite
def volume_files(draw):
    """A header of mostly valid fields, as JSON or replaced by arbitrary
    bytes, and a payload of the size it names (labels mostly in range) or of
    arbitrary bytes."""
    header = draw(HEADER)
    dims = header["dims"]
    n = int(np.prod(dims)) if isinstance(dims, list) and len(dims) == 3 and \
        all(type(d) is int and 0 < d < 4 for d in dims) else 8
    size = n * (4 if header["dtype"] == "f32" else 1)
    payload = draw(st.binary(min_size=size, max_size=size).map(lambda b: bytes(x % 7 for x in b))
                   | st.binary(max_size=40))
    raw_header = draw(st.just(json.dumps(header).encode()) | st.binary(max_size=64))
    return raw_header, payload


@st.composite
def csv_docs(draw, columns):
    """A header naming the columns (or some other list of names), then rows
    of valid cells for their columns, each row with at most one fault: a
    junk cell, a missing last field or an extra field."""
    names = list(columns)
    header = draw(st.permutations(names)
                  | st.lists(st.sampled_from(names) | st.text(max_size=3), max_size=9))
    faults = st.none() | st.integers(-1, len(header))
    lines = [header]
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(faults)
        row = [draw(JUNK_CELL if i == fault else columns.get(name, JUNK_CELL))
               for i, name in enumerate(header)]
        if fault == -1:
            row = row[:-1]
        elif fault == len(header):
            row.append(draw(JUNK_CELL))
        lines.append(row)
    return "".join(",".join(line) + "\n" for line in lines).encode()


def floats_text(lo=None, hi=None):
    return st.floats(lo, hi).map(repr)


DETECTION_CELLS = {
    "patient_id": st.sampled_from(["a", "b", "c"]),
    "fold": st.integers(0, 2).map(str),
    "zone": st.sampled_from(["PZ", "TZ", "unknown"]),
    "gt_grade": st.sampled_from(GRADES),
    "pred_grade": st.sampled_from(GRADES + ["MISSED"]),
    "score": floats_text(0.0, 1.0),
    "dice": floats_text(0.0, 1.0),
    "overlap_frac": floats_text(0.0, 1.0),
}
POINT_CELLS = {
    "patient_id": st.sampled_from(["a", "a", "a", "b"]),
    "x_vox": st.integers(0, 4).map(str),  # 4 is outside the grid
    "y_vox": st.integers(0, 3).map(str),
    "z_vox": st.integers(0, 1).map(str),
    "zone": st.sampled_from(["PZ", "TZ"]),
    "gs_label": st.sampled_from(GRADES),
}
MANIFEST = st.fixed_dictionaries({"patients": or_junk(st.lists(or_junk(st.fixed_dictionaries({
    "patient_id": or_junk(st.sampled_from(["a", "b"])),
    "fold": or_junk(st.integers(0, 3)),
})), max_size=3))})
CONFIG_KEYS = ["phantom", "evaluation", *EvaluationConfig.__dataclass_fields__]


@FUZZ
@given(files=volume_files())
def test_volume_header(work, files):
    (work / "v.vol.json").write_bytes(files[0])
    (work / "v.vol.raw").write_bytes(files[1])
    run_main(["dice", "--a", work / "v", "--b", work / "v"])


@FUZZ
@given(doc=encoded(st.fixed_dictionaries({}, optional={
    "evaluation": or_junk(any_json(CONFIG_KEYS)), "phantom": any_json(),
})))
def test_config_file(work, doc):
    (work / "c.json").write_bytes(doc)
    run_main(["--config", work / "c.json", "evaluate", "--cohort", work / "missing",
              "--out", work / "out"])


@FUZZ
@given(doc=encoded(or_junk(MANIFEST)))
def test_fold_manifest(work, doc):
    (work / "m.json").write_bytes(doc)
    run_main(["--config", work / "cfg.json", "froc", "--gt-dir", work / "gt",
              "--pred-dir", work / "pred", "--manifest", work / "m.json"])


@FUZZ
@given(doc=st.binary(max_size=64) | csv_docs(DETECTION_CELLS),
       flags=st.sampled_from([[], ["--include-fn"], ["--resample", "patient"]]))
def test_detections_csv(work, doc, flags):
    (work / "d.csv").write_bytes(doc)
    run_main(["kappa", "--detections", work / "d.csv", "--bootstrap", "3", *flags])


@FUZZ
@given(doc=st.binary(max_size=64) | csv_docs(POINT_CELLS))
def test_points_csv(work, doc):
    (work / "p.csv").write_bytes(doc)
    run_main(["--config", work / "cfg.json", "px2", "--points", work / "p.csv",
              "--pred-dir", work / "pred"])


@FUZZ
@given(doc=st.binary(max_size=64) | csv_docs({"x": floats_text(), "y": floats_text()}))
def test_wilcoxon_csv(work, doc):
    (work / "w.csv").write_bytes(doc)
    run_main(["wilcoxon", "--csv", work / "w.csv", "--x", "x", "--y", "y"])
