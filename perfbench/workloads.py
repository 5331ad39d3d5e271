"""The three benchmark workloads, their inputs and their output checks.

Each workload builds its inputs from the workload seed alone (the seed is
the phantom generator's seed; every other setting is fixed here), runs one
operation per call of ``run``, and checks the operation's output in
``check``, outside the timed region.  ``check`` returns the list of
errors and the digests that must repeat across every operation of a run.

- ``evaluate_disk``: the ``lesionkit evaluate`` CLI path, in-process, on an
  on-disk "M" cohort (40 patients, 96x96x24), writing a fresh bundle.
  Large grids with few lesions, so the voxel layers (volume read,
  argmax, clustering) dominate.  The cohort is written just before the
  timed loop, so its reads come from a warm page cache.
- ``aggregate_dense``: one in-memory ``evaluate_cohort`` on 240 small
  patients (48x48x12) with 12 blobs each.  About 1,900 records and 1,200
  distinct scores, so matching, the FROC sweep and the bootstrap dominate
  and the volume layer does nothing.  Not listed in ``BENCHMARK.json``:
  on a shared 2-core host its operation times follow the host-speed
  reference (``hostspeed.py``) less closely than the other two
  workloads', and still spread about 20% between runs after adjustment,
  close to the benchmark's 25% bound.  Run it by name to trace those
  layers.
- ``phantom_write``: one ``write_cohort`` of the ``aggregate_dense`` cohort
  into a fresh directory: phantom placement and rendering plus volume
  writes, the costs of the ledger release gate.

``BENCHMARK.json`` lists ``evaluate_disk`` and ``phantom_write``; between
them every layer runs inside the timed operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from lesionkit import cli, phantom
from lesionkit.evaluation import EvaluationConfig, evaluate_cohort, report_to_dict
from lesionkit.grades import GRADE_ORDER
from lesionkit.metrics import ConfusionMatrix, quadratic_weighted_kappa

HERE = Path(__file__).resolve().parent

# The misgrade table of scripts/run_phantom_eval.py: a detected lesion keeps
# its grade 70% of the time and drifts to a neighbouring grade otherwise.
DRIFT = (
    (0.7, 0.3, 0.0, 0.0),
    (0.15, 0.7, 0.15, 0.0),
    (0.0, 0.15, 0.7, 0.15),
    (0.0, 0.0, 0.3, 0.7),
)

# Cohort settings per size.  "full" is the benchmark; "smoke" is a tiny
# cohort for the benchmark's own test.
DISK_COHORT = {
    "full": dict(n_patients=40, dims=(96, 96, 24), fp_per_patient=2, miss_fraction=0.3),
    "smoke": dict(n_patients=5, dims=(48, 48, 12), fp_per_patient=1, miss_fraction=0.3,
                  lesion_radius_mm=(2.5, 4.0)),
}
DENSE_COHORT = {
    "full": dict(n_patients=240, dims=(48, 48, 12), lesions_per_grade=(2, 2, 2, 2),
                 fp_per_patient=4, miss_fraction=0.2, lesion_radius_mm=(2.5, 3.0)),
    "smoke": dict(n_patients=10, dims=(48, 48, 12), lesions_per_grade=(2, 2, 2, 2),
                  fp_per_patient=4, miss_fraction=0.2, lesion_radius_mm=(2.5, 3.0)),
}
BOOTSTRAP_ITERATIONS = {"full": 1000, "smoke": 20}


def phantom_config(params: dict, seed: int) -> phantom.PhantomConfig:
    return phantom.PhantomConfig(seed=seed, misgrade=DRIFT, **params)


def file_digests(root: Path) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = Path(dirpath) / name
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
            out[path.relative_to(root).as_posix()] = h.hexdigest()
    return dict(sorted(out.items()))


def fsync_tree(root: Path) -> None:
    """Flush every file under root to disk, so that write-back of a freshly
    written input does not overlap the timed operations."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def tree_digest(digests: dict) -> str:
    h = hashlib.sha256()
    for rel, hexd in digests.items():
        h.update(f"{rel}\0{hexd}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Ledger oracle: what the report must say, from the generator's script


def ledger_expectations(ledger) -> dict:
    """Exact CS and per-grade FROC points, both confusion matrices and their
    kappas, derived from the ledger with the phantom's public helpers (the
    same oracle as the C6 acceptance test)."""
    exp = {"froc CS": phantom.ledger_froc_cs(ledger)}
    for g in GRADE_ORDER:
        exp[f"froc {g.display}"] = (
            None if phantom.ledger_grade_gt_count(ledger, g) == 0
            else phantom.ledger_froc_grade(ledger, g)
        )
    for variant, with_fn in (("tp_only", False), ("with_fn", True)):
        want = phantom.ledger_confusion(ledger, include_fn_as_gs6=with_fn)
        exp[f"confusion {variant}"] = [list(r) for r in want]
        exp[f"kappa {variant}"] = quadratic_weighted_kappa(ConfusionMatrix(want, with_fn)).kappa
    return exp


def report_observations(report: dict) -> dict:
    """The same quantities read from a serialized report (report.json)."""

    def points(curve):
        return None if curve is None else [tuple(p) for p in curve["points"]]

    obs = {"froc CS": points(report["froc"]["cs"])}
    for g in GRADE_ORDER:
        obs[f"froc {g.display}"] = points(report["froc"]["by_grade"][g.display])
    for variant in ("tp_only", "with_fn"):
        obs[f"confusion {variant}"] = report["confusion"][variant]["counts"]
        obs[f"kappa {variant}"] = report["confusion"][variant]["kappa"]
    return obs


def compare_with_ledger(expected: dict, observed: dict) -> list[str]:
    errors = []
    for key, want in expected.items():
        got = observed[key]
        if key.startswith("kappa"):
            if abs(got - want) > 1e-12:
                errors.append(f"{key}: {got!r} != ledger {want!r}")
        elif got != want:
            errors.append(f"{key} differs from the ledger")
    return errors


# ---------------------------------------------------------------------------
# Workloads


class EvaluateDisk:
    name = "evaluate_disk"

    def __init__(self, size: str, seed: int, work: Path):
        self.cfg = phantom_config(DISK_COHORT[size], seed)
        self.bootstrap = BOOTSTRAP_ITERATIONS[size]
        self.n_patients = self.cfg.n_patients
        self.work = work
        self.cohort = work / "cohort"
        self.expected = None

    def describe(self) -> dict:
        return {
            "cohort": dataclasses.asdict(self.cfg),
            "evaluation": {"bootstrap_iterations": self.bootstrap, "threads": 1,
                           "other": "defaults"},
            "operation": "lesionkit evaluate --cohort C --out <fresh dir> --bootstrap N, in-process",
        }

    def build(self) -> None:
        # Written by a child interpreter, so that generating and rendering
        # the cohort does not count in this process's peak RSS.
        shutil.rmtree(self.cohort, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(Path(phantom.__file__).resolve().parents[1]))
        subprocess.run(
            [sys.executable, str(HERE / "write_cohort.py"),
             json.dumps(dataclasses.asdict(self.cfg)), str(self.cohort)],
            env=env, check=True, timeout=150,
        )

    def prepare(self) -> None:
        fsync_tree(self.cohort)
        _, ledger = phantom.generate_cohort(self.cfg)
        self.expected = ledger_expectations(ledger)

    def run(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["evaluate", "--cohort", str(self.cohort),
                           "--out", str(self.work / f"bundle{i}"),
                           "--bootstrap", str(self.bootstrap)])
        return rc, out.getvalue()

    def check(self, i: int, result):
        rc, stdout = result
        bundle = self.work / f"bundle{i}"
        try:
            if rc != 0:
                return [f"evaluate exited with {rc}"], None
            if json.loads(stdout)["n_patients"] != self.n_patients:
                return ["CLI summary reports the wrong patient count"], None
            report = json.loads((bundle / "report.json").read_text())
            errors = compare_with_ledger(self.expected, report_observations(report))
            digests = file_digests(bundle)
            return errors, {"tree": tree_digest(digests), "files": digests}
        finally:
            shutil.rmtree(bundle, ignore_errors=True)


class AggregateDense:
    name = "aggregate_dense"

    def __init__(self, size: str, seed: int, work: Path):
        self.cfg = phantom_config(DENSE_COHORT[size], seed)
        self.eval_cfg = EvaluationConfig(bootstrap_iterations=BOOTSTRAP_ITERATIONS[size])
        self.n_patients = self.cfg.n_patients
        self.patients = None
        self.ledger = None
        self.expected = None

    def describe(self) -> dict:
        return {
            "cohort": dataclasses.asdict(self.cfg),
            "evaluation": self.eval_cfg.to_dict() | {"threads": self.eval_cfg.threads},
            "operation": "evaluate_cohort(patients, cfg), in memory",
        }

    def build(self) -> None:
        self.patients = None  # release the previous build first
        patients, self.ledger = phantom.generate_cohort(self.cfg)
        self.patients = phantom.phantom_patient_evals(patients, self.ledger)

    def prepare(self) -> None:
        self.expected = ledger_expectations(self.ledger)

    def run(self, i: int):
        return evaluate_cohort(self.patients, self.eval_cfg)

    def check(self, i: int, report):
        d = report_to_dict(report)
        errors = compare_with_ledger(self.expected, report_observations(d))
        text = json.dumps(d, indent=2, sort_keys=True) + "\n"
        return errors, {"report": hashlib.sha256(text.encode()).hexdigest()}


class PhantomWrite:
    name = "phantom_write"

    def __init__(self, size: str, seed: int, work: Path):
        self.cfg = phantom_config(DENSE_COHORT[size], seed)
        self.n_patients = self.cfg.n_patients
        self.work = work
        self.ledger = None

    def describe(self) -> dict:
        return {
            "cohort": dataclasses.asdict(self.cfg),
            "operation": "write_cohort(cfg, <fresh dir>)",
        }

    def build(self) -> None:
        # the reference ledger every written cohort is checked against
        self.ledger = None
        _, self.ledger = phantom.generate_cohort(self.cfg)

    def prepare(self) -> None:
        pass

    def run(self, i: int):
        return phantom.write_cohort(self.cfg, self.work / f"cohort{i}")

    def check(self, i: int, ledger):
        out = self.work / f"cohort{i}"
        try:
            errors = []
            if ledger != self.ledger:
                errors.append("write_cohort returned a different ledger")
            stored = phantom.ledger_from_dict(json.loads((out / "ledger.json").read_text()))
            if stored != self.ledger:
                errors.append("ledger.json does not round-trip to the generated ledger")
            manifest = json.loads((out / "cohort.json").read_text())
            folds = [(p["patient_id"], p["fold"]) for p in manifest["patients"]]
            if folds != [(p.patient_id, p.fold) for p in self.ledger.patients]:
                errors.append("cohort.json lists other patients or folds")
            digests = file_digests(out)
            # per patient: labels, two zone masks and six channels, each a
            # header/payload pair
            if len(digests) != 2 + 18 * self.n_patients:
                errors.append(f"cohort has {len(digests)} files")
            return errors, {
                "tree": tree_digest(digests),
                "n_files": len(digests),
                "ledger.json": digests.get("ledger.json"),
                "cohort.json": digests.get("cohort.json"),
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (EvaluateDisk, AggregateDense, PhantomWrite)}
