"""What importing lesionkit loads: no scipy module until the first Wilcoxon
test, which imports scipy.stats.  Clustering labels components with the
package's own numpy labeller, so phantom, cluster and evaluate load no
scipy module at all.

Each check runs in a fresh interpreter, since the test process itself has
long since imported scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage

from lesionkit import cluster

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys

import lesionkit, lesionkit.cli
from lesionkit import lesion_maps, read_volume, wilcoxon_one_sided
from lesionkit.phantom import PhantomConfig, write_cohort


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


out = sys.argv[1]
write_cohort(PhantomConfig(n_patients=2, dims=(48, 48, 12), fp_per_patient=1, n_folds=2), out)
after_phantom = scipy_modules()
gs_map, _ = lesion_maps(read_volume(out + "/gt/p000_labels"), None)
after_cluster = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = lesionkit.cli.main(["evaluate", "--cohort", out, "--out", out + "-report",
                               "--bootstrap", "5"])
after_evaluate = scipy_modules()
p = wilcoxon_one_sided([float(i) for i in range(24)], [i - 0.5 for i in range(24)])
print(json.dumps({"phantom": after_phantom, "cluster": after_cluster, "evaluate": after_evaluate,
                  "wilcoxon": scipy_modules(), "n_gs": len(gs_map), "code": code, "p": p}))
"""


def test_scipy_loads_only_where_it_is_used(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cohort")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["phantom"] == seen["cluster"] == seen["evaluate"] == []
    assert seen["n_gs"] == 4  # one lesion per grade: the call really clustered
    assert seen["code"] == 0 and (tmp_path / "cohort-report" / "report.json").is_file()
    assert "scipy.stats" in seen["wilcoxon"]
    assert 0.0 < seen["p"] < 1e-5


def test_structures_equal_scipy_generate_binary_structure():
    assert tuple(cluster._STRUCTURES) == (6, 18, 26)
    for conn, rank in ((6, 1), (18, 2), (26, 3)):
        mine, scipys = cluster._STRUCTURES[conn], ndimage.generate_binary_structure(3, rank)
        assert mine.dtype == scipys.dtype == np.bool_
        assert mine.shape == scipys.shape == (3, 3, 3)
        assert np.array_equal(mine, scipys)
        assert int(mine.sum()) == conn + 1
