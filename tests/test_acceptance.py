"""Release acceptance gate.

One test per release criterion.  Each test enforces the criterion's stated
numeric tolerance and wall-clock budget and emits a single PASS line on
success; a violated criterion surfaces as that test's FAILED line.  Run

    pytest -v tests/test_acceptance.py

for the one-line-per-criterion readout (add -s to see the timing lines).
"""

import itertools
import time
from collections import deque
from contextlib import contextmanager

import numpy as np
from scipy.stats import rankdata

from lesionkit.cli import main
from lesionkit.cluster import (
    DEFAULT_CONNECTIVITY,
    MIN_LESION_VOLUME_MM3,
    LesionMap,
    filter_by_volume,
    lesion_maps,
)
from lesionkit.evaluation import EvaluationConfig, evaluate_cohort
from lesionkit.grades import CS_BINARY, GRADE_ORDER, Grade
from lesionkit.matching import DEFAULT_OVERLAP_FRAC, point_in_cluster_grade
from lesionkit.metrics import (
    ABOVE_MAX_SCORE,
    ConfusionMatrix,
    froc_by_grade,
    quadratic_weighted_kappa,
    wilcoxon_one_sided,
)
from lesionkit.netmath import (
    DEFAULT_SWITCH_EPOCH,
    LESION_BRANCH_WEIGHTS,
    AttentionMap,
    ClassWeights,
    FeatureStack,
    LossSchedule,
    attention_gate_backward,
    attention_gate_forward,
    branch_loss,
    branch_loss_gradient,
)
from lesionkit.phantom import (
    PhantomConfig,
    generate_cohort,
    ledger_confusion,
    ledger_froc_cs,
    ledger_froc_grade,
    ledger_grade_gt_count,
    phantom_patient_evals,
)
from lesionkit.volume import KIND_LABEL, Volume

from lesion_builders import from_voxels


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"{name}: {dt:.2f}s exceeds the {budget_s:.0f}s budget"
    print(f"PASS {name} [{dt:.2f}s < {budget_s:.0f}s]")


def box(x0, x1, y0, y1, z0, z1):
    return tuple(
        (x, y, z) for z in range(z0, z1) for y in range(y0, y1) for x in range(x0, x1)
    )


def curve_tuples(curve):
    return [(p.threshold, p.mean_fp_per_patient, p.sensitivity) for p in curve.points]


# ---------------------------------------------------------------------------
# 1. Constants fidelity


def test_c1_constants_fidelity():
    with criterion("constants-fidelity", 1.0):
        assert MIN_LESION_VOLUME_MM3 == 45.0
        # at (1, 1, 3) mm spacing the 45 mm^3 filter is exactly 15 voxels
        sx, sy, sz = 1.0, 1.0, 3.0
        assert MIN_LESION_VOLUME_MM3 / (sx * sy * sz) == 15.0
        keep = from_voxels(box(0, 5, 0, 3, 0, 1), Grade.GS34, 15 * 3.0, 0.9)
        drop = from_voxels(box(0, 7, 6, 8, 0, 1), Grade.GS34, 14 * 3.0, 0.9)
        m = LesionMap((keep, drop), (16, 16, 4), (sx, sy, sz))
        assert filter_by_volume(m).clusters == (keep,)

        assert DEFAULT_OVERLAP_FRAC == 0.10
        assert DEFAULT_CONNECTIVITY == 26

        assert DEFAULT_SWITCH_EPOCH == 20
        sched = LossSchedule()
        assert sched.switch_epoch == 20
        assert sched.lambda2_at(19) == 0.0
        assert sched.lambda2_at(20) == sched.lambda2 == 1.0

        assert LESION_BRANCH_WEIGHTS == (0.002, 0.14, 0.1715, 0.1715, 0.1715, 0.1715)
        assert ClassWeights.lesion_default().w == LESION_BRANCH_WEIGHTS

        dflt = EvaluationConfig()
        assert dflt.min_volume_mm3 == 45.0
        assert dflt.overlap_frac == 0.10
        assert dflt.connectivity == 26


# ---------------------------------------------------------------------------
# 2. Gradient suite


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(
        np.max(np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-6))
    )


def _fd(fun, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    g = np.zeros(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for k in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[k] += step
        lo[k] -= step
        g[k] = (fun(hi.reshape(x.shape)) - fun(lo.reshape(x.shape))) / (2 * step)
    return g.reshape(x.shape)


def test_c2_gradient_suite():
    with criterion("gradient-suite", 10.0):
        rng = np.random.default_rng(np.random.Philox(1234))
        w = ClassWeights.lesion_default()

        worst_loss = 0.0
        for _ in range(10):
            n = int(rng.integers(8, 257))  # up to a 16x16 slice of 6 channels
            p = rng.uniform(0.05, 0.95, size=(n, 6))
            y = np.zeros((n, 6))
            y[np.arange(n), rng.integers(0, 6, size=n)] = 1.0
            analytic = branch_loss_gradient(p, y, w)
            fd = _fd(lambda a: branch_loss(a, y, w).total, p)
            worst_loss = max(worst_loss, _rel_err(analytic, fd))
        assert worst_loss < 1e-4, f"branch loss gradient rel err {worst_loss:.3e}"

        worst_gate = 0.0
        for _ in range(10):
            c = int(rng.integers(2, 7))
            h = int(rng.integers(4, 9))
            wd = int(rng.integers(4, 9))
            if rng.random() < 0.5:  # integral ratio: area-pooling path
                ah, aw = h * int(rng.integers(1, 3)), wd * int(rng.integers(1, 3))
            else:  # fractional ratio: bilinear path
                ah = int(rng.integers(h, 17))
                aw = int(rng.integers(wd, 17))
            f = FeatureStack(rng.normal(size=(c, h, wd)))
            a = AttentionMap(rng.uniform(0.1, 0.9, size=(ah, aw)))
            dout = rng.normal(size=(c, h, wd))

            df, da = attention_gate_backward(f, a, dout)
            fd_f = _fd(
                lambda arr: float(
                    (attention_gate_forward(FeatureStack(arr), a).planes * dout).sum()
                ),
                f.planes,
            )
            fd_a = _fd(
                lambda arr: float(
                    (attention_gate_forward(f, AttentionMap(arr)).planes * dout).sum()
                ),
                a.plane,
            )
            worst_gate = max(worst_gate, _rel_err(df, fd_f), _rel_err(da, fd_a))
        assert worst_gate < 1e-4, f"attention gate gradient rel err {worst_gate:.3e}"


# ---------------------------------------------------------------------------
# 3. Clustering oracle


def _bfs_components(mask: np.ndarray, connectivity: int):
    offsets = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and manhattan != 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offsets.append((dx, dy, dz))
    nz, ny, nx = mask.shape
    fg = {
        (x, y, z)
        for z in range(nz)
        for y in range(ny)
        for x in range(nx)
        if mask[z, y, x]
    }
    seen = set()
    comps = []
    for start in sorted(fg):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = {start}
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offsets:
                nb = (x + dx, y + dy, z + dz)
                if nb in fg and nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    queue.append(nb)
        comps.append(comp)
    return comps


def test_c3_clustering_matches_bfs_oracle():
    with criterion("clustering-oracle", 10.0):
        rng = np.random.default_rng(np.random.Philox(77))
        for _ in range(200):
            density = rng.uniform(0.2, 0.6)
            mask = rng.random((4, 8, 8)) < density  # (nz, ny, nx)
            # a random grade per lesion voxel, so components of mixed grades
            # take the map's second labelling
            lab = mask * rng.integers(int(Grade.GS6), int(Grade.GS8), size=mask.shape,
                                      endpoint=True)
            vol = Volume(lab.astype(np.uint8), (1.0, 1.0, 3.0), KIND_LABEL)
            for conn in (6, 18, 26):
                gs_map, cs_map = lesion_maps(vol, None, conn)
                for m, groups in ((gs_map, [(g, lab == int(g)) for g in GRADE_ORDER]),
                                  (cs_map, [(CS_BINARY, lab >= int(Grade.GS34))])):
                    got = {(c.grade, frozenset(c.voxels)) for c in m.clusters}
                    want = {(g, frozenset(comp)) for g, grade_mask in groups
                            for comp in _bfs_components(grade_mask, conn)}
                    assert got == want


# ---------------------------------------------------------------------------
# 4. Kappa oracle


def _kappa_oracle(counts) -> float:
    o = np.asarray(counts, dtype=np.float64)
    n = o.sum()
    k = o.shape[0]
    w = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            w[i, j] = (i - j) ** 2 / (k - 1) ** 2
    e = np.outer(o.sum(axis=1), o.sum(axis=0)) / n
    num = (w * o).sum()
    den = (w * e).sum()
    if den == 0:
        return 1.0 if num == 0 else 0.0
    return 1.0 - num / den


def test_c4_kappa_matches_textbook_oracle():
    with criterion("kappa-oracle", 5.0):
        rng = np.random.default_rng(np.random.Philox(4242))
        checked = 0
        while checked < 500:
            counts = tuple(
                tuple(int(v) for v in row) for row in rng.integers(0, 21, size=(4, 4))
            )
            flat = [v for r in counts for v in r]
            if sum(flat) == 0:
                continue
            # skip draws where chance agreement is undefined (single occupied
            # class on both margins); the library treats those as degenerate
            o = np.asarray(counts, dtype=np.float64)
            e = np.outer(o.sum(axis=1), o.sum(axis=0)) / o.sum()
            if ((np.indices((4, 4))[0] - np.indices((4, 4))[1]) ** 2 * e).sum() == 0:
                continue
            got = quadratic_weighted_kappa(ConfusionMatrix(counts, False)).kappa
            assert abs(got - _kappa_oracle(counts)) <= 1e-12
            checked += 1

        for _ in range(50):
            diag = np.zeros((4, 4), dtype=int)
            occupied = rng.integers(1, 5)
            for idx in rng.choice(4, size=occupied, replace=False):
                diag[idx, idx] = int(rng.integers(1, 30))
            cm = ConfusionMatrix(tuple(tuple(r) for r in diag), False)
            assert quadratic_weighted_kappa(cm).kappa == 1.0


# ---------------------------------------------------------------------------
# 5. Wilcoxon exactness


def _wilcoxon_enumeration(x, y) -> float:
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0]
    n = len(d)
    ranks = rankdata(np.abs(d))
    observed = ranks[d > 0].sum()
    hits = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w >= observed:
            hits += 1
    return hits / 2**n


def test_c5_wilcoxon_matches_sign_enumeration():
    with criterion("wilcoxon-exactness", 5.0):
        rng = np.random.default_rng(np.random.Philox(99))
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 11))
            if checked % 2 == 0:  # tied-rank regime
                x = rng.integers(0, 5, size=n).astype(float)
                y = rng.integers(0, 5, size=n).astype(float)
            else:  # continuous regime
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            if not np.any(x - y != 0):
                continue
            assert wilcoxon_one_sided(x, y) == _wilcoxon_enumeration(x, y)
            checked += 1

        x5 = [1.3, 2.1, 0.7, 3.4, 1.9]
        y5 = [0.3, 1.1, 0.2, 2.4, 0.9]  # every difference positive
        assert wilcoxon_one_sided(x5, y5) == 1.0 / 32.0


# ---------------------------------------------------------------------------
# 6. End-to-end ledger equivalence


LESION_PATTERNS = (
    (1, 1, 1, 1),
    (2, 1, 1, 0),
    (1, 2, 0, 1),
    (0, 1, 1, 1),
    (1, 1, 2, 1),
)

IDENTITY = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
)
DRIFT = (
    (0.7, 0.3, 0.0, 0.0),
    (0.15, 0.7, 0.15, 0.0),
    (0.0, 0.15, 0.7, 0.15),
    (0.0, 0.0, 0.3, 0.7),
)
SCATTER = (
    (0.4, 0.2, 0.2, 0.2),
    (0.25, 0.25, 0.25, 0.25),
    (0.2, 0.3, 0.3, 0.2),
    (0.1, 0.2, 0.3, 0.4),
)
MISGRADE_TABLES = (IDENTITY, DRIFT, SCATTER)


def _phantom_config(i: int) -> PhantomConfig:
    n_patients = 10 + (i * 7) % 21  # 10..30
    return PhantomConfig(
        seed=1000 + i,
        n_patients=n_patients,
        dims=(48, 48, 12),
        lesions_per_grade=LESION_PATTERNS[i % len(LESION_PATTERNS)],
        lesion_radius_mm=(2.5, 4.0),
        fp_per_patient=i % 3,
        fp_score=(0.9, 0.8, 0.97)[i % 3],
        miss_fraction=(0.0, 0.15, 0.3, 0.45)[i % 4],
        misgrade=MISGRADE_TABLES[i % len(MISGRADE_TABLES)],
        n_folds=min(5, n_patients),
    )


def test_c6_evaluate_equals_ledger_on_50_cohorts():
    with criterion("ledger-equivalence", 60.0):
        cfg_eval = EvaluationConfig(bootstrap_iterations=1)
        for i in range(50):
            patients, ledger = generate_cohort(_phantom_config(i))
            report = evaluate_cohort(phantom_patient_evals(patients, ledger), cfg_eval)

            got_cs = curve_tuples(report.cs_froc)
            assert got_cs == ledger_froc_cs(ledger), f"config {i}: CS curve"
            assert got_cs[0][0] == 0.0  # overall (mean FP, sensitivity) readout

            for g in GRADE_ORDER:
                if ledger_grade_gt_count(ledger, g) == 0:
                    assert report.grade_froc[g] is None
                else:
                    assert curve_tuples(report.grade_froc[g]) == ledger_froc_grade(
                        ledger, g
                    ), f"config {i}: {g.display} curve"

            for with_fn in (False, True):
                want = ledger_confusion(ledger, include_fn_as_gs6=with_fn)
                cm = report.confusion_with_fn if with_fn else report.confusion_tp_only
                assert cm.counts == want, f"config {i}: confusion with_fn={with_fn}"
                want_kappa = quadratic_weighted_kappa(
                    ConfusionMatrix(want, with_fn)
                ).kappa
                got_kappa = (
                    report.kappa_with_fn if with_fn else report.kappa_tp_only
                ).kappa
                assert abs(got_kappa - want_kappa) <= 1e-12, f"config {i}: kappa"


# ---------------------------------------------------------------------------
# 7. Protocol-variant checks


def test_c7_protocol_variants():
    with criterion("protocol-variants", 5.0):
        # (a) the FN-as-GS6 confusion variant accounts for every ground-truth
        # lesion: row sums equal the per-grade census, detected or not
        cfg = PhantomConfig(
            seed=404,
            n_patients=10,
            dims=(48, 48, 12),
            lesion_radius_mm=(2.5, 4.0),
            fp_per_patient=1,
            miss_fraction=0.4,
            misgrade=DRIFT,
            n_folds=5,
        )
        patients, ledger = generate_cohort(cfg)
        report = evaluate_cohort(
            phantom_patient_evals(patients, ledger),
            EvaluationConfig(bootstrap_iterations=1),
        )
        census = tuple(ledger_grade_gt_count(ledger, g) for g in GRADE_ORDER)
        assert tuple(map(sum, report.confusion_with_fn.counts)) == census
        detected = tuple(
            sum(
                1
                for p in ledger.patients
                for e in p.lesions
                if e.detected and e.grade == g
            )
            for g in GRADE_ORDER
        )
        assert tuple(map(sum, report.confusion_tp_only.counts)) == detected
        assert sum(census) > sum(detected)  # misses actually occurred

        # (b) a detected but misgraded lesion is charged twice across the
        # per-grade curves: FN in its true grade, FP in the predicted grade
        dims, spacing = (16, 16, 4), (1.0, 1.0, 3.0)

        def cl(voxels, grade, score):
            return from_voxels(voxels, grade, len(voxels) * 3.0, score)

        l1, l2, l3 = (
            box(1, 4, 1, 4, 0, 2),
            box(8, 11, 1, 4, 0, 2),
            box(1, 4, 8, 11, 1, 3),
        )
        gt = LesionMap(
            (cl(l1, Grade.GS34, 1.0), cl(l2, Grade.GS34, 1.0), cl(l3, Grade.GS43, 1.0)),
            dims, spacing,
        )
        pred = LesionMap(
            (
                cl(l1, Grade.GS34, 0.8),  # correct grade
                cl(l2, Grade.GS43, 0.7),  # misgraded GS3+4 lesion
                cl(l3, Grade.GS43, 0.6),  # correct grade
            ),
            dims, spacing,
        )
        c34 = froc_by_grade([(pred, gt)], Grade.GS34)
        assert curve_tuples(c34) == [
            (0.0, 0.0, 0.5),
            (0.8, 0.0, 0.5),
            (ABOVE_MAX_SCORE, 0.0, 0.0),
        ]
        c43 = froc_by_grade([(pred, gt)], Grade.GS43)
        assert curve_tuples(c43) == [
            (0.0, 1.0, 1.0),
            (0.6, 1.0, 1.0),
            (0.7, 1.0, 0.0),
            (ABOVE_MAX_SCORE, 0.0, 0.0),
        ]

        # (c) the point protocol reads GS6 for a point no cluster covers
        pd, ps = (12, 12, 2), (1.0, 1.0, 3.0)
        labels = np.zeros((2, 12, 12), dtype=np.uint8)
        vox = box(2, 5, 2, 5, 0, 2)
        for x, y, z in vox:
            labels[z, y, x] = 4  # GS4+3 label code
        gs_vol = Volume(labels, ps, KIND_LABEL)
        cs_map = LesionMap((from_voxels(vox, CS_BINARY, len(vox) * 3.0, 0.9),), pd, ps)
        assert point_in_cluster_grade((8, 8, 0), cs_map, gs_vol) == Grade.GS6
        assert point_in_cluster_grade((3, 3, 1), cs_map, gs_vol) == Grade.GS43


# ---------------------------------------------------------------------------
# 8. Determinism


def test_c8_byte_identical_report_bundles(tmp_path):
    with criterion("determinism", 30.0):
        import json

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "phantom": {
                        "n_patients": 6,
                        "dims": [48, 48, 12],
                        "lesion_radius_mm": [2.5, 4.0],
                        "fp_per_patient": 1,
                        "miss_fraction": 0.25,
                        "misgrade": [list(r) for r in DRIFT],
                        "n_folds": 2,
                    }
                }
            )
        )
        cohort = tmp_path / "cohort"
        assert main(["--config", str(cfg_path), "--seed", "77", "phantom",
                     "--out", str(cohort)]) == 0

        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = main(["--config", str(cfg_path), "--seed", "77", "evaluate",
                         "--cohort", str(cohort), "--out", str(out),
                         "--bootstrap", "50"])
            assert code == 0
            outs.append(out)

        rel_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert rel_a == rel_b and rel_a, "bundles list different files"
        for rel in rel_a:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), (
                f"{rel} differs between runs"
            )
