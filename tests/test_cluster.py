"""The clusters of lesion_maps and the one-map builders against a
brute-force BFS oracle, lesion map construction, volume/zone filtering,
and the maps' scores against brute-force float64 means."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lesionkit.cluster import (
    LesionCluster,
    LesionMap,
    cs_lesion_maps,
    filter_by_volume,
    filter_by_zone,
    gs_lesion_maps,
    lesion_maps,
)
from lesionkit.grades import CS_BINARY, CS_GRADES, GRADE_ORDER, Grade
from lesionkit.volume import KIND_INTENSITY, KIND_LABEL, KIND_PROBABILITY, ProbStack, Volume

from lesion_builders import from_voxels


def bfs_components(mask, connectivity):
    """Independent brute-force reference: queue flood fill over explicit
    neighbor offset tables."""
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


def binary_volume(mask, spacing=(1.0, 1.0, 3.0)):
    return Volume(np.asarray(mask, dtype=np.uint8), spacing, KIND_LABEL)


def label_volume(lab, spacing=(1.0, 1.0, 3.0)):
    return Volume(np.asarray(lab, dtype=np.uint8), spacing, KIND_LABEL)


def onehot_stack(labels: Volume) -> ProbStack:
    lab = labels.values
    data = np.zeros((6, *lab.shape), dtype=np.float32)
    for c in range(6):
        data[c][lab == c] = 1.0
    return ProbStack(data, labels.spacing_mm)


def lesion_components(mask, conn):
    """Voxel sets of the clusters of a lesion mask labelled GS3+4, as the
    GS map and the CS map of lesion_maps give them: the two must agree."""
    lab = np.where(mask, int(Grade.GS34), 0).astype(np.uint8)
    gs_map, cs_map = lesion_maps(label_volume(lab), None, conn)
    comps = [set(c.voxels) for c in gs_map.clusters]
    assert comps == [set(c.voxels) for c in cs_map.clusters]
    return comps


class TestConnectedComponents:
    def test_single_voxel(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        for conn in (6, 18, 26):
            assert lesion_components(m, conn) == [{(1, 1, 1)}]

    def test_corner_touch_split_by_connectivity(self):
        m = np.zeros((2, 2, 2), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 1] = True  # touching only at a corner
        assert len(lesion_components(m, 26)) == 1
        assert len(lesion_components(m, 18)) == 2
        assert len(lesion_components(m, 6)) == 2

    def test_edge_touch(self):
        m = np.zeros((2, 2, 1), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 0] = True  # shares an edge (two axes differ)
        assert len(lesion_components(m, 26)) == 1
        assert len(lesion_components(m, 18)) == 1
        assert len(lesion_components(m, 6)) == 2

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError, match="connectivity"):
            lesion_maps(label_volume(np.zeros((2, 2, 2))), None, 63)

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_matches_bfs_oracle(self, conn):
        rng = np.random.default_rng(100 + conn)
        for _ in range(30):
            mask = rng.random((4, 8, 8)) < rng.uniform(0.1, 0.6)
            got = lesion_components(mask, conn)
            want = bfs_components(mask, conn)
            assert {frozenset(c) for c in got} == {frozenset(c) for c in want}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), conn=st.sampled_from([6, 18, 26]))
    def test_partition_property(self, seed, conn):
        rng = np.random.default_rng(seed)
        mask = rng.random((3, 6, 6)) < 0.4
        comps = lesion_components(mask, conn)
        union = set()
        total = 0
        for c in comps:
            total += len(c)
            union |= c
        assert total == len(union) == int(mask.sum())
        assert all(mask[z, y, x] for (x, y, z) in union)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        mask = np.zeros((4, 8, 8), dtype=bool)
        mask[:3, :6, :6] = rng.random((3, 6, 6)) < 0.4
        shifted = np.roll(mask, shift=(1, 2, 2), axis=(0, 1, 2))
        base = lesion_components(mask, 26)
        moved = lesion_components(shifted, 26)
        remapped = {frozenset((x + 2, y + 2, z + 1) for (x, y, z) in c) for c in base}
        assert remapped == {frozenset(c) for c in moved}


class TestLesionMaps:
    def test_grades_cluster_independently(self):
        lab = np.zeros((1, 4, 8), dtype=np.uint8)
        lab[0, :2, :2] = 2  # GS6 blob
        lab[0, :2, 5:7] = 3  # GS3+4 blob
        m = gs_lesion_maps(label_volume(lab), None, 26)
        assert len(m) == 2
        assert sorted(c.grade for c in m.clusters) == [Grade.GS6, Grade.GS34]

    def test_adjacent_grades_never_merge(self):
        lab = np.zeros((1, 2, 4), dtype=np.uint8)
        lab[0, :, :2] = 4
        lab[0, :, 2:] = 3  # touching GS4+3 and GS3+4
        m = gs_lesion_maps(label_volume(lab), None, 26)
        assert len(m) == 2
        cs = cs_lesion_maps(label_volume(lab), None, 26)
        assert len(cs) == 1  # binary CS mask merges them
        assert cs.clusters[0].grade == CS_BINARY
        assert cs.clusters[0].n_voxels == 8

    def test_gs6_only_gives_empty_cs_map(self):
        lab = np.zeros((1, 3, 3), dtype=np.uint8)
        lab[0, 1, 1] = 2
        assert len(cs_lesion_maps(label_volume(lab), None, 26)) == 0

    def test_gs_map_covers_all_lesion_voxels(self):
        rng = np.random.default_rng(21)
        lab = rng.integers(0, 6, size=(3, 6, 6), dtype=np.uint8)
        m = gs_lesion_maps(label_volume(lab), None, 26)
        covered = set()
        for c in m.clusters:
            covered |= frozenset(c.voxels)
        want = {
            (int(x), int(y), int(z))
            for z, y, x in zip(*np.nonzero(lab >= 2))
        }
        assert covered == want

    def test_cs_voxels_are_cs_labeled(self):
        rng = np.random.default_rng(22)
        lab = rng.integers(0, 6, size=(3, 6, 6), dtype=np.uint8)
        m = cs_lesion_maps(label_volume(lab), None, 26)
        for c in m.clusters:
            for (x, y, z) in c.voxels:
                assert lab[z, y, x] in (3, 4, 5)

    def test_scores_equal_rescoring(self):
        rng = np.random.default_rng(23)
        lab = np.zeros((2, 4, 4), dtype=np.uint8)
        lab[0, :2, :2] = 3
        lab[1, 2:, 2:] = 5
        labels = label_volume(lab)
        raw = rng.uniform(0.05, 1.0, size=(6, 2, 4, 4))
        probs = ProbStack((raw / raw.sum(axis=0)).astype(np.float32), labels.spacing_mm)
        for m in (*lesion_maps(labels, probs, 26), gs_lesion_maps(labels, probs, 26),
                  cs_lesion_maps(labels, probs, 26)):
            assert m.clusters
            for c in m.clusters:
                assert c.score == pytest.approx(brute_score(c, probs), abs=1e-12)

    def test_volume_field_exact(self):
        lab = np.zeros((1, 4, 4), dtype=np.uint8)
        lab[0, :3, :5] = 2
        m = gs_lesion_maps(label_volume(lab, spacing=(1.0, 1.0, 3.0)), None, 26)
        (c,) = m.clusters
        assert c.volume_mm3 == c.n_voxels * 3.0

    def test_deterministic_voxel_order(self):
        lab = np.zeros((2, 3, 3), dtype=np.uint8)
        lab[:, :2, :2] = 2
        m = gs_lesion_maps(label_volume(lab), None, 26)
        vox = m.clusters[0].voxels
        assert list(vox) == sorted(vox, key=lambda v: (v[2], v[1], v[0]))


def brute_score(c, probs):
    """The cluster's score, one voxel at a time in float64: the mean over
    its voxels of its grade's channel, or of the CS channels' sum for a CS
    cluster, clamped at 1."""
    channels = [int(g) for g in CS_GRADES] if c.grade == CS_BINARY else [int(c.grade)]
    total = 0.0
    for x, y, z in c.voxels:
        total += sum(float(probs.data[ch, z, y, x]) for ch in channels)
    return min(total / c.n_voxels, 1.0)


def reference_map(labels, probs, conn, cs):
    """Slow reference for gs_lesion_maps / cs_lesion_maps: a full-grid
    comparison per component, a voxel set sorted into scan order, and the
    score as the mean over a gather from a voxel list."""
    lab = labels.values
    rank = {6: 1, 18: 2, 26: 3}[conn]
    structure = ndimage.generate_binary_structure(3, rank)
    cs_chans = [int(g) for g in CS_GRADES]
    if cs:
        groups = [(CS_BINARY, np.isin(lab, cs_chans))]
    else:
        groups = [(g, lab == int(g)) for g in GRADE_ORDER]
    out = []
    for grade, mask in groups:
        if probs is None:
            channel = None
        elif cs:
            channel = probs.data[cs_chans].sum(axis=0, dtype=np.float64)
        else:
            channel = probs.data[int(grade)]
        labeled, n = ndimage.label(mask, structure=structure)
        for idx in range(1, n + 1):
            zs, ys, xs = np.nonzero(labeled == idx)
            comp = {(int(x), int(y), int(z)) for x, y, z in zip(xs, ys, zs)}
            vox = tuple(sorted(comp, key=lambda v: (v[2], v[1], v[0])))
            if channel is None:
                score = 1.0
            else:
                vx, vy, vz = np.asarray(list(vox), dtype=np.intp).T
                score = float(channel[vz, vy, vx].mean(dtype=np.float64))
            out.append((vox, grade, len(vox) * labels.voxel_volume_mm3, min(score, 1.0)))
    out.sort(key=lambda c: (c[0][0][2], c[0][0][1], c[0][0][0]))
    return out


def sparse_labels(rng):
    """A grid of up to 8x12x12 that is mostly background and prostate, with
    up to four small lesion patches; a patch may be pushed against any one
    of the six grid faces."""
    shape = tuple(int(n) for n in rng.integers(1, (8, 12, 12), endpoint=True))
    lab = rng.choice(2, size=shape).astype(np.uint8)
    for _ in range(int(rng.integers(0, 4, endpoint=True))):
        size = [int(rng.integers(1, min(3, n), endpoint=True)) for n in shape]
        start = [int(rng.integers(0, n - k, endpoint=True)) for n, k in zip(shape, size)]
        face = int(rng.integers(0, 7))  # 6: no face
        if face < 6:
            axis = face // 2
            start[axis] = 0 if face % 2 == 0 else shape[axis] - size[axis]
        box = tuple(slice(a, a + k) for a, k in zip(start, size))
        lesion = rng.choice([2, 3, 4, 5], size=size)
        lab[box] = np.where(rng.random(size) < 0.8, lesion, lab[box])
    return lab


class TestReferenceMaps:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), conn=st.sampled_from([6, 18, 26]), scored=st.booleans())
    def test_maps_equal_slow_reference(self, seed, conn, scored):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, (4, 6, 6), endpoint=True))
        lab = rng.choice(6, size=shape, p=[0.2, 0.2, 0.15, 0.15, 0.15, 0.15])
        self._check(rng, lab, conn, scored)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**6), conn=st.sampled_from([6, 18, 26]), scored=st.booleans())
    def test_sparse_maps_equal_slow_reference(self, seed, conn, scored):
        rng = np.random.default_rng(seed)
        self._check(rng, sparse_labels(rng), conn, scored)

    def _check(self, rng, lab, conn, scored):
        shape = lab.shape
        labels = label_volume(lab)
        probs = None
        if scored:
            raw = rng.uniform(0.0, 1.0, size=(6, *shape))
            raw[:3, rng.random(shape) < 0.3] = 0.0  # all mass on CS channels: sums reach 1
            probs = ProbStack((raw / raw.sum(axis=0)).astype(np.float32), labels.spacing_mm)
        gs_map, cs_map = lesion_maps(labels, probs, conn)
        # the grades tell the maps apart: a Grade per GS cluster, CS_BINARY per CS cluster
        assert all(isinstance(c.grade, Grade) for c in gs_map.clusters)
        assert all(c.grade == CS_BINARY for c in cs_map.clusters)
        # each map, from the pair and built alone
        for build, m, cs in ((gs_lesion_maps, gs_map, False), (cs_lesion_maps, cs_map, True)):
            want = reference_map(labels, probs, conn, cs)
            self._compare(lab, m.clusters, want)
            self._compare(lab, build(labels, probs, conn).clusters, want)

    @staticmethod
    def _compare(lab, clusters, want):
        got = [(c.voxels, c.grade, c.volume_mm3, c.score) for c in clusters]
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert np.array([g[3] for g in got]).tobytes() == np.array([w[3] for w in want]).tobytes()
        # what each cluster derives from its box and mask, against the reference's tuples
        for c, (vox, *_) in zip(clusters, want):
            xs, ys, zs = zip(*vox)
            assert c.bbox == (min(xs), min(ys), min(zs), max(xs), max(ys), max(zs))
            assert c.n_voxels == len(vox) and c.first_voxel == vox[0]
            assert lab[c.box][c.mask].tolist() == [lab[z, y, x] for x, y, z in vox]
            assert not c.mask.flags.writeable
        keys = [c.first_voxel[::-1] for c in clusters]
        assert keys == sorted(keys) == [(v[0][2], v[0][1], v[0][0]) for v, *_ in want]


class TestLesionFree:
    LAB = np.ones((3, 4, 5), dtype=np.uint8)  # prostate only

    @pytest.mark.parametrize("build", [gs_lesion_maps, cs_lesion_maps])
    @pytest.mark.parametrize("scored", [False, True])
    def test_empty_maps(self, build, scored):
        labels = label_volume(self.LAB)
        probs = onehot_stack(labels) if scored else None
        assert build(labels, probs, 26).clusters == ()

    @pytest.mark.parametrize("build", [gs_lesion_maps, cs_lesion_maps])
    def test_invalid_connectivity_raises(self, build):
        with pytest.raises(ValueError, match="connectivity"):
            build(label_volume(self.LAB), None, 63)

    @pytest.mark.parametrize("build", [gs_lesion_maps, cs_lesion_maps])
    def test_probability_grid_mismatch_raises(self, build):
        probs = onehot_stack(label_volume(np.ones((3, 4, 4), dtype=np.uint8)))
        with pytest.raises(ValueError, match="probability grid"):
            build(label_volume(self.LAB), probs, 26)


def bfs_map(lab, conn, cs):
    """(grade, voxel set, volume) per lesion of a GS or CS map, from the BFS
    oracle run on each grade's mask (the CS union for a CS map)."""
    groups = ([(CS_BINARY, np.isin(lab, [int(g) for g in CS_GRADES]))] if cs
              else [(g, lab == int(g)) for g in GRADE_ORDER])
    return sorted(
        ((str(grade), frozenset(comp), len(comp) * 3.0)
         for grade, mask in groups for comp in bfs_components(mask, conn)),
        key=lambda c: (c[0], sorted(c[1])),
    )


def faces_lesions():
    """A 5x6x7 grid with a lesion on each of the six faces, one touching an
    edge and a corner of the grid, and GS6 and CS lesions of different grades
    touching each other."""
    lab = np.ones((5, 6, 7), dtype=np.uint8)
    lab[0, 2:4, 2:4] = 2  # z = 0 face
    lab[4, 2:4, 2:5] = 3  # z = nz - 1 face
    lab[1:3, 0, 3:5] = 4  # y = 0 face
    lab[2:4, 5, 1:3] = 5  # y = ny - 1 face
    lab[1:4, 2:4, 0] = 3  # x = 0 face
    lab[1:3, 1:4, 6] = 2  # x = nx - 1 face
    lab[4, 5, 6] = 5  # far corner
    lab[2, 2:4, 3] = 4  # touches the GS3+4 lesion on the x = 0 face
    return lab


def one_slice_lesions():
    """Lesions one voxel thick along each axis in turn, inside a 4x5x6 grid."""
    lab = np.zeros((4, 5, 6), dtype=np.uint8)
    lab[1:3, 1:4, 1:5] = 1
    lab[2, 1:4, 1:3] = 3  # one slice in z
    lab[1:3, 4, 2:5] = 5  # one row in y, on the far face
    lab[0:2, 0:2, 5] = 2  # one column in x, on the far face
    return lab


def touching_gs6_lesions():
    """A GS6 blob and a GS3+4 blob that touch along x, in a 2x4x6 grid."""
    lab = np.ones((2, 4, 6), dtype=np.uint8)
    lab[:, :2, :3] = 2
    lab[:, 1:3, 3:] = 3
    return lab


def gs6_bridge_lesions():
    """GS3+4 and GS4+3 blobs of 18 voxels joined only through a row of GS6
    voxels, in a 2x3x9 grid."""
    lab = np.ones((2, 3, 9), dtype=np.uint8)
    lab[:, :, 0:3] = 3
    lab[0, 1, 3:6] = 2
    lab[:, :, 6:9] = 4
    return lab


class TestBfsOracleMaps:
    GRIDS = {
        "faces": faces_lesions(),
        "prostate_only": np.ones((3, 4, 5), dtype=np.uint8),
        "background_only": np.zeros((3, 4, 5), dtype=np.uint8),
        "one_slice": one_slice_lesions(),
        "single_slice_grid": np.array([[[0, 2, 2, 1], [3, 0, 5, 5], [1, 1, 4, 3]]],
                                      dtype=np.uint8),
        "whole_grid_lesion": np.full((2, 3, 4), 4, dtype=np.uint8),
        "touching_gs6": touching_gs6_lesions(),
        "gs6_bridge": gs6_bridge_lesions(),
        "gs6_only": np.pad(np.full((2, 2, 2), 2, dtype=np.uint8), 1, constant_values=1),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("conn", [6, 18, 26])
    @pytest.mark.parametrize("cs", [False, True], ids=["gs", "cs"])
    def test_maps_match_bfs_oracle(self, grid, conn, cs):
        lab = self.GRIDS[grid]
        labels = label_volume(lab)
        build = cs_lesion_maps if cs else gs_lesion_maps
        for probs in (None, onehot_stack(labels)):
            m = build(labels, probs, conn)
            got = sorted(
                ((str(c.grade), frozenset(c.voxels), c.volume_mm3) for c in m.clusters),
                key=lambda c: (c[0], sorted(c[1])),
            )
            assert got == bfs_map(lab, conn, cs)
            assert all(c.score == 1.0 for c in m.clusters)  # one-hot: the cluster's own channel
            assert [c.voxels[0][::-1] for c in m.clusters] == sorted(
                c.voxels[0][::-1] for c in m.clusters)

    @pytest.mark.parametrize("conn", [6, 18, 26])
    def test_gs6_joins_cs_lesions_that_stay_apart(self, conn):
        # one lesion component: GS3+4, a GS6 bridge, GS4+3
        lab = self.GRIDS["gs6_bridge"]
        assert ndimage.label(lab >= 2, ndimage.generate_binary_structure(3, 1))[1] == 1
        gs_map, cs_map = lesion_maps(label_volume(lab), None, conn)
        assert [c.grade for c in gs_map.clusters] == [Grade.GS34, Grade.GS43, Grade.GS6]
        assert [(c.grade, c.n_voxels) for c in cs_map.clusters] == [(CS_BINARY, 18)] * 2


class TestFilters:
    def _map_with_sizes(self, sizes, spacing=(1.0, 1.0, 3.0)):
        clusters = []
        z = 0
        for n in sizes:
            vox = tuple((x, 0, z) for x in range(n))
            clusters.append(
                from_voxels(vox, Grade.GS34, n * spacing[0] * spacing[1] * spacing[2], 0.9)
            )
            z += 1
        return LesionMap(tuple(clusters), (max(sizes), 1, len(sizes)), spacing)

    def test_45mm3_threshold_semantics(self):
        m = self._map_with_sizes([15, 14, 16])
        out = filter_by_volume(m, 45.0)
        assert sorted(c.n_voxels for c in out.clusters) == [15, 16]

    def test_zero_threshold_is_identity(self):
        m = self._map_with_sizes([1, 2, 3])
        assert filter_by_volume(m, 0.0).clusters == m.clusters

    def test_idempotent_and_monotone(self):
        m = self._map_with_sizes([2, 5, 9, 15, 20])
        once = filter_by_volume(m, 20.0)
        assert filter_by_volume(once, 20.0).clusters == once.clusters
        low = {c.voxels for c in filter_by_volume(m, 10.0).clusters}
        high = {c.voxels for c in filter_by_volume(m, 40.0).clusters}
        assert high <= low

    def test_zone_majority_selection(self):
        vox_in = tuple((x, 0, 0) for x in range(6))
        vox_out = tuple((x, 3, 0) for x in range(6))
        half = tuple((x, 1, 0) for x in range(4))  # 2 of 4 inside
        mk = lambda v: from_voxels(v, Grade.GS6, float(len(v)), 0.5)
        m = LesionMap((mk(vox_in), mk(vox_out), mk(half)), (8, 4, 1), (1, 1, 1))
        zone = np.zeros((1, 4, 8), dtype=np.uint8)
        zone[0, 0, :] = 1
        zone[0, 1, :2] = 1
        out = filter_by_zone(m, binary_volume(zone, spacing=(1, 1, 1)))
        assert {c.voxels for c in out.clusters} == {vox_in, half}

    def test_zone_commutes_with_volume_filter(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lab = (rng.random((3, 8, 8)) < 0.3).astype(np.uint8) * 3
            labels = label_volume(lab, spacing=(1.0, 1.0, 1.0))
            m = gs_lesion_maps(labels, None, 6)
            zone = binary_volume(rng.random((3, 8, 8)) < 0.5, spacing=(1.0, 1.0, 1.0))
            a = filter_by_zone(filter_by_volume(m, 3.0), zone)
            b = filter_by_volume(filter_by_zone(m, zone), 3.0)
            assert {c.voxels for c in a.clusters} == {c.voxels for c in b.clusters}


class TestScoring:
    """Scores read as c.score of the maps built with the stack."""

    def _stack(self, data):
        return ProbStack(np.asarray(data, dtype=np.float32), (1.0, 1.0, 3.0))

    def _scores(self, voxels, shape, data, grade=Grade.GS34):
        """The scores of the GS map and of the CS map of a label volume that
        holds grade at the (x, y, z) voxels, from lesion_maps; the one-map
        builders give the same."""
        lab = np.zeros(shape, dtype=np.uint8)
        for x, y, z in voxels:
            lab[z, y, x] = int(grade)
        labels, stack = label_volume(lab), self._stack(data)
        gs, cs = ([c.score for c in m.clusters] for m in lesion_maps(labels, stack))
        assert gs == [c.score for c in gs_lesion_maps(labels, stack).clusters]
        assert cs == [c.score for c in cs_lesion_maps(labels, stack).clusters]
        return gs, cs

    def test_constant_channel(self):
        data = np.zeros((6, 1, 2, 2), dtype=np.float32)
        data[3] = 0.8
        data[1] = 0.2
        gs, cs = self._scores([(0, 0, 0), (1, 1, 0)], (1, 2, 2), data)
        assert gs == cs == [pytest.approx(0.8)]  # the other CS channels are zero

    def test_two_voxel_mean(self):
        data = np.zeros((6, 1, 1, 2), dtype=np.float32)
        data[3, 0, 0, 0] = 0.2
        data[3, 0, 0, 1] = 0.6
        data[1, 0, 0, 0] = 0.8
        data[1, 0, 0, 1] = 0.4
        gs, _ = self._scores([(0, 0, 0), (1, 0, 0)], (1, 1, 2), data)
        assert gs == [pytest.approx(0.4)]

    def test_cs_cluster_sums_cs_channels(self):
        data = np.zeros((6, 1, 1, 1), dtype=np.float32)
        data[3] = 0.3
        data[4] = 0.2
        data[5] = 0.1
        data[1] = 0.4
        gs, cs = self._scores([(0, 0, 0)], (1, 1, 1), data)
        assert cs == [pytest.approx(0.6, abs=1e-6)]
        assert gs == [pytest.approx(0.3)]

    def test_gs6_cluster_has_no_cs_score(self):
        data = np.zeros((6, 1, 1, 1), dtype=np.float32)
        data[2] = 0.7
        data[3] = 0.3
        assert self._scores([(0, 0, 0)], (1, 1, 1), data, grade=Grade.GS6) == (
            [pytest.approx(0.7)], [])

    def test_cs_score_is_clamped_at_one_by_map_and_rescoring(self):
        # CS channels summing to about 1 + 2e-6, inside the stack's 1e-5 tolerance
        data = np.zeros((6, 1, 2, 2), dtype=np.float32)
        data[3], data[4], data[5] = 0.5, 0.25, 0.250002
        stack = self._stack(data)
        assert data[3:].sum(axis=0, dtype=np.float64).min() > 1.0
        lab = np.full((1, 2, 2), int(Grade.GS34), dtype=np.uint8)
        lab[0, 1, :] = int(Grade.GS43)
        (c,) = cs_lesion_maps(label_volume(lab), stack).clusters
        assert c.score == 1.0
        assert brute_score(c, stack) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), conn=st.sampled_from([6, 18, 26]))
    def test_matches_loop_oracle(self, seed, conn):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 1.0, size=(6, 2, 4, 4))
        stack = self._stack((raw / raw.sum(axis=0)).astype(np.float32))
        lab = np.zeros((2, 4, 4), dtype=np.uint8)
        picks = rng.choice(lab.size, size=int(rng.integers(1, 12)), replace=False)
        lab.flat[picks] = rng.choice([int(g) for g in GRADE_ORDER], size=picks.size)
        labels = label_volume(lab)
        gs_map, cs_map = lesion_maps(labels, stack, conn)
        assert sum(c.n_voxels for c in gs_map.clusters) == picks.size
        for c in gs_map.clusters + cs_map.clusters:
            assert 0.0 <= c.score <= 1.0
            assert c.score == pytest.approx(brute_score(c, stack), abs=1e-12)


class TestModelValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            from_voxels((), Grade.GS6, 0.0, 0.5)

    def test_bad_score_rejected(self):
        with pytest.raises(ValueError):
            from_voxels(((0, 0, 0),), Grade.GS6, 3.0, 1.5)

    def test_overlapping_clusters_rejected(self):
        a = from_voxels(((0, 0, 0),), Grade.GS6, 3.0, 0.5)
        b = from_voxels(((0, 0, 0), (1, 0, 0)), Grade.GS34, 6.0, 0.5)
        with pytest.raises(ValueError):
            LesionMap((a, b), (2, 1, 1), (1, 1, 3))

    def test_interleaved_clusters_pass_and_one_shared_voxel_fails(self):
        def mk(vox):
            return from_voxels(vox, Grade.GS6, float(len(vox)), 0.5)

        # the two colours of a checkerboard: the same box, disjoint masks
        grid = [(x, y, z) for z in range(3) for y in range(4) for x in range(6)]
        even = mk([v for v in grid if sum(v) % 2 == 0])
        odd = mk([v for v in grid if sum(v) % 2 == 1])
        tall = mk([(6, 0, z) for z in range(3)])
        mid = mk([(6, 3, 1)])
        # shares only (6, 0, 2) with tall, and starts two slices above it
        late = mk([(6, 0, 2), (7, 0, 2)])
        dims, spacing = (8, 4, 3), (1.0, 1.0, 3.0)
        assert even.box == odd.box
        for order in itertools.permutations((even, odd, tall, mid)):
            assert len(LesionMap(order, dims, spacing)) == 4
        for order in itertools.permutations((even, odd, tall, mid, late)):
            with pytest.raises(ValueError, match="overlap"):
                LesionMap(order, dims, spacing)

    def test_interlocking_boxes_with_disjoint_masks_pass(self):
        # two L shapes in one 3x3 slice: the boxes share four voxels, the masks none
        first = from_voxels(((0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 2, 0), (2, 2, 0)),
                            Grade.GS6, 5.0, 0.5)
        second = from_voxels(((1, 0, 0), (2, 0, 0), (2, 1, 0)), Grade.GS34, 3.0, 0.5)
        for pair in ((first, second), (second, first)):
            m = LesionMap(pair, (3, 3, 1), (1.0, 1.0, 1.0))
            assert m.clusters == pair and len(m.select(lambda c: True)) == 2

    def test_overlap_message_names_the_first_overlap_in_order(self):
        def mk(xs):
            return from_voxels(tuple((x, 0, 0) for x in xs), Grade.GS6, float(len(xs)), 0.5)

        left, right, middle = mk((0, 1)), mk((3, 4)), mk((1, 2, 3))  # middle overlaps both
        with pytest.raises(ValueError) as err:
            LesionMap((left, right, middle), (5, 1, 1), (1.0, 1.0, 1.0))
        assert str(err.value) == "clusters at voxels (0, 0, 0) and (1, 0, 0) overlap"
        with pytest.raises(ValueError) as err:
            LesionMap((middle, right, left), (5, 1, 1), (1.0, 1.0, 1.0))
        assert str(err.value) == "clusters at voxels (1, 0, 0) and (3, 0, 0) overlap"

    def test_select_trusts_the_checked_map(self):
        # a subset of a checked map is disjoint, so select does not check again:
        # only a map whose clusters were swapped past the constructor shows it
        a = from_voxels(((0, 0, 0), (1, 0, 0)), Grade.GS6, 6.0, 0.5)
        b = from_voxels(((1, 0, 0),), Grade.GS34, 3.0, 0.5)
        m = LesionMap((a,), (2, 1, 1), (1, 1, 3))
        object.__setattr__(m, "clusters", (a, b))  # bypasses the constructor's check
        assert m.select(lambda c: True).clusters == (a, b)
        assert m.select(lambda c: c is b).clusters == (b,)
        with pytest.raises(ValueError, match="overlap"):
            LesionMap((a, b), (2, 1, 1), (1, 1, 3))
        # the flag is keyword-only: a fourth positional argument cannot skip the check
        with pytest.raises(TypeError):
            LesionMap((a, b), (2, 1, 1), (1, 1, 3), "gs")

    @pytest.mark.parametrize("kind", [KIND_INTENSITY, KIND_PROBABILITY])
    def test_only_label_volumes_are_clustered(self, kind):
        # an intensity of 3.0 would read as GS3+4, a probability as background
        values = np.full((2, 3, 3), 1.0 if kind == KIND_PROBABILITY else 3.0, dtype=np.float32)
        volume = Volume(values, (1.0, 1.0, 3.0), kind)
        for build in (lambda v: lesion_maps(v, None), lambda v: gs_lesion_maps(v, None),
                      lambda v: cs_lesion_maps(v, None)):
            with pytest.raises(ValueError, match=f"got kind '{kind}'"):
                build(volume)

    def test_cluster_leaving_the_grid_rejected(self):
        a = from_voxels(((0, 0, 0), (2, 0, 0)), Grade.GS6, 6.0, 0.5)
        assert len(LesionMap((a,), (3, 1, 1), (1, 1, 3))) == 1
        for dims in ((2, 1, 1), (3, 1, 0)):
            with pytest.raises(ValueError, match="leaves the grid"):
                LesionMap((a,), dims, (1, 1, 3))

    def test_mask_must_fill_the_box_and_is_read_only(self):
        mask = np.ones((1, 2, 2), dtype=bool)
        with pytest.raises(ValueError, match="box"):
            LesionCluster((slice(0, 1), slice(0, 2), slice(0, 3)), mask, Grade.GS6, 4.0, 0.5)
        c = LesionCluster((slice(2, 3), slice(0, 2), slice(1, 3)), mask, Grade.GS6, 4.0, 0.5)
        assert c.voxels == ((1, 0, 2), (2, 0, 2), (1, 1, 2), (2, 1, 2))
        assert c.bbox == (1, 0, 2, 2, 1, 2) and c.n_voxels == 4 and c.first_voxel == (1, 0, 2)
        with pytest.raises(ValueError):
            c.mask[0, 0, 0] = False
        mask[0, 0, 0] = False  # the caller's array stays writable, and c holds a copy
        assert c.mask.all() and c.n_voxels == 4 and len(c.voxels) == 4
        twin = LesionCluster(c.box, np.ones((1, 2, 2), dtype=bool), Grade.GS6, 4.0, 0.5)
        assert c != twin and c == c  # clusters compare by identity

    def test_bbox(self):
        c = from_voxels(((2, 1, 0), (4, 3, 1)), Grade.GS8, 6.0, 0.5)
        assert c.bbox == (2, 1, 0, 4, 3, 1)
