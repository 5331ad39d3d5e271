"""Voxel-to-lesion conversion: 3D connected components, per-grade and
clinically-significant (CS) lesion maps, volume filtering, zone filtering,
and lesion probability scoring.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field, replace

import numpy as np

from .grades import CS_BINARY, CS_GRADES, GRADE_ORDER, Grade
from .volume import KIND_LABEL, ProbStack, Volume, frozen_mask, mask_voxels

MIN_LESION_VOLUME_MM3 = 45.0
DEFAULT_CONNECTIVITY = 26

# neighborhood -> structuring element, built once rather than per labelling:
# scipy's generate_binary_structure(3, r) formula.  The labeller reads only
# its backward half, the rows of _BACKWARD_ROWS, so 6, 18 and 26 are defined
# here alone
_STRUCTURES = {c: np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= r
               for c, r in ((6, 1), (18, 2), (26, 3))}
# (dz, dy) of the x-rows next to a voxel's own that come before it in scan order
_BACKWARD_ROWS = ((-1, -1), (-1, 0), (-1, 1), (0, -1))
CONNECTIVITIES = tuple(_STRUCTURES)
_LOWEST_GRADE = min(int(g) for g in GRADE_ORDER)  # the grade codes top the label range
_LOWEST_CS = min(int(g) for g in CS_GRADES)


@dataclass(frozen=True, eq=False)
class LesionCluster:
    """One connected lesion: its voxels as a mask within their box, its grade,
    physical volume, and probability score (mean of the scoring channel).
    ``values[c.box][c.mask]`` reads an array under it, in scan order.
    Clusters compare by identity."""

    box: tuple[slice, slice, slice]  # tight (z, y, x) box of the mask's voxels
    mask: np.ndarray  # bool, the box's shape; stored as a read-only copy
    grade: object  # Grade member, or CS_BINARY for merged CS clusters
    volume_mm3: float
    score: float
    n_voxels: int = field(init=False, repr=False)
    first_voxel: tuple[int, int, int] = field(init=False, repr=False)  # (x, y, z), in scan order

    def __post_init__(self):
        mask = frozen_mask(self.mask, self.box)
        n = int(np.count_nonzero(mask))
        if n == 0:
            raise ValueError("cluster must contain at least one voxel")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.grade != CS_BINARY and not isinstance(self.grade, Grade):
            raise ValueError(f"grade must be a lesion grade or {CS_BINARY!r}")
        z, y, x = (int(i) + s.start for i, s in zip(np.unravel_index(mask.argmax(), mask.shape),
                                                     self.box))
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n_voxels", n)
        object.__setattr__(self, "first_voxel", (x, y, z))

    @property
    def voxels(self) -> tuple[tuple[int, int, int], ...]:
        """(x, y, z) tuples of the cluster's voxels, in scan order."""
        return mask_voxels(self.mask, self.box)

    @property
    def bbox(self) -> tuple[int, int, int, int, int, int]:
        """(xmin, ymin, zmin, xmax, ymax, zmax), inclusive."""
        z, y, x = self.box
        return (x.start, y.start, z.start, x.stop - 1, y.stop - 1, z.stop - 1)

    @property
    def grade_name(self) -> str:
        return self.grade if self.grade == CS_BINARY else self.grade.display


def shared_voxels(a: LesionCluster, b: LesionCluster) -> int:
    """The number of voxels two clusters share: their masks compared over
    the box the two boxes have in common, none when the boxes are apart."""
    common = []
    for s, t in zip(a.box, b.box):
        lo, hi = max(s.start, t.start), min(s.stop, t.stop)
        if lo >= hi:
            return 0  # the boxes are apart: most pairs end here, so it stays cheap
        common.append((lo, hi))
    pa, pb = (c.mask[tuple(slice(lo - s.start, hi - s.start) for (lo, hi), s in zip(common, c.box))]
              for c in (a, b))
    return int(np.count_nonzero(pa & pb))


def overlapping(clusters, others) -> list[list[tuple[int, int]]]:
    """Per cluster, (index into others, shared voxels) for each of the others
    it shares a voxel with, by ascending index.  The boxes are compared in
    one numpy step per cluster, so shared_voxels only runs where boxes meet."""
    starts = np.array([[s.start for s in o.box] for o in others], dtype=np.intp).reshape(-1, 3)
    stops = np.array([[s.stop for s in o.box] for o in others], dtype=np.intp).reshape(-1, 3)
    table = []
    for c in clusters:
        lo, hi = [s.start for s in c.box], [s.stop for s in c.box]
        meet = np.flatnonzero(((starts < hi) & (stops > lo)).all(axis=1)).tolist()
        table.append([(j, n) for j in meet if (n := shared_voxels(c, others[j]))])
    return table


def _check_disjoint(clusters, dims) -> None:
    """Raise ValueError when a cluster leaves the (x, y, z) grid, or when the
    masks, painted over the grid, cover fewer voxels than they hold: then
    name the earliest cluster to overlap an earlier one, and the earliest."""
    if not clusters:
        return
    painted = np.zeros(dims[::-1], dtype=bool)
    for c in clusters:
        region = painted[c.box]
        if region.shape != c.mask.shape:
            raise ValueError(f"cluster at voxel {c.first_voxel} leaves the grid {dims}")
        region[c.mask] = True
    slab = painted[min(c.box[0].start for c in clusters):max(c.box[0].stop for c in clusters)]
    if np.count_nonzero(slab) < sum(c.n_voxels for c in clusters):
        b, a = next((b, a) for j, b in enumerate(clusters) for a in clusters[:j]
                    if shared_voxels(a, b))
        raise ValueError(f"clusters at voxels {a.first_voxel} and {b.first_voxel} overlap")


@dataclass(frozen=True)
class LesionMap:
    """Disjoint lesion clusters extracted from one volume.  The clusters'
    grades tell the map's kind: each a Grade in a GS map, CS_BINARY in a CS map."""

    clusters: tuple[LesionCluster, ...]
    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    _: KW_ONLY
    _subset: InitVar[bool] = False  # passed by select alone: its clusters are already disjoint

    def __post_init__(self, _subset):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not _subset:
            _check_disjoint(self.clusters, self.dims)
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))

    def __len__(self) -> int:
        return len(self.clusters)

    def select(self, keep) -> LesionMap:
        """The map of the clusters for which keep(cluster) holds."""
        return replace(self, clusters=tuple(c for c in self.clusters if keep(c)), _subset=True)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be one of 6, 18, 26, got {connectivity}")
    return _STRUCTURES[connectivity]


def _bounds(projections):
    """The slice box spanning the nonzero entries of one 1D projection per
    axis, or None when a projection is all zero."""
    box = []
    for proj in projections:
        hits = np.flatnonzero(proj)
        if hits.size == 0:
            return None
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def _shift(box, origin):
    """A box within a crop, moved to the coordinates the crop was cut from."""
    return tuple(slice(b.start + o.start, b.stop + o.start) for b, o in zip(box, origin))


def _join(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per run of n, the lowest run index joined to it through the pairs
    (a[i], b[i]): a union-find that hooks each root onto the lower one and
    then compresses every path, repeated until no pair spans two roots."""
    root = np.arange(n)
    while a.size:
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]
        apart = root[a] != root[b]
        a, b = a[apart], b[apart]
    return root


def _components(mask: np.ndarray, structure: np.ndarray):
    """(box, component mask within the box) per connected component of the
    mask, numbered by their first voxel in scan order, as ndimage.label
    numbers them.  Only the mask's bounding box is labelled; each box is in
    the mask's coordinates.

    The labeller works on runs, the maximal x-extents of True voxels in one
    (z, y) row (He, Chao and Suzuki, IEEE TIP 2008).  A run joins each run
    of a backward row of the structure whose x-extent it meets, widened by
    that row's reach: 1 where the structure holds the row's diagonal voxels,
    else 0."""
    yx = mask.max(axis=0)  # max projections: several times faster than any() over two axes
    crop = _bounds((mask.max(axis=(1, 2)), yx.max(axis=1), yx.max(axis=0)))
    if crop is None:
        return
    cut = mask[crop]
    nz, ny, nx = cut.shape
    padded = np.zeros((nz * ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = cut.reshape(nz * ny, nx)
    # each row's steps alternate up, down: the flat indices row * (nx + 1) + x
    # of its runs' starts and stops, in scan order.  A row's extents widened
    # by a reach of 1 never pass into the next row's
    edges = np.flatnonzero(np.diff(padded, axis=1))
    starts, stops = edges[0::2], edges[1::2]
    row, x0 = np.divmod(starts, nx + 1)
    x1 = stops - row * (nx + 1)
    z, y = np.divmod(row, ny)
    # the backward rows the structure holds, as columns, and each one's reach
    dz, dy = np.array([r for r in _BACKWARD_ROWS if structure[r[0] + 1, r[1] + 1, 1]]).T[..., None]
    reach = structure[dz + 1, dy + 1, 0].astype(np.intp)
    key = (row + dz * ny + dy) * (nx + 1)  # below 0 for a row before z = 0, which has no runs
    first = np.searchsorted(stops, key + x0 - reach, side="right")
    n = np.searchsorted(starts, key + x1 + reach) - first
    n[(y + dy < 0) | (y + dy >= ny)] = 0
    first, n = first.ravel(), n.ravel()
    # run i joins the n[i] runs from first[i] on, of each backward row in turn
    later = np.repeat(np.arange(n.size) % row.size, n)
    earlier = np.arange(later.size) - np.repeat(np.cumsum(n) - n - first, n)
    root = _join(row.size, earlier, later)
    is_first = root == np.arange(row.size)
    label = np.cumsum(is_first, dtype=np.int32)[root]
    labeled = np.zeros(cut.shape, dtype=np.int32)
    labeled.reshape(-1)[np.flatnonzero(cut)] = np.repeat(label, x1 - x0)
    # each component's box, as the least of its runs' starts and negated stops
    bounds = np.full((np.count_nonzero(is_first), 6), max(cut.shape))
    np.minimum.at(bounds, label - 1, np.stack((z, y, x0, -1 - z, -1 - y, -x1), axis=1))
    for idx, (a, b, c, d, e, f) in enumerate(bounds.tolist(), start=1):
        box = (slice(a, -d), slice(b, -e), slice(c, -f))
        yield _shift(box, crop), labeled[box] == idx


def _score(probs: ProbStack, grade, box, mask) -> float:
    """Mean under the mask of the scoring channel within the box: the
    grade's own channel, or the per-voxel float64 sum of the CS channels for
    a CS-binary cluster.  Clamped at 1, as the CS channels of a valid stack
    may sum to just above it."""
    if grade == CS_BINARY:
        channel = np.sum([probs.data[int(g)][box] for g in CS_GRADES], axis=0, dtype=np.float64)
    else:
        channel = probs.data[int(grade)][box]
    return min(float(channel[mask].mean(dtype=np.float64)), 1.0)


def _codes(labels: Volume) -> np.ndarray:
    """The codes of a label volume; a volume of any other kind is a ValueError."""
    if labels.kind != KIND_LABEL:
        raise ValueError(f"lesions are clustered from a {KIND_LABEL!r} volume, "
                         f"got kind {labels.kind!r}")
    return np.asarray(labels.values)


def _lesion_map(labels: Volume, probs: ProbStack | None, parts) -> LesionMap:
    """The map of (grade, box, mask) parts, scored and in scan order."""
    if probs is not None and (probs.dims, probs.spacing_mm) != (labels.dims, labels.spacing_mm):
        raise ValueError(f"probability grid {probs.dims} at {probs.spacing_mm} mm does not match "
                         f"the label grid {labels.dims} at {labels.spacing_mm} mm")
    found = [LesionCluster(box, mask, grade, int(np.count_nonzero(mask)) * labels.voxel_volume_mm3,
                           1.0 if probs is None else _score(probs, grade, box, mask))
             for grade, box, mask in parts]
    found.sort(key=lambda c: c.first_voxel[::-1])
    return LesionMap(tuple(found), labels.dims, labels.spacing_mm)


def lesion_maps(
    labels: Volume, probs: ProbStack | None, connectivity: int = DEFAULT_CONNECTIVITY
) -> tuple[LesionMap, LesionMap]:
    """The GS map and the CS map of a label volume, from one labelling of its
    lesion voxels: only a component of mixed grades is labelled again, in its
    box.  Without probabilities every score is 1.0."""
    lab, structure = _codes(labels), _structure(connectivity)
    gs, cs = [], []  # (grade, box, mask) per cluster
    for box, comp in _components(lab >= _LOWEST_GRADE, structure):
        codes, present = lab[box], np.flatnonzero(np.bincount(lab[box][comp]))
        if len(present) == 1:
            gs.append((Grade(present[0]), box, comp))
        else:  # labelled again inside its box: per grade, and over its CS voxels
            for grade in present:
                gs += [(Grade(grade), _shift(b, box), m)
                       for b, m in _components(comp & (codes == grade), structure)]
            if present[0] < _LOWEST_CS:  # GS6 voxels may join CS voxels that are apart
                cs += [(CS_BINARY, _shift(b, box), m)
                       for b, m in _components(comp & (codes >= _LOWEST_CS), structure)]
        if present[0] >= _LOWEST_CS:  # no GS6 voxel: the component is one CS cluster
            cs.append((CS_BINARY, box, comp))
    return _lesion_map(labels, probs, gs), _lesion_map(labels, probs, cs)


def gs_lesion_maps(
    labels: Volume, probs: ProbStack | None, connectivity: int = DEFAULT_CONNECTIVITY
) -> LesionMap:
    """Cluster each lesion grade alone, so touching grades never merge: the
    GS map of lesion_maps, built without a CS map, one labelling per grade."""
    lab, structure = _codes(labels), _structure(connectivity)
    parts = ((g, b, m) for g in GRADE_ORDER for b, m in _components(lab == int(g), structure))
    return _lesion_map(labels, probs, parts)


def cs_lesion_maps(
    labels: Volume, probs: ProbStack | None, connectivity: int = DEFAULT_CONNECTIVITY
) -> LesionMap:
    """Cluster the union of the CS grades, scored by the summed CS channels:
    the CS map of lesion_maps, built without a GS map, in one labelling."""
    lab, structure = _codes(labels), _structure(connectivity)
    parts = ((CS_BINARY, b, m) for b, m in _components(lab >= _LOWEST_CS, structure))
    return _lesion_map(labels, probs, parts)


def filter_by_volume(m: LesionMap, min_mm3: float = MIN_LESION_VOLUME_MM3) -> LesionMap:
    """Drop clusters whose physical volume is below the threshold; a cluster
    at exactly the threshold is kept."""
    if not (min_mm3 >= 0):  # NaN fails too
        raise ValueError("min_mm3 must be nonnegative")
    return m.select(lambda c: c.volume_mm3 >= min_mm3)


def _in_zone(c: LesionCluster, zone: Volume) -> bool:
    """At least half of the cluster's voxels lie inside the zone mask."""
    return 2 * int(np.count_nonzero(zone.values[c.box][c.mask])) >= c.n_voxels


def filter_by_zone(m: LesionMap, zone: Volume) -> LesionMap:
    """Keep clusters with at least half their voxels inside the zone mask, so
    a lesion split evenly between two zones is kept by both.

    Selection is per whole cluster, never voxel carving, so it commutes with
    volume filtering."""
    return m.select(lambda c: _in_zone(c, zone))
