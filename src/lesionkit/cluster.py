"""Voxel-to-lesion conversion: 3D connected components, per-grade and
clinically-significant (CS) lesion maps, volume filtering, zone filtering,
and lesion probability scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .grades import CS_BINARY, CS_GRADES, GRADE_ORDER, Grade
from .volume import ProbStack, Volume, mask_voxels

MAP_GS = "gs"
MAP_CS = "cs"

MIN_LESION_VOLUME_MM3 = 45.0
DEFAULT_CONNECTIVITY = 26

_CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}
CONNECTIVITIES = tuple(_CONNECTIVITY_RANK)


@dataclass(frozen=True, eq=False)
class LesionCluster:
    """One connected lesion: its voxels as a mask within their box, its grade,
    physical volume, and probability score (mean of the scoring channel).
    ``values[c.box][c.mask]`` reads an array under it, in scan order.
    Clusters compare by identity."""

    box: tuple[slice, slice, slice]  # tight (z, y, x) box, as find_objects gives it
    mask: np.ndarray  # bool, the box's shape; stored as a read-only copy
    grade: object  # Grade member, or CS_BINARY for merged CS clusters
    volume_mm3: float
    score: float
    n_voxels: int = field(init=False, repr=False)
    first_voxel: tuple[int, int, int] = field(init=False, repr=False)  # (x, y, z), in scan order

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)  # a copy: the caller's array may change
        if len(self.box) != 3 or mask.shape != tuple(s.stop - s.start for s in self.box):
            raise ValueError(f"mask of shape {mask.shape} does not fill the box {self.box}")
        mask.flags.writeable = False
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


def _check_disjoint(clusters) -> None:
    """Raise ValueError when two clusters share a voxel: each mask is painted
    in turn over the clusters' union box, and must find its voxels unpainted."""
    if len(clusters) < 2:
        return
    lo = [min(c.box[a].start for c in clusters) for a in range(3)]
    hi = [max(c.box[a].stop for c in clusters) for a in range(3)]
    painted = np.zeros([h - l for l, h in zip(lo, hi)], dtype=bool)
    for c in clusters:
        region = painted[tuple(slice(s.start - l, s.stop - l) for s, l in zip(c.box, lo))]
        if region[c.mask].any():
            other = next(o for o in clusters if o is not c and shared_voxels(o, c))
            raise ValueError(f"clusters at voxels {other.first_voxel} and "
                             f"{c.first_voxel} overlap")
        region[c.mask] = True


@dataclass(frozen=True)
class LesionMap:
    """Disjoint lesion clusters extracted from one volume."""

    clusters: tuple[LesionCluster, ...]
    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    map_kind: str

    def __post_init__(self):
        if self.map_kind not in (MAP_GS, MAP_CS):
            raise ValueError(f"map_kind must be {MAP_GS!r} or {MAP_CS!r}")
        object.__setattr__(self, "clusters", tuple(self.clusters))
        _check_disjoint(self.clusters)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))

    def __len__(self) -> int:
        return len(self.clusters)

    def select(self, keep) -> LesionMap:
        """The map of the clusters for which keep(cluster) holds."""
        return replace(self, clusters=tuple(c for c in self.clusters if keep(c)))


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in _CONNECTIVITY_RANK:
        raise ValueError(f"connectivity must be one of 6, 18, 26, got {connectivity}")
    return ndimage.generate_binary_structure(3, _CONNECTIVITY_RANK[connectivity])


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


def _components(mask: np.ndarray, structure: np.ndarray):
    """(box, component mask within the box) per connected component of the
    mask, in the order ndimage.label numbers them.  Only the mask's bounding
    box is labelled; each box is in the mask's coordinates."""
    axes = range(mask.ndim)
    crop = _bounds(mask.any(axis=tuple(a for a in axes if a != axis)) for axis in axes)
    if crop is None:
        return
    labeled, _ = ndimage.label(mask[crop], structure=structure)
    for idx, box in enumerate(ndimage.find_objects(labeled), start=1):
        yield _shift(box, crop), labeled[box] == idx


def connected_components(v: Volume, connectivity: int = DEFAULT_CONNECTIVITY):
    """Partition the foreground of a binary volume into maximal connected
    sets of (x, y, z) voxels under a 6/18/26 neighborhood."""
    mask = np.asarray(v.values) != 0
    structure = _structure(connectivity)
    return [set(mask_voxels(comp, box)) for box, comp in _components(mask, structure)]


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


def _build_map(labels: Volume, probs, connectivity: int, map_kind: str) -> LesionMap:
    if probs is not None and (probs.dims, probs.spacing_mm) != (labels.dims, labels.spacing_mm):
        raise ValueError(
            f"probability grid {probs.dims} at {probs.spacing_mm} mm does not match "
            f"the label grid {labels.dims} at {labels.spacing_mm} mm"
        )
    structure = _structure(connectivity)
    # the map's grade codes are the top of the label range, so one threshold
    # finds all their voxels, and uint8 max projections give their box
    lowest = min(int(g) for g in (GRADE_ORDER if map_kind == MAP_GS else CS_GRADES))
    lab = np.asarray(labels.values)
    yx = lab.max(axis=0)
    crop = _bounds((lab.max(axis=(1, 2)) >= lowest, yx.max(axis=1) >= lowest,
                    yx.max(axis=0) >= lowest))
    if crop is None:
        return LesionMap((), labels.dims, labels.spacing_mm, map_kind)
    sub = lab[crop]
    if map_kind == MAP_GS:
        groups = [(grade, sub == int(grade)) for grade in GRADE_ORDER]
    else:
        groups = [(CS_BINARY, sub >= lowest)]
    clusters = []
    for grade, mask in groups:
        for sub_box, comp in _components(mask, structure):
            box = _shift(sub_box, crop)
            score = 1.0 if probs is None else _score(probs, grade, box, comp)
            volume = int(np.count_nonzero(comp)) * labels.voxel_volume_mm3
            clusters.append(LesionCluster(box, comp, grade, volume, score))
    clusters.sort(key=lambda c: c.first_voxel[::-1])
    return LesionMap(tuple(clusters), labels.dims, labels.spacing_mm, map_kind)


def gs_lesion_maps(
    labels: Volume, probs: ProbStack | None, connectivity: int = DEFAULT_CONNECTIVITY
) -> LesionMap:
    """Cluster each lesion grade independently; adjacent voxels of different
    grades never merge.  Without probabilities every score is 1.0 (ground
    truth maps)."""
    return _build_map(labels, probs, connectivity, MAP_GS)


def cs_lesion_maps(
    labels: Volume, probs: ProbStack | None, connectivity: int = DEFAULT_CONNECTIVITY
) -> LesionMap:
    """Cluster the binary union of the three CS grades; touching lesions of
    different CS grades merge into one cluster.  The scoring channel is the
    per-voxel sum of the three CS probability channels."""
    return _build_map(labels, probs, connectivity, MAP_CS)


def lesion_probability_score(c: LesionCluster, probs: ProbStack) -> float:
    """Mean over the cluster's voxels of its scoring channel (the grade's
    channel, or the summed CS channels for a CS-binary cluster), clamped at
    1: the score its map gave it."""
    return _score(probs, c.grade, c.box, c.mask)


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
