"""Voxel-to-lesion conversion: 3D connected components, per-grade and
clinically-significant (CS) lesion maps, volume filtering, zone filtering,
and lesion probability scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .grades import CS_BINARY, CS_GRADES, GRADE_ORDER, Grade
from .volume import ProbStack, Volume, mask_voxels, voxel_indices

MAP_GS = "gs"
MAP_CS = "cs"

MIN_LESION_VOLUME_MM3 = 45.0
DEFAULT_CONNECTIVITY = 26

_CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}
CONNECTIVITIES = tuple(_CONNECTIVITY_RANK)


@dataclass(frozen=True)
class LesionCluster:
    """One connected lesion: voxel tuple, grade, physical volume, and its
    probability score (mean of the scoring channel)."""

    voxels: tuple[tuple[int, int, int], ...]  # (x, y, z), in scan order
    grade: object  # Grade member, or CS_BINARY for merged CS clusters
    volume_mm3: float
    score: float

    def __post_init__(self):
        if not self.voxels:
            raise ValueError("cluster must contain at least one voxel")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.grade != CS_BINARY and not isinstance(self.grade, Grade):
            raise ValueError(f"grade must be a lesion grade or {CS_BINARY!r}")

    @property
    def n_voxels(self) -> int:
        return len(self.voxels)

    @property
    def voxel_set(self) -> frozenset:
        return frozenset(self.voxels)

    @property
    def bbox(self) -> tuple[int, int, int, int, int, int]:
        """(xmin, ymin, zmin, xmax, ymax, zmax), inclusive."""
        xs, ys, zs = zip(*self.voxels)
        return (min(xs), min(ys), min(zs), max(xs), max(ys), max(zs))

    def index_arrays(self):
        """(zs, ys, xs) integer arrays for numpy fancy indexing."""
        return voxel_indices(self.voxels)

    @property
    def grade_name(self) -> str:
        return self.grade if self.grade == CS_BINARY else self.grade.display


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
        seen = set()
        for c in self.clusters:
            common = seen.intersection(c.voxels)
            if common:
                raise ValueError(f"clusters overlap at voxel {min(common)}")
            seen.update(c.voxels)
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))

    def __len__(self) -> int:
        return len(self.clusters)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in _CONNECTIVITY_RANK:
        raise ValueError(f"connectivity must be one of 6, 18, 26, got {connectivity}")
    return ndimage.generate_binary_structure(3, _CONNECTIVITY_RANK[connectivity])


def _components(mask: np.ndarray, connectivity: int):
    """(box, component mask within the box) per connected component of the
    mask, in the order ndimage.label numbers them.  Only the mask's bounding
    box is labelled; each box is in grid coordinates."""
    structure = _structure(connectivity)
    crop = []
    for axis in range(mask.ndim):
        hits = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        if hits.size == 0:
            return
        crop.append(slice(int(hits[0]), int(hits[-1]) + 1))
    labeled, _ = ndimage.label(mask[tuple(crop)], structure=structure)
    for idx, box in enumerate(ndimage.find_objects(labeled), start=1):
        grid_box = tuple(slice(b.start + c.start, b.stop + c.start) for b, c in zip(box, crop))
        yield grid_box, labeled[box] == idx


def connected_components(v: Volume, connectivity: int = DEFAULT_CONNECTIVITY):
    """Partition the foreground of a binary volume into maximal connected
    sets of (x, y, z) voxels under a 6/18/26 neighborhood."""
    mask = np.asarray(v.values) != 0
    return [set(mask_voxels(comp, box)) for box, comp in _components(mask, connectivity)]


def _scoring_channel(probs: ProbStack, grade, index) -> np.ndarray:
    """The scoring channel at index (a box or index arrays): the grade's own
    channel, or the per-voxel float64 sum of the CS channels for a CS-binary
    cluster."""
    if grade == CS_BINARY:
        return np.sum([probs.data[int(g)][index] for g in CS_GRADES], axis=0, dtype=np.float64)
    return probs.data[int(grade)][index]


def _build_map(labels: Volume, probs, connectivity: int, map_kind: str) -> LesionMap:
    if probs is not None and (probs.dims, probs.spacing_mm) != (labels.dims, labels.spacing_mm):
        raise ValueError(
            f"probability grid {probs.dims} at {probs.spacing_mm} mm does not match "
            f"the label grid {labels.dims} at {labels.spacing_mm} mm"
        )
    lab = np.asarray(labels.values)
    if map_kind == MAP_GS:
        groups = [(grade, lab == int(grade)) for grade in GRADE_ORDER]
    else:
        groups = [(CS_BINARY, np.isin(lab, [int(g) for g in CS_GRADES]))]
    clusters = []
    for grade, mask in groups:
        for box, comp in _components(mask, connectivity):
            vox = mask_voxels(comp, box)
            score = 1.0 if probs is None else float(
                _scoring_channel(probs, grade, box)[comp].mean(dtype=np.float64)
            )
            clusters.append(
                LesionCluster(
                    voxels=vox,
                    grade=grade,
                    volume_mm3=len(vox) * labels.voxel_volume_mm3,
                    score=min(score, 1.0),
                )
            )
    clusters.sort(key=lambda c: c.voxels[0][::-1])
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
    channel, or the summed CS channels for a CS-binary cluster)."""
    return float(_scoring_channel(probs, c.grade, c.index_arrays()).mean(dtype=np.float64))


def filter_by_volume(m: LesionMap, min_mm3: float = MIN_LESION_VOLUME_MM3) -> LesionMap:
    """Drop clusters whose physical volume is below the threshold; a cluster
    at exactly the threshold is kept."""
    if not (min_mm3 >= 0):  # NaN fails too
        raise ValueError("min_mm3 must be nonnegative")
    kept = tuple(c for c in m.clusters if c.volume_mm3 >= min_mm3)
    return replace(m, clusters=kept)


def _in_zone(c: LesionCluster, zone: Volume) -> bool:
    """At least half of the cluster's voxels lie inside the zone mask."""
    return 2 * int(np.count_nonzero(zone.values[c.index_arrays()])) >= c.n_voxels


def filter_by_zone(m: LesionMap, zone: Volume) -> LesionMap:
    """Keep clusters with at least half their voxels inside the zone mask, so
    a lesion split evenly between two zones is kept by both.

    Selection is per whole cluster, never voxel carving, so it commutes with
    volume filtering."""
    return replace(m, clusters=tuple(c for c in m.clusters if _in_zone(c, zone)))
