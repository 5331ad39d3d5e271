"""Lesion clusters built from (x, y, z) voxel tuples, the form the tests
write them in."""

import numpy as np

from lesionkit.cluster import LesionCluster


def from_voxels(voxels, grade, volume_mm3, score):
    """A LesionCluster of the given (x, y, z) voxels: their mask within
    their tight bounding box.  No voxels give an empty box, which the
    cluster rejects."""
    zyx = np.array([v[::-1] for v in voxels], dtype=np.intp).reshape(-1, 3)
    lo = zyx.min(axis=0) if len(zyx) else np.zeros(3, dtype=np.intp)
    hi = zyx.max(axis=0) + 1 if len(zyx) else lo
    mask = np.zeros(hi - lo, dtype=bool)
    mask[tuple((zyx - lo).T)] = True
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    return LesionCluster(box, mask, grade, volume_mm3, score)
