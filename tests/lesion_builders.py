"""Lesion clusters built from (x, y, z) voxel tuples, the form the tests
write them in, and the detection records the pipeline grades them into."""

from types import SimpleNamespace

import numpy as np

from lesionkit.cluster import LesionCluster
from lesionkit.evaluation import EvaluationConfig, _patient_records


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


def graded_records(gs_pred, gs_gt, **cfg):
    """The DetectionRecords that evaluate's per-patient stage builds from
    these GS maps under EvaluationConfig(**cfg): one per lesion, in map
    order, graded by the qualifying cluster the pipeline's rule picks."""
    patient = SimpleNamespace(patient_id="p", fold=0, zones=None)
    return _patient_records(patient, gs_pred, gs_gt, EvaluationConfig(**cfg))
