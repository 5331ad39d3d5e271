"""Detection matching: which predicted clusters count as true positives,
the best-Dice order by which a qualifying cluster grades a lesion, and
point-coordinate grade lookup for the external-dataset protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import LesionCluster, LesionMap, overlapping
from .grades import MISSED, Grade
from .volume import Volume

DEFAULT_OVERLAP_FRAC = 0.10

#: Denominator of the overlap fraction: the predicted cluster's own volume,
#: the ground-truth lesion's, or their union.
OVERLAP_DENOMS = ("pred", "gt", "union")


def _dice(inter: int, na: int, nb: int) -> float:
    return 2.0 * inter / (na + nb)


@dataclass(frozen=True)
class TpMatch:
    """A qualifying prediction credited to one ground-truth lesion."""

    pred: LesionCluster
    gt: LesionCluster
    intersection: int
    overlap: float  # intersection / configured denominator
    dice: float


@dataclass(frozen=True)
class MatchResult:
    """Partition of predictions into TP / FP / duplicate, with unmatched
    ground-truth lesions as FN.

    Duplicates are extra qualifying predictions of an already-credited
    lesion; by default they count as neither TP nor FP (strict mode moves
    them to FP before this result is built).
    """

    tp: tuple[TpMatch, ...]
    fp: tuple[LesionCluster, ...]
    fn: tuple[LesionCluster, ...]
    duplicates: tuple[LesionCluster, ...] = ()

    @property
    def n_gt(self) -> int:
        return len(self.tp) + len(self.fn)

    @property
    def sensitivity(self) -> float:
        n = self.n_gt
        return len(self.tp) / n if n else 0.0


@dataclass(frozen=True)
class DetectionRecord:
    """One ground-truth lesion's detection outcome for CSV reporting."""

    patient_id: str
    fold: int
    zone: str  # "PZ" | "TZ" | "unknown"
    gt_grade: Grade
    pred_grade: object  # Grade or MISSED
    score: float
    dice: float
    overlap_frac: float

    def __post_init__(self):
        ok = self.pred_grade == MISSED or isinstance(self.pred_grade, Grade)
        if not ok:
            raise ValueError(f"pred_grade must be a grade or {MISSED!r}")


def _overlap_value(inter: int, pred: LesionCluster, gt: LesionCluster, denom: str) -> float:
    # denom is one of OVERLAP_DENOMS, validated where it enters
    if denom == "pred":
        return inter / pred.n_voxels
    if denom == "gt":
        return inter / gt.n_voxels
    return inter / (pred.n_voxels + gt.n_voxels - inter)


def _qualifies(inter: int, pred: LesionCluster, gt: LesionCluster, denom: str, frac: float) -> bool:
    """The detection rule: the overlap fraction reaches frac."""
    return inter > 0 and _overlap_value(inter, pred, gt, denom) >= frac


def _grading_key(inter: int, pred: LesionCluster, gt: LesionCluster):
    """Best-Dice order: highest Dice, then larger intersection, then lower
    grade code."""
    return (_dice(inter, pred.n_voxels, gt.n_voxels), inter, -int(pred.grade))


def match_detections(
    pred: LesionMap,
    gt: LesionMap,
    overlap_frac: float = DEFAULT_OVERLAP_FRAC,
    score_threshold: float = 0.0,
    denom: str = "pred",
    strict_duplicates: bool = False,
) -> MatchResult:
    """Match predicted clusters with score >= score_threshold against
    ground-truth lesions.

    A prediction qualifies when its voxel intersection with some lesion,
    divided by the configured denominator, reaches overlap_frac; it is then
    credited to the lesion with the largest intersection among those it
    qualifies for.  Each lesion is credited at most once; processing runs
    in descending score order, so a lesion keeps its best-scoring
    prediction.  Later qualifying predictions of the same lesion become
    duplicates (FP instead when strict_duplicates is set).  Predictions
    qualifying nowhere are FP; lesions credited by nothing are FN.
    """
    if not (0.0 < overlap_frac <= 1.0):
        raise ValueError(f"overlap_frac must lie in (0, 1], got {overlap_frac}")
    if denom not in OVERLAP_DENOMS:
        raise ValueError(f"overlap denominator must be one of {OVERLAP_DENOMS}, got {denom!r}")
    if pred.dims != gt.dims or pred.spacing_mm != gt.spacing_mm:
        raise ValueError("prediction and ground truth must share the voxel grid")

    order = sorted(
        (c for c in pred.clusters if c.score >= score_threshold),
        key=lambda c: (-c.score, c.first_voxel[::-1]),
    )
    claimed = [False] * len(gt.clusters)
    tp, fp, dup = [], [], []
    for p, hits in zip(order, overlapping(order, gt.clusters)):
        qualifying = [(inter, gi) for gi, inter in hits
                      if _qualifies(inter, p, gt.clusters[gi], denom, overlap_frac)]
        # the largest intersection; on a tie, the lesion first in scan order
        best = max(qualifying, key=lambda ig: ig[0], default=None)
        if best is None:
            fp.append(p)
            continue
        inter, gi = best
        if claimed[gi]:
            (fp if strict_duplicates else dup).append(p)
            continue
        claimed[gi] = True
        g = gt.clusters[gi]
        tp.append(
            TpMatch(
                pred=p,
                gt=g,
                intersection=inter,
                overlap=_overlap_value(inter, p, g, denom),
                dice=_dice(inter, p.n_voxels, g.n_voxels),
            )
        )
    fn = tuple(c for gi, c in enumerate(gt.clusters) if not claimed[gi])
    return MatchResult(tp=tuple(tp), fp=tuple(fp), fn=fn, duplicates=tuple(dup))


def point_in_cluster_grade(
    point: tuple[int, int, int], cs_map: LesionMap, gs_labels: Volume
) -> Grade:
    """External-dataset point protocol: a point inside a CS cluster takes
    the cluster's modal grade (ties toward the higher grade); a point
    covered by no cluster reads GS6."""
    x, y, z = (int(v) for v in point)
    nx, ny, nz = gs_labels.dims
    if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
        raise ValueError(f"point {point} outside grid {gs_labels.dims}")
    zyx = (z, y, x)
    hit = next((c for c in cs_map.clusters
                if all(s.start <= i < s.stop for s, i in zip(c.box, zyx))
                and c.mask[tuple(i - s.start for s, i in zip(c.box, zyx))]), None)
    if hit is None:
        return Grade.GS6
    labels = np.asarray(gs_labels.values)[hit.box][hit.mask]
    counts = {g: int(np.count_nonzero(labels == int(g))) for g in Grade}
    if not any(counts.values()):
        return Grade.GS6
    # modal grade; exact ties resolve to the more aggressive grade
    return max(counts, key=lambda g: (counts[g], int(g)))
