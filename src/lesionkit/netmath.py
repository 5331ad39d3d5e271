"""Training-side math: class-weighted Dice and cross-entropy losses with
analytic gradients, the scheduled two-branch global loss, the attention-gate
op with its backward pass, and softmax-to-label conversion.  The argmax
itself is found by ProbStack in the same scan over z-slabs that validates
the stack; label_from_probs only wraps it as a label volume.

The gate resamples its plane by volume's per-axis taps, x then y; its
backward pass scatters through the same taps, y then x.

Losses operate on (N voxels, C classes) arrays, matching per-slice 2D
training batches.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .grades import N_LABELS
from .volume import KIND_LABEL, ProbStack, Spec, Volume, setting, validate
from .volume import axis_taps, resample_axis, resample_axis_adjoint

CE_CLAMP = 1e-7

# Per-class loss weights: background, prostate, then one per lesion grade.
LESION_BRANCH_WEIGHTS = (0.002, 0.14, 0.1715, 0.1715, 0.1715, 0.1715)
PROSTATE_BRANCH_WEIGHTS = (0.002, 0.14)

DEFAULT_SWITCH_EPOCH = 20


@dataclass(frozen=True)
class ClassWeights:
    """Nonnegative per-class weights, one positive; 2 entries for the
    prostate branch, 6 for the lesion branch."""

    w: tuple[float, ...] = setting(MISSING, "real", "[0, inf)", ((2, N_LABELS),), "class weights")

    def __post_init__(self):
        validate(self)
        if not any(self.w):
            raise ValueError(f"weights must hold one positive value, got {self.w}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.w, dtype=np.float64)

    @classmethod
    def lesion_default(cls) -> "ClassWeights":
        return cls(LESION_BRANCH_WEIGHTS)

    @classmethod
    def prostate_default(cls) -> "ClassWeights":
        return cls(PROSTATE_BRANCH_WEIGHTS)


@dataclass(frozen=True)
class LossSchedule:
    """Branch mixing weights; lambda2 is inactive before switch_epoch."""

    lambda1: float = setting(1.0, "real", "[0, inf)")
    lambda2: float = setting(1.0, "real", "[0, inf)")
    switch_epoch: int = setting(DEFAULT_SWITCH_EPOCH, "int", "[0, inf)")

    __post_init__ = validate

    def lambda2_at(self, epoch: int) -> float:
        return 0.0 if epoch < self.switch_epoch else self.lambda2


@dataclass(frozen=True)
class LossValue:
    total: float = setting(MISSING, "real", "(-inf, inf)")
    dice_term: float = setting(MISSING, "real", "[-1e-12, 1.000000000001]")
    ce_term: float = setting(MISSING, "real", "[0, inf)")
    empty_dice: bool = False  # denominator was 0; dice_term defined as 0

    def __post_init__(self):
        validate(self)
        if abs(self.total - (self.dice_term + self.ce_term)) > 1e-9:
            raise ValueError("total must equal dice_term + ce_term")


@dataclass(frozen=True)
class FeatureStack:
    """C finite feature planes sharing one (h, w) extent."""

    planes: np.ndarray  # (C, h, w)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.planes, dtype=np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError(f"expected nonempty (C, h, w) planes, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "planes", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.planes.shape


@dataclass(frozen=True)
class AttentionMap:
    """Single (H, W) plane of gate values in [0, 1]."""

    plane: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.plane, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"expected nonempty (H, W) plane, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("attention values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "plane", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.plane.shape


# ---------------------------------------------------------------------------
# Losses


def _check_pair(p: np.ndarray, y: np.ndarray, w: ClassWeights):
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 2 or len(p) == 0:
        raise ValueError(f"p and y need one (N, C) shape, N >= 1 voxel; got {p.shape}, {y.shape}")
    for name, arr in (("p", p), ("y", y)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    if p.shape[1] != len(w.w):
        raise ValueError(f"{p.shape[1]} classes vs {len(w.w)} weights")
    return p, y, w.as_array()


def weighted_dice_loss(p, y, w: ClassWeights) -> float:
    """1 - 2*(sum_c w_c sum_i y_ci p_ci) / (sum_c w_c sum_i (y_ci + p_ci)).

    An all-zero denominator (no mass in any weighted class) is treated as
    perfect agreement and returns 0.
    """
    p, y, wa = _check_pair(p, y, w)
    num = float(wa @ (y * p).sum(axis=0))
    den = float(wa @ (y + p).sum(axis=0))
    if den == 0.0:
        return 0.0
    return 1.0 - 2.0 * num / den


def weighted_ce_loss(p, y, w: ClassWeights) -> float:
    """-(1/N) sum_i sum_c y_ci w_c log(p_ci), with p clamped at 1e-7."""
    p, y, wa = _check_pair(p, y, w)
    n = p.shape[0]
    logs = np.log(np.maximum(p, CE_CLAMP))
    return float(-(wa @ (y * logs).sum(axis=0)) / n)


def branch_loss(p, y, w: ClassWeights) -> LossValue:
    """Dice + cross-entropy for one segmentation branch."""
    pa, ya, wa = _check_pair(p, y, w)
    den = float(wa @ (ya + pa).sum(axis=0))
    dice = weighted_dice_loss(p, y, w)
    ce = weighted_ce_loss(p, y, w)
    return LossValue(total=dice + ce, dice_term=dice, ce_term=ce, empty_dice=den == 0.0)


def global_loss(lp: LossValue, ll: LossValue, s: LossSchedule, epoch: int) -> float:
    """lambda1 * prostate loss + lambda2 * lesion loss, with lambda2 gated
    off before the schedule's switch epoch."""
    Spec("int", "[0, inf)").conform("epoch", epoch)
    return s.lambda1 * lp.total + s.lambda2_at(epoch) * ll.total


def branch_loss_gradient(p, y, w: ClassWeights) -> np.ndarray:
    """d(dice_term + ce_term)/dp, analytic, shape (N, C).

    Requires p strictly inside (clamp, 1) so the log term is smooth.
    """
    p, y, wa = _check_pair(p, y, w)
    if p.min() <= CE_CLAMP or p.max() >= 1.0:
        raise ValueError(f"p must lie strictly inside ({CE_CLAMP}, 1)")
    n = p.shape[0]
    num = float(wa @ (y * p).sum(axis=0))  # A
    den = float(wa @ (y + p).sum(axis=0))  # B
    if den == 0.0:
        d_dice = np.zeros_like(p)
    else:
        d_dice = -2.0 * wa[None, :] * (y * den - num) / (den * den)
    d_ce = -(wa[None, :] * y / p) / n
    return d_dice + d_ce


# ---------------------------------------------------------------------------
# Attention gate


def _gate_taps(a: AttentionMap, shape: tuple[int, int]):
    """The (y, x) taps that resample the gate plane to a block's (h, w):
    area pooling when both ratios are integral (the identity at ratio 1),
    bilinear on both axes otherwise."""
    (H, W), (h, w) = a.shape, shape
    if not (0 < h <= H and 0 < w <= W):
        raise ValueError(f"cannot gate ({h}, {w}) block with ({H}, {W}) map")
    method = "area" if H % h == 0 and W % w == 0 else "bilinear"
    return axis_taps(H, h, method, H / h), axis_taps(W, w, method, W / w)


def resample_attention(a: AttentionMap, shape: tuple[int, int]) -> np.ndarray:
    """The gate plane resampled to a block's (h, w), x then y."""
    ty, tx = _gate_taps(a, shape)
    return resample_axis(resample_axis(a.plane, 1, tx), 0, ty)


def _resample_attention_adjoint(g: np.ndarray, a: AttentionMap) -> np.ndarray:
    """The transpose of resample_attention: y's taps, then x's, scattered back."""
    (H, W), (ty, tx) = a.shape, _gate_taps(a, np.shape(g))
    return resample_axis_adjoint(resample_axis_adjoint(g, 0, ty, H), 1, tx, W)


def attention_gate_forward(f: FeatureStack, a: AttentionMap) -> FeatureStack:
    """Channel-wise Hadamard product of features with the resampled gate."""
    _, h, w = f.shape
    gate = resample_attention(a, (h, w))
    return FeatureStack(f.planes * gate[None, :, :])


def attention_gate_backward(
    f: FeatureStack, a: AttentionMap, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the gate op: df_c = dout_c * gate; da accumulates
    sum_c dout_c * f_c pushed through the resampling adjoint."""
    dout = np.asarray(dout, dtype=np.float64)
    if dout.shape != f.shape:
        raise ValueError(f"dout shape {dout.shape} != features {f.shape}")
    _, h, w = f.shape
    gate = resample_attention(a, (h, w))
    df = dout * gate[None, :, :]
    d_gate = (dout * f.planes).sum(axis=0)
    da = _resample_attention_adjoint(d_gate, a)
    return df, da


# ---------------------------------------------------------------------------
# Softmax to label


def label_from_probs(p: ProbStack) -> Volume:
    """Per-voxel argmax over the 6 channels; ties go to the lowest index.

    The stack found it while validating its values, so this only wraps
    p.labels as a label volume."""
    return Volume._validated(p.labels, p.spacing_mm, KIND_LABEL)
