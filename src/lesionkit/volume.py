"""Dense 3D scalar grids with physical voxel spacing, bit-exact file I/O,
and in-plane resample/crop/normalize preprocessing.

Storage convention: arrays are indexed ``values[z, y, x]`` (C order), so the
raw memory layout is x-fastest / z-slowest.  ``dims`` is reported as
``(nx, ny, nz)``, and single voxels as ``(x, y, z)`` tuples; ``mask_voxels``
and ``voxel_indices`` are the only conversions between the two.  Files come
in pairs: a ``<name>.vol.json`` header and a ``<name>.vol.raw`` little-endian
payload in the same x-fastest order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .grades import N_LABELS

KIND_INTENSITY = "intensity"
KIND_LABEL = "label"
KIND_PROBABILITY = "probability"

_KINDS = (KIND_INTENSITY, KIND_LABEL, KIND_PROBABILITY)

_DTYPES = {
    KIND_INTENSITY: np.dtype("<f4"),
    KIND_LABEL: np.dtype("u1"),
    KIND_PROBABILITY: np.dtype("<f4"),
}

_DTYPE_NAMES = {np.dtype("u1"): "u8", np.dtype("<f4"): "f32"}
_DTYPE_FROM_NAME = {"u8": np.dtype("u1"), "f32": np.dtype("<f4")}


class VolumeFormatError(ValueError):
    """Header/payload inconsistency or invalid voxel data on disk."""


def require_ints(cfg, *names) -> None:
    """Raise ValueError unless each named field of a config holds an int, or
    a tuple or list of ints; bools and floats are rejected."""
    for name in names:
        value = getattr(cfg, name)
        items = value if isinstance(value, (tuple, list)) else (value,)
        if not all(type(v) is int for v in items):
            raise ValueError(f"{name} must hold integers, got {value!r}")


@dataclass(frozen=True)
class Volume:
    """Immutable dense 3D grid.

    values: array of shape (nz, ny, nx); uint8 for labels, float32 otherwise.
    spacing_mm: (sx, sy, sz) millimetres per voxel.
    kind: "intensity" | "label" | "probability".
    """

    values: np.ndarray
    spacing_mm: tuple[float, float, float]
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown volume kind {self.kind!r}")
        arr = np.ascontiguousarray(self.values, dtype=_DTYPES[self.kind])
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"values must be a non-empty 3D array, got shape {arr.shape}")
        sp = tuple(float(s) for s in self.spacing_mm)
        if len(sp) != 3 or not all(0.0 < s < float("inf") for s in sp):
            raise ValueError(
                f"spacing must be three positive finite floats, got {self.spacing_mm}"
            )
        if self.kind == KIND_LABEL:
            if arr.max(initial=0) >= N_LABELS:
                raise ValueError(f"label values must lie in 0..{N_LABELS - 1}")
        else:
            if not np.all(np.isfinite(arr)):
                raise ValueError("intensity/probability values must be finite")
            if self.kind == KIND_PROBABILITY and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError("probability values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "spacing_mm", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz) voxel counts."""
        nz, ny, nx = self.values.shape
        return (nx, ny, nz)

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing_mm
        return sx * sy * sz

    @property
    def n_voxels(self) -> int:
        return int(self.values.size)

    def value_at(self, x: int, y: int, z: int):
        return self.values[z, y, x]

    def same_grid(self, other: "Volume") -> bool:
        return self.dims == other.dims and self.spacing_mm == other.spacing_mm


@dataclass(frozen=True)
class ProbStack:
    """Six per-class probability channels on one grid.

    Channel order matches the label codes: (background, prostate, GS6,
    GS3+4, GS4+3, GS>=8).  Per voxel the channels must sum to 1 within 1e-5.
    """

    data: np.ndarray  # (6, nz, ny, nx) float32
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[0] != N_LABELS:
            raise ValueError(f"expected ({N_LABELS}, nz, ny, nx) data, got shape {arr.shape}")
        # NaN propagates through min and max, so this also rejects NaN and inf
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError("probabilities must be finite and in [0, 1]")
        # t - 1 and 1 - t round monotonically in t, so the extreme sums give
        # the largest deviation exactly
        total = arr.sum(axis=0, dtype=np.float64)
        if total.max() - 1.0 > 1e-5 or 1.0 - total.min() > 1e-5:
            raise ValueError("per-voxel channel sums deviate from 1 by more than 1e-5")
        sp = tuple(float(s) for s in self.spacing_mm)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing_mm", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        _, nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def channel(self, c: int) -> Volume:
        return Volume(self.data[c], self.spacing_mm, KIND_PROBABILITY)

    @classmethod
    def from_channels(cls, channels: list[Volume]) -> "ProbStack":
        if len(channels) != N_LABELS:
            raise ValueError(f"expected {N_LABELS} channels, got {len(channels)}")
        first = channels[0]
        for ch in channels[1:]:
            if not ch.same_grid(first):
                raise ValueError("probability channels must share dims and spacing")
        return cls(np.stack([ch.values for ch in channels]), first.spacing_mm)


@dataclass(frozen=True)
class ZoneMask:
    """Peripheral-zone / transition-zone binary masks on the patient grid."""

    pz: Volume
    tz: Volume

    def __post_init__(self):
        if not self.pz.same_grid(self.tz):
            raise ValueError("pz and tz masks must share dims and spacing")
        if np.any((self.pz.values > 0) & (self.tz.values > 0)):
            raise ValueError("pz and tz masks overlap")


def mask_voxels(mask: np.ndarray, box=None) -> tuple:
    """(x, y, z) tuples of the nonzero voxels of a [z, y, x] mask, in scan
    order (z slowest, x fastest).  box is the (z, y, x) slice tuple the mask
    was cut from, as ndimage.find_objects returns it; None for a whole grid."""
    zs, ys, xs = np.nonzero(mask)
    if box is not None:
        zs, ys, xs = zs + box[0].start, ys + box[1].start, xs + box[2].start
    return tuple(zip(xs.tolist(), ys.tolist(), zs.tolist()))


def voxel_indices(voxels):
    """(zs, ys, xs) index arrays of (x, y, z) voxel tuples, for
    ``values[zs, ys, xs]`` fancy indexing."""
    flat = np.fromiter(chain.from_iterable(voxels), dtype=np.intp, count=3 * len(voxels))
    xs, ys, zs = flat.reshape(-1, 3).T
    return zs, ys, xs


# ---------------------------------------------------------------------------
# File I/O


def write_json(path, payload) -> None:
    """Write payload as sorted, 2-space-indented JSON plus a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    """Parse a UTF-8 JSON file; content that is not text, not JSON or nested
    too deeply to parse raises ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from e


def _paths(path) -> tuple[Path, Path]:
    p = Path(path)
    name = p.name
    if name.endswith(".vol.json"):
        base = name[: -len(".vol.json")]
    elif name.endswith(".vol.raw"):
        base = name[: -len(".vol.raw")]
    else:
        base = name
    return p.parent / f"{base}.vol.json", p.parent / f"{base}.vol.raw"


def read_volume(path) -> Volume:
    """Read a header/payload volume pair; bit-exact inverse of write_volume."""
    header_path, _ = _paths(path)
    if not header_path.exists():
        raise FileNotFoundError(f"missing volume header {header_path}")
    try:
        header = read_json(header_path)
    except ValueError as e:
        raise VolumeFormatError(str(e)) from e
    try:
        dims = tuple(int(d) for d in header["dims"])
        spacing = tuple(float(s) for s in header["spacing_mm"])
        dtype_name = str(header["dtype"])
        kind = str(header["kind"])
        data_name = str(header["data"])
    except KeyError as e:
        raise VolumeFormatError(f"{header_path}: missing header field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise VolumeFormatError(f"{header_path}: malformed header: {e}") from e
    if len(dims) != 3 or min(dims) < 1:
        raise VolumeFormatError(f"{header_path}: dims must be 3 positive integers, got {dims}")
    if dtype_name not in _DTYPE_FROM_NAME:
        raise VolumeFormatError(f"{header_path}: unknown dtype {dtype_name!r}")
    dtype = _DTYPE_FROM_NAME[dtype_name]
    if kind not in _KINDS:
        raise VolumeFormatError(f"{header_path}: unknown kind {kind!r}")
    if dtype != _DTYPES[kind]:
        raise VolumeFormatError(f"{header_path}: dtype {dtype_name} does not match kind {kind}")
    data_path = header_path.parent / data_name
    if not data_path.exists():
        raise FileNotFoundError(f"missing volume payload {data_path}")
    raw = data_path.read_bytes()
    nx, ny, nz = dims
    expected = nx * ny * nz * dtype.itemsize
    if len(raw) != expected:
        raise VolumeFormatError(
            f"{data_path}: payload has {len(raw)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(nz, ny, nx)
    try:
        return Volume(arr, spacing, kind)
    except ValueError as e:
        raise VolumeFormatError(f"{data_path}: {e}") from e


def write_volume(v: Volume, path) -> None:
    """Write ``<base>.vol.json`` + ``<base>.vol.raw``; round-trips bit-exactly."""
    header_path, data_path = _paths(path)
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing_mm),
        "dtype": _DTYPE_NAMES[v.values.dtype],
        "kind": v.kind,
        "data": data_path.name,
    }
    write_json(header_path, header)
    data_path.write_bytes(np.ascontiguousarray(v.values).tobytes())


# ---------------------------------------------------------------------------
# Resampling and preprocessing


def _axis_coords(n_dst: int, scale: float) -> np.ndarray:
    # Pixel-center aligned source coordinates for each target index:
    # target center (j + 0.5) * dst_spacing maps to source index u.
    j = np.arange(n_dst, dtype=np.float64)
    return (j + 0.5) * scale - 0.5


def bilinear_coeffs(n_src: int, n_dst: int, scale: float):
    """Per target index along one axis: the two source indices and the
    weight of the second, with coordinates clipped to the source extent."""
    u = np.clip(_axis_coords(n_dst, scale), 0.0, n_src - 1.0)
    i0 = np.floor(u).astype(np.intp)
    return i0, np.minimum(i0 + 1, n_src - 1), u - i0


def resize_bilinear(plane: np.ndarray, out_shape, scale) -> np.ndarray:
    """Pixel-center bilinear resample of a (h, w) plane to out_shape; scale
    is the (y, x) target pixel size in source pixels.  Float64 result."""
    (y0, y1, fy), (x0, x1, fx) = (
        bilinear_coeffs(n, o, s) for n, o, s in zip(plane.shape, out_shape, scale)
    )
    p = np.asarray(plane, dtype=np.float64)
    top = p[np.ix_(y0, x0)] * (1 - fx) + p[np.ix_(y0, x1)] * fx
    bot = p[np.ix_(y1, x0)] * (1 - fx) + p[np.ix_(y1, x1)] * fx
    return top * (1 - fy)[:, None] + bot * fy[:, None]


def _resample_plane(plane: np.ndarray, src_sp, dst_sp, out_shape, method: str) -> np.ndarray:
    ny, nx = plane.shape
    oy, ox = out_shape
    sx, sy = dst_sp[0] / src_sp[0], dst_sp[1] / src_sp[1]
    if method == "bilinear":
        return resize_bilinear(plane, out_shape, (sy, sx))
    if method != "nearest":
        raise ValueError(f"unknown resample method {method!r}")
    xi = np.clip(np.rint(_axis_coords(ox, sx)).astype(np.intp), 0, nx - 1)
    yi = np.clip(np.rint(_axis_coords(oy, sy)).astype(np.intp), 0, ny - 1)
    return plane[np.ix_(yi, xi)]


def resample_inplane(v: Volume, target_spacing, method: str | None = None) -> Volume:
    """Resample each axial slice to the target in-plane spacing.

    The z spacing must be unchanged.  Output extent is
    round(n * src / dst) per in-plane axis.  Intensities and probabilities
    resample bilinearly, labels nearest-neighbour, unless overridden.
    """
    tx, ty, tz = (float(s) for s in target_spacing)
    if not all(0.0 < s < float("inf") for s in (tx, ty, tz)):
        raise ValueError(f"target spacing must be positive and finite, got {target_spacing}")
    sx, sy, sz = v.spacing_mm
    if abs(tz - sz) > 1e-9:
        raise ValueError(f"in-plane resampling only: target z spacing {tz} != source {sz}")
    if method is None:
        method = "nearest" if v.kind == KIND_LABEL else "bilinear"
    nx, ny, nz = v.dims
    ox = max(1, int(round(nx * sx / tx)))
    oy = max(1, int(round(ny * sy / ty)))
    out = np.empty((nz, oy, ox), dtype=np.float64)
    for z in range(nz):
        out[z] = _resample_plane(v.values[z], (sx, sy), (tx, ty), (oy, ox), method)
    if v.kind == KIND_LABEL:
        out = out.astype(np.uint8)
    return Volume(out, (tx, ty, sz), v.kind)


def crop_center(v: Volume, crop: tuple[int, int]) -> Volume:
    """Center crop each slice to (w, h) voxels; offset is floor((extent-crop)/2)."""
    w, h = int(crop[0]), int(crop[1])
    nx, ny, nz = v.dims
    if w < 1 or h < 1:
        raise ValueError("crop dims must be positive")
    if w > nx or h > ny:
        raise ValueError(f"crop ({w}, {h}) larger than extent ({nx}, {ny})")
    x0 = (nx - w) // 2
    y0 = (ny - h) // 2
    return Volume(v.values[:, y0 : y0 + h, x0 : x0 + w], v.spacing_mm, v.kind)


def normalize_minmax(v: Volume, per_slice: bool = False) -> Volume:
    """Map intensities linearly to [0, 1]; constant input maps to all zeros."""
    arr = v.values.astype(np.float64)
    if per_slice:
        lo = arr.min(axis=(1, 2), keepdims=True)
        hi = arr.max(axis=(1, 2), keepdims=True)
        span = hi - lo
        out = np.where(span > 0, (arr - lo) / np.where(span > 0, span, 1.0), 0.0)
    else:
        lo, hi = arr.min(), arr.max()
        out = (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)
    return Volume(out, v.spacing_mm, KIND_INTENSITY)


def preprocess(
    v: Volume,
    target_spacing=(1.0, 1.0, 3.0),
    crop: tuple[int, int] = (96, 96),
    per_slice_norm: bool = False,
) -> Volume:
    """Resample in-plane, center-crop, then min-max normalize an intensity volume."""
    if v.kind != KIND_INTENSITY:
        raise ValueError("preprocess expects an intensity volume")
    resampled = resample_inplane(v, target_spacing, method="bilinear")
    cropped = crop_center(resampled, crop)
    return normalize_minmax(cropped, per_slice=per_slice_norm)
