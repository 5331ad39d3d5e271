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

import csv
import json
import os
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import INFINITY, c_make_encoder, encode_basestring_ascii

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


def require_ints(cfg, *names, sequences=()) -> None:
    """Raise ValueError unless each named field of a config holds one int
    and each field named in sequences a tuple or list of ints; bools and
    floats are rejected."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in sequences:
        value = getattr(cfg, name)
        if not (isinstance(value, (tuple, list)) and all(type(v) is int for v in value)):
            raise ValueError(f"{name} must be a list of integers, got {value!r}")


def _check_spacing(spacing) -> tuple[float, float, float]:
    """spacing as three floats; ValueError unless it holds three positive
    finite numbers."""
    sp = tuple(float(s) for s in spacing)
    if len(sp) != 3 or not all(0.0 < s < float("inf") for s in sp):
        raise ValueError(f"spacing must be three positive finite floats, got {spacing}")
    return sp


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
        sp = _check_spacing(self.spacing_mm)
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

    @classmethod
    def _validated(cls, values: np.ndarray, spacing_mm, kind: str) -> "Volume":
        """A Volume of values already checked as __post_init__ checks them
        (contiguous, read-only, of kind's dtype and range) and a spacing
        already checked, built without scanning the values again."""
        v = object.__new__(cls)
        object.__setattr__(v, "values", values)
        object.__setattr__(v, "spacing_mm", spacing_mm)
        object.__setattr__(v, "kind", kind)
        return v

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


def _sums_near_one(total: np.ndarray, tol: float) -> bool:
    """Every channel total lies within tol of 1."""
    return float(total.max()) - 1.0 <= tol and 1.0 - float(total.min()) <= tol


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
        # A float32 sum of six nonnegative terms is off by at most
        # 5 * 2**-24 * sum, about 3e-7 near 1, in any summation order, so
        # float32 totals within 1e-5 - 1e-6 of 1 pass the float64 check too;
        # only a stack outside that margin pays for the float64 sum, which
        # decides.  t - 1 and 1 - t round monotonically in t, so the extreme
        # totals give the largest deviation exactly.
        if not (_sums_near_one(arr.sum(axis=0, dtype=np.float32), 1e-5 - 1e-6)
                or _sums_near_one(arr.sum(axis=0, dtype=np.float64), 1e-5)):
            raise ValueError("per-voxel channel sums deviate from 1 by more than 1e-5")
        sp = _check_spacing(self.spacing_mm)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing_mm", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        _, nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def channel(self, c: int) -> Volume:
        """Channel c as a read-only probability Volume sharing the stack's
        memory; the stack was validated once, so the channel is not."""
        return Volume._validated(self.data[c], self.spacing_mm, KIND_PROBABILITY)


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


def _not_serializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


#: json's C encoder with compact separators, built once; it is handed only
#: lists whose items are plain scalars or lists of plain scalars
_encode_compact = c_make_encoder(
    None, _not_serializable, encode_basestring_ascii, None, ":", ",", True, False, True
)
_PLAIN_SCALARS = frozenset((int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))


def _scalar_text(o):
    """JSON text of a str, None, bool, int or float (subclasses included, as
    json reads them); None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == INFINITY:
            return "Infinity"
        if o == -INFINITY:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _leaf_list_text(lst, level: int):
    """lst laid out as json.dumps with a two-space indent lays it out at
    nesting level, when it holds only plain scalars or only lists of plain
    scalars; None otherwise.  json's C encoder writes it compactly in one
    call, and str.replace adds the line breaks: scalar texts hold no
    bracket, comma or control character, so every one of those is
    structure."""
    if not lst:
        return "[]"
    types = set(map(type, lst))
    if types <= _PLAIN_SCALARS:
        nested = False
    elif types <= _LISTS and set(map(type, chain.from_iterable(lst))) <= _PLAIN_SCALARS:
        nested = True
    else:
        return None
    body = "".join(_encode_compact(lst, 0))[1:-1]
    nl0 = "\n" + "  " * level
    nl1 = nl0 + "  "
    if nested:
        nl2 = nl1 + "  "
        # \0 marks a comma between rows and \1 an empty row, so that the
        # replaces that follow see only the brackets and commas of the rows
        body = (body.replace("],[", "]\0[").replace(",", "," + nl2).replace("[]", "\1")
                .replace("[", "[" + nl2).replace("]", nl1 + "]")
                .replace("\0", "," + nl1).replace("\1", "[]"))
    else:
        body = body.replace(",", "," + nl1)
    return "[" + nl1 + body + nl0 + "]"


def _dict_key(key) -> str:
    """A dict key as json turns it into a str: a number, bool or None
    becomes its JSON text."""
    if isinstance(key, str):
        return key
    text = _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return text


def _inline_text(o, level: int):
    """The JSON text of o at nesting level when it is a scalar, an empty
    dict or a list _leaf_list_text lays out; None for a container to walk."""
    text = _scalar_text(o)
    if text is None:
        if isinstance(o, (list, tuple)):
            return _leaf_list_text(o, level)
        if isinstance(o, dict) and not o:
            return "{}"
    return text


def _container_chunks(o, level: int, markers: dict):
    """Chunks of a list, tuple or dict at nesting level, one per container
    walked; TypeError for any other value and ValueError for a container
    that holds itself."""
    if isinstance(o, (list, tuple)):
        items = zip(repeat(""), o)
        opening, closing = "[", "]"
    elif isinstance(o, dict):
        # sorted before the keys become text, as json sorts them
        items = [(encode_basestring_ascii(_dict_key(k)) + ": ", v) for k, v in sorted(o.items())]
        opening, closing = "{", "}"
    else:
        _not_serializable(o)
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers[id(o)] = o
    nl = "\n" + "  " * (level + 1)
    parts = [opening]
    for head, value in items:
        parts += (nl, head)
        text = _inline_text(value, level + 1)
        if text is None:
            yield "".join(parts)
            yield from _container_chunks(value, level + 1, markers)
            parts = [","]
        else:
            parts += (text, ",")
    del markers[id(o)]
    parts[-1] = "\n" + "  " * level + closing
    yield "".join(parts)


def json_chunks(obj):
    """The text of json.dumps(obj) with a two-space indent and sorted keys,
    in chunks: one for each list or dict that holds more than scalars and
    lists of them, so a document is written while it is encoded."""
    text = _inline_text(obj, 0)
    if text is None:
        yield from _container_chunks(obj, 0, {})
    else:
        yield text


def _create(path, mode="wb", **kwargs):
    """open(path, mode, **kwargs) for writing; the parent directories are
    made only when the open finds them missing."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, mode, **kwargs)


def write_json(path, payload) -> None:
    """Write payload as sorted, 2-space-indented JSON plus a trailing
    newline, one chunk at a time."""
    with _create(path) as f:
        for chunk in json_chunks(payload):
            f.write(chunk.encode())
        f.write(b"\n")


def write_csv(path, header, rows) -> None:
    """Write the header and then each row as comma-separated UTF-8 lines
    ending in a bare newline."""
    with _create(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_json(path):
    """Parse a UTF-8 JSON file; content that is not text, not JSON or nested
    too deeply to parse raises ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from e


def _paths(path) -> tuple[str, str]:
    """(header path, payload path) of the volume a base name or either of
    its two file names gives."""
    base = os.fspath(path)
    for suffix in (".vol.json", ".vol.raw"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    return base + ".vol.json", base + ".vol.raw"


def _payload_error(data_path, expected: int) -> VolumeFormatError:
    return VolumeFormatError(
        f"{data_path}: payload has {os.stat(data_path).st_size} bytes, header implies {expected}"
    )


def _read_header(path):
    """Parse and check a volume header: (header path, payload path, dims,
    spacing, kind).  dims must be a list of three positive ints and
    spacing_mm a list of three numbers.  The payload must exist and have
    the length the header implies, which is checked before any buffer is
    allocated for it."""
    header_path, _ = _paths(path)
    if not os.path.exists(header_path):
        raise FileNotFoundError(f"missing volume header {header_path}")
    try:
        header = read_json(header_path)
    except ValueError as e:
        raise VolumeFormatError(str(e)) from e
    try:
        dims, spacing = header["dims"], header["spacing_mm"]
        dtype_name = str(header["dtype"])
        kind = str(header["kind"])
        data_name = str(header["data"])
    except KeyError as e:
        raise VolumeFormatError(f"{header_path}: missing header field {e}") from e
    except TypeError as e:
        raise VolumeFormatError(f"{header_path}: malformed header: {e}") from e
    # bools and floats are not ints, and text is not a list
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int for d in dims)
            and min(dims) >= 1):
        raise VolumeFormatError(f"{header_path}: dims must be 3 positive integers, got {dims!r}")
    if not (isinstance(spacing, list) and len(spacing) == 3
            and all(type(s) in (int, float) for s in spacing)):
        raise VolumeFormatError(f"{header_path}: spacing_mm must be 3 numbers, got {spacing!r}")
    try:
        spacing = tuple(float(s) for s in spacing)
    except OverflowError as e:
        raise VolumeFormatError(f"{header_path}: malformed header: {e}") from e
    dims = tuple(dims)
    if dtype_name not in _DTYPE_FROM_NAME:
        raise VolumeFormatError(f"{header_path}: unknown dtype {dtype_name!r}")
    if kind not in _KINDS:
        raise VolumeFormatError(f"{header_path}: unknown kind {kind!r}")
    if _DTYPE_FROM_NAME[dtype_name] != _DTYPES[kind]:
        raise VolumeFormatError(f"{header_path}: dtype {dtype_name} does not match kind {kind}")
    data_path = os.path.join(os.path.dirname(header_path), data_name)
    if not os.path.exists(data_path):
        raise FileNotFoundError(f"missing volume payload {data_path}")
    expected = dims[0] * dims[1] * dims[2] * _DTYPES[kind].itemsize
    if os.stat(data_path).st_size != expected:
        raise _payload_error(data_path, expected)
    return header_path, data_path, dims, spacing, kind


def _read_payload(data_path, out: np.ndarray) -> None:
    """Fill the contiguous array out with the payload's bytes; a payload
    that is no longer exactly out's size when read raises VolumeFormatError."""
    with open(data_path, "rb") as f:
        n = f.readinto(memoryview(out).cast("B"))
        longer = f.read(1)
    if n != out.nbytes or longer:
        raise _payload_error(data_path, out.nbytes)


def read_volume(path) -> Volume:
    """Read a header/payload volume pair; bit-exact inverse of write_volume."""
    _, data_path, (nx, ny, nz), spacing, kind = _read_header(path)
    arr = np.empty((nz, ny, nx), dtype=_DTYPES[kind])
    _read_payload(data_path, arr)
    try:
        return Volume(arr, spacing, kind)
    except ValueError as e:
        raise VolumeFormatError(f"{data_path}: {e}") from e


def read_prob_stack(base) -> ProbStack:
    """The channel volumes <base>_c0 .. <base>_c5 as one probability stack.

    Each header is checked as read_volume checks it, must be of kind
    probability and must match channel 0's dims and spacing.  The payloads
    are read straight into one (6, nz, ny, nx) buffer, which ProbStack then
    validates once."""
    data = None
    for c in range(N_LABELS):
        header_path, data_path, dims, spacing, kind = _read_header(f"{base}_c{c}")
        if kind != KIND_PROBABILITY:
            raise VolumeFormatError(f"{header_path}: kind {kind!r}, expected {KIND_PROBABILITY!r}")
        if data is None:
            grid = (dims, spacing)
            nx, ny, nz = dims
            data = np.empty((N_LABELS, nz, ny, nx), dtype=_DTYPES[KIND_PROBABILITY])
        elif (dims, spacing) != grid:
            raise VolumeFormatError(
                f"{header_path}: grid {dims} at {spacing} mm differs from channel 0's "
                f"{grid[0]} at {grid[1]} mm"
            )
        _read_payload(data_path, data[c])
    try:
        return ProbStack(data, spacing)
    except ValueError as e:
        raise VolumeFormatError(f"{base}_c0..c{N_LABELS - 1}: {e}") from e


def write_volume(v: Volume, path) -> None:
    """Write ``<base>.vol.json`` + ``<base>.vol.raw``; round-trips bit-exactly.
    The payload is written from the array's own memory, which Volume keeps
    C-contiguous and little-endian."""
    header_path, data_path = _paths(path)
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing_mm),
        "dtype": _DTYPE_NAMES[v.values.dtype],
        "kind": v.kind,
        "data": os.path.basename(data_path),
    }
    write_json(header_path, header)
    with open(data_path, "wb") as f:
        f.write(memoryview(v.values))


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
