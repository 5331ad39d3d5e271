"""Dense 3D scalar grids with physical voxel spacing, bit-exact file I/O,
and in-plane resample/crop/normalize preprocessing.

Storage convention: arrays are indexed ``values[z, y, x]`` (C order), so the
raw memory layout is x-fastest / z-slowest.  ``dims`` is reported as
``(nx, ny, nz)``, and single voxels as ``(x, y, z)`` tuples; ``mask_voxels``
lists those of a mask cut from a box.  Files come
in pairs: a ``<name>.vol.json`` header and a ``<name>.vol.raw`` little-endian
payload in the same x-fastest order.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields
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


def is_real(value) -> bool:
    """An int, float or numpy float; a bool is not a real number here."""
    return isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)


_VALUE_KINDS = {  # Spec kind: (the test of one value, its noun, the plural)
    "int": (lambda v: type(v) is int, "an integer", "integers"),
    "real": (is_real, "a real number", "real numbers"),
    "bool": (lambda v: type(v) is bool, "true or false", ""),
    "path": (lambda v: v is None or isinstance(v, (str, os.PathLike)), "a path", ""),
    None: (lambda v: True, "", ""),
}


@dataclass(frozen=True)
class Spec:
    """The values one config field takes."""

    kind: str | None  # a key of _VALUE_KINDS; None leaves it to the choices
    interval: str = ""  # such as "(0, 1]"; NaN fails any interval, inf any open inf end
    shape: tuple = ()  # per list level: a length, a tuple of lengths, or None for one or more
    unit: str = ""
    choices: tuple = ()

    def __str__(self):
        if self.interval == "(-inf, inf)":
            return "finite"
        _, text, plural = _VALUE_KINDS[self.kind]
        for n in reversed(self.shape):
            n = ("one or more" if n is None else n if isinstance(n, int)
                 else " or ".join(map(str, n)))
            text, plural = f"a list of {n} {plural}", f"lists of {n} {plural}"
        text = f"one of {self.choices}" if self.choices else text
        text += f"{', each' if self.shape else ''} in {self.interval}" if self.interval else ""
        return text + (f" ({self.unit})" if self.unit else "")

    def conform(self, name: str, value):
        """value with its lists as tuples and numpy floats as Python floats;
        ValueError, naming the field, unless the spec holds it."""
        try:
            return self._conform(value, self.shape)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be {self}, got {value!r}") from None

    def _conform(self, value, shape):
        if shape:
            if not isinstance(value, (tuple, list, np.ndarray)):
                raise TypeError(value)
            items, n = tuple(self._conform(v, shape[1:]) for v in value), shape[0]
            if not (len(items) == n if isinstance(n, int) else len(items) in n if n else items):
                raise TypeError(value)
            return items
        # a set of choices: an array, being unhashable, is none of them
        if not _VALUE_KINDS[self.kind][0](value) or self.choices and value not in set(self.choices):
            raise TypeError(value)
        if self.interval:
            lo, hi = (float(end) for end in self.interval[1:-1].split(","))
            if not ((lo < value if self.interval[0] == "(" else lo <= value)
                    and (value < hi if self.interval[-1] == ")" else value <= hi)):
                raise ValueError(value)
        return float(value) if isinstance(value, np.floating) else value


def setting(default, *spec, **kw):
    """A config dataclass field with this default and Spec(*spec, **kw)."""
    return field(default=default, metadata={"spec": Spec(*spec, **kw)})


def validate(cfg) -> None:
    """Check each field of a frozen config that has a Spec, and store it as
    Spec.conform returns it; a config's rules between fields come after."""
    for f in fields(cfg):
        if "spec" in f.metadata:
            value = f.metadata["spec"].conform(f.name, getattr(cfg, f.name))
            object.__setattr__(cfg, f.name, value)


def _check_spacing(spacing, name: str = "spacing_mm") -> tuple[float, float, float]:
    """spacing as three floats; ValueError, naming the field, unless it holds
    three positive finite numbers."""
    sp = tuple(float(s) for s in spacing)
    if len(sp) != 3 or not all(0.0 < s < float("inf") for s in sp):
        raise ValueError(f"{name} must be three positive finite numbers, got {spacing}")
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

    def same_grid(self, other: "Volume") -> bool:
        return self.dims == other.dims and self.spacing_mm == other.spacing_mm


def _sums_near_one(lo, hi, tol: float) -> bool:
    """Every channel total, lo the least and hi the greatest, lies within
    tol of 1."""
    return float(hi) - 1.0 <= tol and 1.0 - float(lo) <= tol


#: bytes of one slab of ProbStack's validation scan: all channels of as many
#: z-slices as fit, and at least one, so each slab's passes run in cache
_SLAB_BYTES = 1 << 20


def _scan(arr: np.ndarray):
    """One pass over the z-slabs of a (6, nz, ny, nx) stack: the per-voxel
    argmax as uint8 codes, the least and the greatest value, and the least
    and the greatest float32 channel total.  A NaN anywhere makes both value
    extremes NaN.

    A channel wins a voxel when it is strictly above the best of the
    channels before it, so ties go to the lowest channel.  Channels are
    compared in increasing order, so the last channel to win a voxel is the
    largest that wins it: each slab's codes are the running maximum of
    c * wins, which needs no masked store."""
    _, nz, ny, nx = arr.shape
    step = max(1, _SLAB_BYTES // arr[:, 0].nbytes)
    labels = np.zeros(arr.shape[1:], dtype=np.uint8)
    shape = (min(step, nz), ny, nx)
    best, total = np.empty((2,) + shape, dtype=np.float32)
    wins, codes = np.empty((2,) + shape, dtype=np.uint8)
    extremes = []
    for z0 in range(0, nz, step):
        s = arr[:, z0 : z0 + step]
        n = s.shape[1]
        b, t, w, k, lab = best[:n], total[:n], wins[:n], codes[:n], labels[z0 : z0 + n]
        np.copyto(b, s[0])
        for c in range(1, N_LABELS):
            np.greater(s[c], b, out=w)
            np.multiply(w, c, out=k)
            np.maximum(lab, k, out=lab)
            np.maximum(b, s[c], out=b)
        np.sum(s, axis=0, dtype=np.float32, out=t)
        extremes.append((s.min(), b.max(), t.min(), t.max()))
    # array reductions propagate NaN, where Python's min and max would not
    lo, hi, t_lo, t_hi = np.array(extremes, dtype=np.float32).T
    return labels, lo.min(), hi.max(), t_lo.min(), t_hi.max()


@dataclass(frozen=True)
class ProbStack:
    """Six per-class probability channels on one grid.

    Channel order matches the label codes: (background, prostate, GS6,
    GS3+4, GS4+3, GS>=8).  Per voxel the channels must sum to 1 within 1e-5.
    labels is the per-voxel argmax, ties to the lowest channel, found by
    the same scan that validates the stack.  A stack owns its memory: an
    array that owns its own is frozen and kept, any other input is copied.
    Freezing does not reach a view of that array taken before the stack was
    built: the view stays writable, and a write through it changes data
    after validation while labels keeps the old argmax.  Do not keep such a
    view, or pass a copy.
    """

    data: np.ndarray  # (6, nz, ny, nx) float32
    spacing_mm: tuple[float, float, float]
    labels: np.ndarray = field(init=False, compare=False)  # (nz, ny, nx) uint8

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[0] != N_LABELS or min(arr.shape) < 1:
            raise ValueError(
                f"expected non-empty ({N_LABELS}, nz, ny, nx) data, got shape {arr.shape}"
            )
        if not arr.flags.owndata:
            # a view: its base could still be written after the validation
            arr = arr.copy()
        labels, lo, hi, t_lo, t_hi = _scan(arr)
        # NaN propagates through the extremes, so this also rejects NaN and inf
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError("probabilities must be finite and in [0, 1]")
        # A float32 sum of six nonnegative terms is off by at most
        # 5 * 2**-24 * sum, about 3e-7 near 1, in any summation order, so
        # float32 totals within 1e-5 - 1e-6 of 1 pass the float64 check too;
        # only a stack outside that margin pays for the float64 sum, which
        # decides.  t - 1 and 1 - t round monotonically in t, so the extreme
        # totals give the largest deviation exactly.
        if not _sums_near_one(t_lo, t_hi, 1e-5 - 1e-6):
            total = arr.sum(axis=0, dtype=np.float64)
            if not _sums_near_one(total.min(), total.max(), 1e-5):
                raise ValueError("per-voxel channel sums deviate from 1 by more than 1e-5")
        sp = _check_spacing(self.spacing_mm)
        arr.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing_mm", sp)
        object.__setattr__(self, "labels", labels)

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
        for name, mask in (("pz", self.pz), ("tz", self.tz)):
            if mask.kind != KIND_LABEL:
                raise ValueError(f"the {name} zone mask must be a {KIND_LABEL!r} volume, "
                                 f"got kind {mask.kind!r}")
        if not self.pz.same_grid(self.tz):
            raise ValueError("pz and tz masks must share dims and spacing")
        if np.any((self.pz.values > 0) & (self.tz.values > 0)):
            raise ValueError("pz and tz masks overlap")


def mask_voxels(mask: np.ndarray, box) -> tuple:
    """(x, y, z) tuples of the nonzero voxels of a [z, y, x] mask, in scan
    order (z slowest, x fastest).  box is the (z, y, x) slice tuple the mask
    was cut from, such as a cluster's tight box."""
    zs, ys, xs = np.nonzero(mask)
    z0, y0, x0 = (s.start for s in box)
    return tuple(zip((xs + x0).tolist(), (ys + y0).tolist(), (zs + z0).tolist()))


def frozen_mask(mask, box) -> np.ndarray:
    """A read-only bool copy of a mask cut from the (z, y, x) slice box, so
    the caller's array may change; ValueError unless it fills the box."""
    mask = np.array(mask, dtype=bool)
    if len(box) != 3 or mask.shape != tuple(s.stop - s.start for s in box):
        raise ValueError(f"mask of shape {mask.shape} does not fill the box {box}")
    mask.flags.writeable = False
    return mask


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


def _write_bytes(path, data) -> None:
    """Write data (bytes or a C-contiguous buffer) to path through a bare
    descriptor: open, write until every byte is taken, close.  The parent
    directories are made only when the open finds them missing."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


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
    spacing_mm a list of three numbers.  The payload, which data names,
    must lie beside the header, exist and have the length the header
    implies, which is checked before any buffer is allocated for it."""
    header_path, _ = _paths(path)
    try:
        with open(header_path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"missing volume header {header_path}") from None
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise VolumeFormatError(f"{header_path}: not valid JSON: {e}") from e
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
    if not (isinstance(spacing, list) and len(spacing) == 3 and all(map(is_real, spacing))):
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
    # the payload lies beside its header: a path could read a file from anywhere
    if data_name in ("", ".", "..") or os.path.basename(data_name) != data_name:
        raise VolumeFormatError(f"{header_path}: data must be a bare file name, got {data_name!r}")
    data_path = os.path.join(os.path.dirname(header_path), data_name)
    try:
        size = os.stat(data_path).st_size
    except FileNotFoundError:
        raise FileNotFoundError(f"missing volume payload {data_path}") from None
    expected = dims[0] * dims[1] * dims[2] * _DTYPES[kind].itemsize
    if size != expected:
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


#: the buffer read_prob_stack read into last; see _stack_buffer
_last_stack_buffer = []


def _stack_buffer(shape) -> np.ndarray:
    """The last stack buffer, writable again, when its shape matches and
    nothing refers to it any more (numpy's own test before a resize), else
    a new one.  A new 5 MB buffer per patient lands wherever the heap has
    room; once small allocations split the gap the last one left, it takes
    new memory and the peak RSS grows by a whole buffer."""
    data = _last_stack_buffer.pop() if _last_stack_buffer else None
    # 2 references: `data` and getrefcount's argument
    if data is None or data.shape != shape or sys.getrefcount(data) > 2:
        data = np.empty(shape, dtype=_DTYPES[KIND_PROBABILITY])
    data.flags.writeable = True
    _last_stack_buffer.append(data)
    return data


def read_prob_stack(base) -> ProbStack:
    """The channel volumes <base>_c0 .. <base>_c5 as one probability stack.

    Each header is checked as read_volume checks it, must be of kind
    probability and must match channel 0's dims and spacing.  The payloads
    are read straight into one (6, nz, ny, nx) buffer, which ProbStack then
    validates once; the buffer is reused as _stack_buffer says."""
    data = None
    for c in range(N_LABELS):
        header_path, data_path, dims, spacing, kind = _read_header(f"{base}_c{c}")
        if kind != KIND_PROBABILITY:
            raise VolumeFormatError(f"{header_path}: kind {kind!r}, expected {KIND_PROBABILITY!r}")
        if data is None:
            grid = (dims, spacing)
            nx, ny, nz = dims
            data = _stack_buffer((N_LABELS, nz, ny, nx))
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
    _write_bytes(header_path, ("".join(json_chunks(header)) + "\n").encode())
    _write_bytes(data_path, v.values)


# ---------------------------------------------------------------------------
# Resampling and preprocessing


def axis_taps(n_src: int, n_dst: int, method: str, scale: float):
    """Source indices and weights, each of shape (n_dst, k), that resample
    one axis of n_src samples to n_dst.  Target centre j + 0.5 lies at source
    coordinate (j + 0.5) * scale - 0.5, scale being the target spacing in
    source samples.  nearest: 1 tap at the rounded coordinate; bilinear: 2
    taps at the coordinate clipped to the source extent; area: the
    r = n_src / n_dst samples of each block, weighted 1/r (n_dst must divide
    n_src; scale unused)."""
    if method == "area":  # reshape raises unless n_dst divides n_src
        idx = np.arange(n_src).reshape(n_dst, -1)
        return idx, np.full(idx.shape, 1.0 / idx.shape[1])
    u = (np.arange(n_dst, dtype=np.float64) + 0.5) * scale - 0.5
    if method == "nearest":
        return np.clip(np.rint(u).astype(np.intp), 0, n_src - 1)[:, None], np.ones((n_dst, 1))
    if method != "bilinear":
        raise ValueError(f"unknown resample method {method!r}")
    u = np.clip(u, 0.0, n_src - 1.0)
    i0 = np.floor(u).astype(np.intp)
    f = u - i0
    return np.stack([i0, np.minimum(i0 + 1, n_src - 1)], axis=1), np.stack([1 - f, f], axis=1)


def resample_axis(x: np.ndarray, axis: int, taps) -> np.ndarray:
    """x resampled along one (nonnegative) axis by taps from axis_taps: a
    gather per tap, weighted in float64 and summed in tap order, so two
    bilinear taps give exactly a * (1 - f) + b * f."""
    idx, wts = taps
    shape = (-1,) + (1,) * (np.ndim(x) - axis - 1)
    out = np.take(x, idx[:, 0], axis) * wts[:, 0].reshape(shape)
    for k in range(1, idx.shape[1]):
        out += np.take(x, idx[:, k], axis) * wts[:, k].reshape(shape)
    return out


def resample_axis_adjoint(g: np.ndarray, axis: int, taps, n_src: int) -> np.ndarray:
    """The transpose of resample_axis: each value of g scattered back, by
    the same weights, onto the n_src source samples it was gathered from."""
    idx, wts = taps
    g = np.asarray(g, dtype=np.float64)
    out = np.zeros(g.shape[:axis] + (n_src,) + g.shape[axis + 1 :])
    shape = (-1,) + (1,) * (g.ndim - axis - 1)
    for k in range(idx.shape[1]):
        np.add.at(out, (slice(None),) * axis + (idx[:, k],), g * wts[:, k].reshape(shape))
    return out


def resample_inplane(v: Volume, target_spacing, method: str | None = None) -> Volume:
    """Resample each axial slice to the target in-plane spacing: x, then y.

    The z spacing must be unchanged.  Output extent is
    round(n * src / dst) per in-plane axis.  Intensities and probabilities
    resample bilinearly, labels nearest-neighbour, unless overridden.
    """
    tx, ty, tz = _check_spacing(target_spacing, "target_spacing")
    sx, sy, sz = v.spacing_mm
    if abs(tz - sz) > 1e-9:
        raise ValueError(f"in-plane resampling only: target z spacing {tz} != source {sz}")
    if method is None:
        method = "nearest" if v.kind == KIND_LABEL else "bilinear"
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resample method {method!r}")
    nx, ny, nz = v.dims
    ox = max(1, int(round(nx * sx / tx)))
    oy = max(1, int(round(ny * sy / ty)))
    xt = axis_taps(nx, ox, method, tx / sx)
    yt = axis_taps(ny, oy, method, ty / sy)
    out = np.empty((nz, oy, ox))
    for z in range(nz):  # slice by slice: scratch stays one plane, not the volume
        out[z] = resample_axis(resample_axis(v.values[z], 1, xt), 0, yt)
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
