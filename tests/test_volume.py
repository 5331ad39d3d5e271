"""Volume data model, file round-trips, and preprocessing."""

import enum
import hashlib
import io
import json
import os
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lesionkit import volume
from lesionkit.volume import (
    KIND_INTENSITY,
    KIND_LABEL,
    KIND_PROBABILITY,
    ProbStack,
    Volume,
    VolumeFormatError,
    ZoneMask,
    axis_taps,
    crop_center,
    json_chunks,
    normalize_minmax,
    preprocess,
    read_prob_stack,
    read_volume,
    resample_inplane,
    write_json,
    write_volume,
)


def make_intensity(arr, spacing=(1.0, 1.0, 3.0)):
    return Volume(np.asarray(arr, dtype=np.float32), spacing, KIND_INTENSITY)


class TestVolumeModel:
    def test_dims_are_x_fastest(self):
        v = Volume(np.zeros((4, 3, 2), dtype=np.uint8), (1, 1, 3), KIND_LABEL)
        assert v.dims == (2, 3, 4)

    def test_voxel_volume_exact(self):
        v = Volume(np.zeros((1, 1, 1), dtype=np.uint8), (1.0, 1.0, 3.0), KIND_LABEL)
        assert v.voxel_volume_mm3 == 3.0

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Volume(np.full((1, 1, 1), 6, dtype=np.uint8), (1, 1, 1), KIND_LABEL)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            Volume(np.full((1, 1, 1), 1.5, dtype=np.float32), (1, 1, 1), KIND_PROBABILITY)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Volume(np.full((1, 1, 1), np.nan, dtype=np.float32), (1, 1, 1), KIND_INTENSITY)

    def test_values_immutable(self):
        v = make_intensity(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            v.values[0, 0, 0] = 1.0

    def test_values_are_indexed_z_y_x(self):
        v = make_intensity(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        x, y, z = 3, 2, 1
        assert v.dims == (4, 3, 2)
        assert v.values[z, y, x] == x + 4 * (y + 3 * z)  # x fastest, as in the payload


_RANGE_MSG = r"probabilities must be finite and in \[0, 1\]"
_SUM_MSG = "per-voxel channel sums deviate from 1 by more than 1e-5"


def _sum_edge(side):
    """The float32 values x with x + 0.5 just inside and just outside
    1 + side * 1e-5 (side is +1 or -1), as the float64 channel sum sees it."""
    def dev(v):
        return side * (float(v) + 0.5 - 1.0)

    outward = np.float32(side * 2.0)
    x = np.float32(0.5)
    while dev(np.nextafter(x, outward)) <= 1e-5:
        x = np.nextafter(x, outward)
    return x, np.nextafter(x, outward)


class TestProbStack:
    @pytest.mark.parametrize("spacing", [(0, 1, 3), (1, -1, 3), (1, 1, float("nan")), (1, 1)])
    def test_spacing_checked(self, spacing):
        data = np.zeros((6, 1, 1, 1), dtype=np.float32)
        data[1] = 1.0
        with pytest.raises(ValueError, match="spacing"):
            ProbStack(data, spacing)

    def test_channel_sum_checked(self):
        data = np.zeros((6, 1, 2, 2), dtype=np.float32)
        data[0] = 0.5
        with pytest.raises(ValueError):
            ProbStack(data, (1, 1, 3))

    def test_valid_stack(self):
        data = np.zeros((6, 1, 2, 2), dtype=np.float32)
        data[0] = 0.25
        data[2] = 0.75
        s = ProbStack(data, (1, 1, 3))
        assert s.dims == (2, 2, 1)
        assert s.channel(2).kind == KIND_PROBABILITY

    @pytest.mark.parametrize("edits,message", [
        pytest.param(((3, np.nan),), _RANGE_MSG, id="nan"),
        pytest.param(((3, np.inf),), _RANGE_MSG, id="inf"),
        pytest.param(((3, -np.inf),), _RANGE_MSG, id="minus_inf"),
        pytest.param(((5, -0.0),), None, id="minus_zero"),
        pytest.param(((0, 0.0), (2, np.nextafter(np.float32(1), np.float32(2)))),
                     _RANGE_MSG, id="just_above_one"),
        pytest.param(((5, -np.finfo(np.float32).smallest_subnormal),), _RANGE_MSG,
                     id="just_below_zero"),
        *(
            pytest.param(((0, x), (2, 0.5)), message, id=f"sum_{name}")
            for side, tag in ((1, "high"), (-1, "low"))
            for x, name, message in zip(_sum_edge(side), (f"{tag}_in", f"{tag}_out"),
                                        (None, _SUM_MSG))
        ),
    ])
    def test_validation_edges(self, edits, message):
        # one voxel edited in an otherwise valid stack
        data = np.zeros((6, 1, 2, 2), dtype=np.float32)
        data[0] = 0.25
        data[2] = 0.75
        for c, v in edits:
            data[c, 0, 1, 1] = v
        if message is None:
            ProbStack(data, (1, 1, 3))
        else:
            with pytest.raises(ValueError, match=message):
                ProbStack(data, (1, 1, 3))

    @settings(max_examples=300, deadline=None)
    @given(
        side=st.sampled_from([1, -1]),
        edge=st.sampled_from([1e-5, 1e-5 - 1e-6]),
        ulps=st.integers(-6, 6),
        seed=st.integers(0, 2**32 - 1),
        n_voxels=st.integers(1, 4),
    )
    def test_sum_check_equals_float64_check(self, side, edge, ulps, seed, n_voxels):
        # one voxel sums to within a few float32 ulp of 1 +- edge, at both the
        # float32 margin and the 1e-5 limit; the others sum to 1
        rng = np.random.default_rng(seed)
        data = np.empty((6, 1, 1, n_voxels), dtype=np.float32)
        for v, target in enumerate([1.0 + side * edge] + [1.0] * (n_voxels - 1)):
            rest = rng.uniform(0.01, 1.0, size=5)
            data[1:, 0, 0, v] = rest / rest.sum() * rng.uniform(0.05, 0.95) * target
            c0 = np.float32(target - data[1:, 0, 0, v].sum(dtype=np.float64))
            for _ in range(abs(ulps) if v == 0 else 0):
                c0 = np.nextafter(c0, np.float32(np.sign(ulps)))
            data[0, 0, 0, v] = c0
        total = data.sum(axis=0, dtype=np.float64)
        reference_ok = not (total.max() - 1.0 > 1e-5 or 1.0 - total.min() > 1e-5)
        if reference_ok:
            ProbStack(data, (1, 1, 3))
        else:
            with pytest.raises(ValueError, match=_SUM_MSG):
                ProbStack(data, (1, 1, 3))

    @pytest.mark.parametrize("shape", [(6, 0, 2, 2), (6, 2, 0, 2), (6, 2, 2, 0)])
    def test_empty_grid_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}, "):
            ProbStack(np.zeros(shape, dtype=np.float32), (1, 1, 3))

    def test_a_view_is_copied_and_an_owning_array_frozen(self):
        base = np.zeros((2, 6, 1, 1, 2), dtype=np.float32)
        base[:, 1] = 1.0
        stack = ProbStack(base[0], (1, 1, 3))
        assert not np.shares_memory(stack.data, base)
        base[0, 0, 0, 0, 0] = np.nan
        assert np.array_equal(stack.data, base[1])
        assert np.array_equal(stack.labels, [[[1, 1]]])
        owner = base[1].copy()
        stack = ProbStack(owner, (1, 1, 3))
        assert stack.data is owner and not owner.flags.writeable
        assert not stack.labels.flags.writeable

    def test_channel_is_a_read_only_view(self):
        data = np.zeros((6, 2, 3, 4), dtype=np.float32)
        data[1] = 0.25
        data[3] = 0.75
        stack = ProbStack(data, (1, 1, 3))
        for c in range(6):
            ch = stack.channel(c)
            assert ch.kind == KIND_PROBABILITY
            assert ch.spacing_mm == stack.spacing_mm and ch.dims == stack.dims
            assert np.shares_memory(ch.values, stack.data)
            assert not ch.values.flags.writeable
            assert np.array_equal(ch.values, stack.data[c])

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.25])
    def test_public_volume_still_validates(self, value):
        with pytest.raises(ValueError):
            Volume(np.full((1, 2, 2), value, dtype=np.float32), (1, 1, 3), KIND_PROBABILITY)


class TestZoneMask:
    def test_overlap_rejected(self):
        m = Volume(np.ones((1, 2, 2), dtype=np.uint8), (1, 1, 3), KIND_LABEL)
        with pytest.raises(ValueError):
            ZoneMask(pz=m, tz=m)

    def test_masks_must_be_label_volumes(self):
        label = Volume(np.zeros((1, 2, 2), dtype=np.uint8), (1, 1, 3), KIND_LABEL)
        other = Volume(np.zeros((1, 2, 2), dtype=np.float32), (1, 1, 3), KIND_INTENSITY)
        for pz, tz, name in ((other, label, "pz"), (label, other, "tz")):
            with pytest.raises(ValueError, match=f"the {name} zone mask .* got kind 'intensity'"):
                ZoneMask(pz=pz, tz=tz)

    def test_disjoint_ok(self):
        a = np.zeros((1, 2, 2), dtype=np.uint8)
        b = np.zeros((1, 2, 2), dtype=np.uint8)
        a[0, 0, :] = 1
        b[0, 1, :] = 1
        ZoneMask(
            pz=Volume(a, (1, 1, 3), KIND_LABEL),
            tz=Volume(b, (1, 1, 3), KIND_LABEL),
        )


class TestFileIO:
    def test_u8_bytes_map_x_fastest(self, tmp_path):
        # 2x2x1 with payload [0,1,2,3]: x varies fastest
        header = {
            "dims": [2, 2, 1],
            "spacing_mm": [1.0, 1.0, 3.0],
            "dtype": "u8",
            "kind": "label",
            "data": "t.vol.raw",
        }
        (tmp_path / "t.vol.json").write_text(json.dumps(header))
        (tmp_path / "t.vol.raw").write_bytes(bytes([0, 1, 2, 3]))
        v = read_volume(tmp_path / "t.vol.json")
        assert v.values[0, 0, 0] == 0
        assert v.values[0, 0, 1] == 1  # (x, y, z) = (1, 0, 0)
        assert v.values[0, 1, 0] == 2
        assert v.values[0, 1, 1] == 3

    def test_f32_half_is_canonical_le_bytes(self, tmp_path):
        v = Volume(np.full((1, 1, 1), 0.5, dtype=np.float32), (1, 1, 3), KIND_PROBABILITY)
        write_volume(v, tmp_path / "p")
        assert (tmp_path / "p.vol.raw").read_bytes() == bytes([0x00, 0x00, 0x00, 0x3F])

    def test_length_mismatch_rejected(self, tmp_path):
        header = {
            "dims": [2, 2, 2],
            "spacing_mm": [1.0, 1.0, 1.0],
            "dtype": "u8",
            "kind": "label",
            "data": "bad.vol.raw",
        }
        (tmp_path / "bad.vol.json").write_text(json.dumps(header))
        (tmp_path / "bad.vol.raw").write_bytes(bytes(7))
        with pytest.raises(VolumeFormatError):
            read_volume(tmp_path / "bad.vol.json")

    def test_label_out_of_range_rejected(self, tmp_path):
        header = {
            "dims": [1, 1, 1],
            "spacing_mm": [1.0, 1.0, 1.0],
            "dtype": "u8",
            "kind": "label",
            "data": "oor.vol.raw",
        }
        (tmp_path / "oor.vol.json").write_text(json.dumps(header))
        (tmp_path / "oor.vol.raw").write_bytes(bytes([9]))
        with pytest.raises(VolumeFormatError):
            read_volume(tmp_path / "oor.vol.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="^missing volume header .*nope.vol.json$"):
            read_volume(tmp_path / "nope.vol.json")
        write_volume(make_intensity(np.zeros((1, 1, 1))), tmp_path / "v")
        os.remove(tmp_path / "v.vol.raw")
        with pytest.raises(FileNotFoundError, match="^missing volume payload .*v.vol.raw$"):
            read_volume(tmp_path / "v")

    def test_header_that_is_not_utf8_json(self, tmp_path):
        write_volume(make_intensity(np.zeros((1, 1, 1))), tmp_path / "v")
        (tmp_path / "v.vol.json").write_bytes(b'{"dims": "\xff"}')
        with pytest.raises(VolumeFormatError, match="v.vol.json: not valid JSON: 'utf-8' codec"):
            read_volume(tmp_path / "v")

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        nx=st.integers(1, 5),
        ny=st.integers(1, 5),
        nz=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from([KIND_LABEL, KIND_INTENSITY, KIND_PROBABILITY]),
    )
    def test_roundtrip_bit_exact(self, tmp_path, nx, ny, nz, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == KIND_LABEL:
            arr = rng.integers(0, 6, size=(nz, ny, nx), dtype=np.uint8)
        elif kind == KIND_PROBABILITY:
            arr = rng.random((nz, ny, nx), dtype=np.float32)
        else:
            arr = rng.normal(size=(nz, ny, nx)).astype(np.float32)
        v = Volume(arr, (0.5, 0.625, 3.0), kind)
        write_volume(v, tmp_path / f"rt_{seed}")
        back = read_volume(tmp_path / f"rt_{seed}.vol.json")
        assert back.values.tobytes() == v.values.tobytes()
        assert back.dims == v.dims
        assert back.spacing_mm == v.spacing_mm
        assert back.kind == v.kind

    def test_write_creates_missing_nested_directories(self, tmp_path):
        v = Volume(np.arange(6, dtype=np.uint8).reshape(1, 2, 3), (1.0, 1.0, 3.0), KIND_LABEL)
        write_volume(v, tmp_path / "a" / "b" / "c" / "vol")
        back = read_volume(tmp_path / "a" / "b" / "c" / "vol")
        assert back.values.tobytes() == v.values.tobytes()


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
class TestWriteBytes:
    """volume._write_bytes writes through a bare descriptor, which raises no
    ResourceWarning if left open, so these tests count descriptors."""

    def test_success_leaves_no_descriptor_open(self, tmp_path):
        before = open_descriptors()
        volume._write_bytes(tmp_path / "f", b"abc")
        assert open_descriptors() == before
        assert (tmp_path / "f").read_bytes() == b"abc"

    def test_failed_write_closes_the_descriptor(self, tmp_path, monkeypatch):
        def failing_write(fd, data):
            raise OSError(28, "No space left on device")

        before = open_descriptors()
        with monkeypatch.context() as m:
            m.setattr(os, "write", failing_write)
            with pytest.raises(OSError, match="No space"):
                volume._write_bytes(tmp_path / "f", b"abc")
        assert open_descriptors() == before

    def test_create_with_makedirs_leaves_no_descriptor_open(self, tmp_path):
        path = tmp_path / "a" / "b" / "f"
        before = open_descriptors()
        volume._write_bytes(path, b"abc")
        assert open_descriptors() == before
        assert path.read_bytes() == b"abc"

    def test_partial_writes_are_resumed(self, tmp_path, monkeypatch):
        v = Volume(np.random.default_rng(3).random((3, 4, 5), dtype=np.float32),
                   (0.5, 0.625, 3.0), KIND_PROBABILITY)
        write_volume(v, tmp_path / "whole" / "v")
        real_write = os.write
        with monkeypatch.context() as m:
            m.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:1])))
            write_volume(v, tmp_path / "bytewise" / "v")
        for name in ("v.vol.json", "v.vol.raw"):
            whole = (tmp_path / "whole" / name).read_bytes()
            assert (tmp_path / "bytewise" / name).read_bytes() == whole
        text = (tmp_path / "whole" / "v.vol.json").read_text()
        assert text == stdlib_json(json.loads(text)) + "\n"
        assert read_volume(tmp_path / "bytewise" / "v").values.tobytes() == v.values.tobytes()

    def test_truncates_an_existing_file(self, tmp_path):
        (tmp_path / "f").write_bytes(b"a longer old content")
        volume._write_bytes(tmp_path / "f", b"new")
        assert (tmp_path / "f").read_bytes() == b"new"


def stdlib_json(obj) -> str:
    """The oracle: the layout every JSON file and stdout payload must have."""
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(encode, obj):
    """encode(obj), or the type of the TypeError or ValueError it raises."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as e:
        return type(e)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Text(str):
    pass


TRICKY_TEXT = ['', '"', ',', '[', ']', '],[', '[]', '{}', '\\', '\n', '\x00', '\x01', ': ',
               'é', 'Gleason ≥ 8', '漢字', '"a","b"', '[1,2]']
SPECIAL_NUMBERS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 2**70, -2**70,
                   Level.HIGH, np.float64(0.25), np.float64("nan"), True, False, None]
numbers = st.one_of(st.integers(), st.floats(), st.sampled_from(SPECIAL_NUMBERS))
texts = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY_TEXT))
scalars = st.one_of(numbers, texts, texts.map(Text))
number_lists = st.one_of(
    st.lists(numbers, max_size=5),
    st.lists(st.lists(numbers, max_size=4), max_size=4),
    st.lists(st.lists(st.lists(numbers, max_size=3), max_size=3), max_size=3),
    st.lists(st.tuples(numbers, numbers), max_size=3),
)


def dicts(values):
    return st.one_of(
        st.dictionaries(st.one_of(texts, texts.map(Text)), values, max_size=4),
        # ints, floats and bools sort among each other; the keys become text
        # only after sorting, so 10 comes after 9
        st.dictionaries(st.one_of(st.integers(-20, 20), st.floats(), st.booleans()), values,
                        max_size=4),
        st.dictionaries(st.none(), values, max_size=1),
    )


json_values = st.recursive(
    st.one_of(scalars, number_lists),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple), dicts(children)),
    max_leaves=25,
)


class TestJsonEncoder:
    @settings(max_examples=600, deadline=None)
    @given(obj=json_values)
    def test_matches_stdlib_indented_sorted_dumps(self, obj):
        assert outcome(lambda o: "".join(json_chunks(o)), obj) == outcome(stdlib_json, obj)

    @pytest.mark.parametrize("obj", [
        set(), [1, {2}], {"a": [1, {3}]}, {(1,): 2}, {1: 0, "a": 1}, [np.int64(3)],
        {"k": np.array([1.0])},
    ])
    def test_type_error_where_stdlib_raises_it(self, obj):
        with pytest.raises(TypeError):
            stdlib_json(obj)
        with pytest.raises(TypeError):
            "".join(json_chunks(obj))

    def test_container_holding_itself(self):
        loop = [1]
        loop.append([loop])
        with pytest.raises(ValueError, match="Circular"):
            "".join(json_chunks(loop))

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[], [1]], [[], []], {"a": [], "b": {}, "c": [[]]},
        [[1, 2], [], [3]], [[[1, 2], []], [[]]], {10: "x", 9: "y", 2.5: "z"},
        ["a,b", "[c]", 1, [2]], [[1, "x,"], [2]], {"vox": [(1, 2, 3), (4, 5, 6)]},
    ])
    def test_layout_cases(self, obj):
        assert "".join(json_chunks(obj)) == stdlib_json(obj)

    def test_ledger_sized_document_is_streamed(self, monkeypatch):
        from lesionkit import phantom

        cfg = phantom.PhantomConfig(seed=7, n_patients=24, dims=(48, 48, 12),
                                    lesions_per_grade=(2, 2, 2, 2), fp_per_patient=4,
                                    miss_fraction=0.2, lesion_radius_mm=(2.5, 3.0))
        _, ledger = phantom.generate_cohort(cfg)
        payload = phantom.ledger_to_dict(ledger)
        payload["patients"] *= 10  # the 240 patients of a benchmark cohort
        writes = []

        class Recorder(io.BytesIO):
            def write(self, b):
                writes.append(len(b))
                return super().write(b)

            def close(self):
                self.text = self.getvalue().decode()
                super().close()

        recorder = Recorder()
        monkeypatch.setattr(volume, "_create", lambda path: recorder)
        write_json("ledger.json", payload)
        assert recorder.text == stdlib_json(payload) + "\n"
        assert sum(writes) > 5_000_000
        assert max(writes) <= 64 * 1024


def reference_prob_stack(base):
    """The earlier stack reader, kept as a slow reference: each channel read
    and validated as its own Volume, checked against channel 0's grid,
    stacked into a copy and validated again as a ProbStack."""
    channels = [read_volume(f"{base}_c{c}") for c in range(6)]
    for ch in channels[1:]:
        if not ch.same_grid(channels[0]):
            raise ValueError("probability channels must share dims and spacing")
    return ProbStack(np.stack([ch.values for ch in channels]), channels[0].spacing_mm)


def write_channels(base, data, spacing):
    for c in range(6):
        write_volume(Volume(data[c], spacing, KIND_PROBABILITY), f"{base}_c{c}")


def edit_header(path, **fields):
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def valid_stack(shape, rng):
    raw = rng.uniform(0.0, 1.0, size=(6, *shape))
    raw[:, rng.random(shape) < 0.3] = 0.0
    raw[int(rng.integers(6)), np.all(raw == 0, axis=0)] = 1.0  # one-hot where all were zeroed
    return (raw / raw.sum(axis=0)).astype(np.float32)


# faults a stack on disk can carry; each is applied to one channel
STACK_FAULTS = ["none", "nan", "inf", "above_one", "negative", "sum_off", "short", "long",
                "dims", "spacing", "spacing_nan", "dtype", "missing_payload", "every_spacing_zero"]


class TestReadProbStack:
    def test_requires_same_grid(self, tmp_path):
        write_channels(tmp_path / "p", np.full((6, 1, 2, 2), 1 / 6, dtype=np.float32),
                       (1.0, 1.0, 3.0))
        write_volume(Volume(np.full((1, 2, 3), 1 / 6, dtype=np.float32), (1, 1, 3),
                            KIND_PROBABILITY), tmp_path / "p_c3")
        with pytest.raises(VolumeFormatError, match="p_c3.vol.json"):
            read_prob_stack(tmp_path / "p")

    def test_label_channel_rejected(self, tmp_path):
        data = np.zeros((6, 1, 1, 2), dtype=np.float32)
        data[1] = 1.0
        write_channels(tmp_path / "p", data, (1.0, 1.0, 3.0))
        write_volume(Volume(np.ones((1, 1, 2)), (1, 1, 3), KIND_LABEL), tmp_path / "p_c1")
        with pytest.raises(VolumeFormatError, match="p_c1.vol.json: kind 'label'"):
            read_prob_stack(tmp_path / "p")

    @pytest.mark.parametrize("size", [7, 9], ids=["file_longer", "file_shorter"])
    def test_payload_checked_when_read(self, tmp_path, size):
        # the header check stats the payload first; this is the guard for a
        # file that changes size between that check and the read
        (tmp_path / "x.vol.raw").write_bytes(bytes(8))
        with pytest.raises(VolumeFormatError, match="payload has 8 bytes"):
            volume._read_payload(tmp_path / "x.vol.raw", np.empty(size, dtype=np.uint8))

    def test_buffer_reused_only_once_nothing_refers_to_it(self, tmp_path):
        rng = np.random.default_rng(3)
        first, second = valid_stack((2, 3, 4), rng), valid_stack((2, 3, 4), rng)
        write_channels(tmp_path / "a", first, (1.0, 1.0, 3.0))
        write_channels(tmp_path / "b", second, (1.0, 1.0, 3.0))
        stack = read_prob_stack(tmp_path / "a")
        kept = stack.channel(2).values
        del stack
        # a channel view outlives its stack: the next read takes new memory
        other = read_prob_stack(tmp_path / "b")
        assert not np.shares_memory(other.data, kept)
        assert np.array_equal(kept, first[2]) and np.array_equal(other.data, second)
        address = other.data.ctypes.data
        # while a stack lives, its buffer is not reused either
        again = read_prob_stack(tmp_path / "a")
        assert again.data.ctypes.data != address
        del other, again
        last = weakref.ref(read_prob_stack(tmp_path / "b").data)
        stack = read_prob_stack(tmp_path / "a")
        assert stack.data is last()
        assert np.array_equal(stack.data, first) and not stack.data.flags.writeable
        assert np.array_equal(stack.labels, np.argmax(first, axis=0))

    def test_missing_channel(self, tmp_path):
        write_channels(tmp_path / "p", np.full((6, 1, 1, 1), 1 / 6, dtype=np.float32),
                       (1.0, 1.0, 3.0))
        (tmp_path / "p_c5.vol.json").unlink()
        with pytest.raises(FileNotFoundError, match="p_c5"):
            read_prob_stack(tmp_path / "p")

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), fault=st.sampled_from(STACK_FAULTS),
           channel=st.integers(0, 5),
           spacing=st.sampled_from([(1.0, 1.0, 3.0), (0.5, 0.625, 3.0), (2, 2, 1)]))
    def test_equals_per_channel_reader(self, seed, fault, channel, spacing):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, (4, 5, 6), endpoint=True))
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "p"
            write_channels(base, valid_stack(shape, rng), spacing)
            header = Path(f"{base}_c{channel}.vol.json")
            payload = Path(f"{base}_c{channel}.vol.raw")
            values = np.frombuffer(payload.read_bytes(), dtype="<f4").copy()
            at = int(rng.integers(values.size))
            if fault in ("nan", "inf", "above_one", "negative", "sum_off"):
                values[at] = {"nan": np.nan, "inf": np.inf, "above_one": 1.5,
                              "negative": -0.25, "sum_off": values[at] + 1e-3}[fault]
                payload.write_bytes(values.tobytes())
            elif fault in ("short", "long"):
                raw = payload.read_bytes()
                payload.write_bytes(raw[:-1] if fault == "short" else raw + b"\0")
            elif fault == "dims":
                nz, ny, nx = shape
                edit_header(header, dims=[nx * ny, 1, nz] if ny > 1 else [nx, ny, nz + 1])
            elif fault == "spacing":
                edit_header(header, spacing_mm=[spacing[0], spacing[1], 2.5])
            elif fault == "spacing_nan":
                edit_header(header, spacing_mm=[float("nan"), spacing[1], spacing[2]])
            elif fault == "every_spacing_zero":
                for c in range(6):
                    edit_header(Path(f"{base}_c{c}.vol.json"), spacing_mm=[0.0, 1.0, 3.0])
            elif fault == "dtype":
                edit_header(header, dtype="u8")
            elif fault == "missing_payload":
                payload.unlink()
            want = got = None
            try:
                want = reference_prob_stack(base)
            except (OSError, ValueError) as e:
                want = type(e) if isinstance(e, OSError) else ValueError
            try:
                got = read_prob_stack(base)
            except (OSError, ValueError) as e:
                got = type(e) if isinstance(e, OSError) else ValueError
        if isinstance(want, ProbStack):
            assert isinstance(got, ProbStack)
            assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()
            assert got.spacing_mm == want.spacing_mm
            assert not got.data.flags.writeable
        else:
            assert got is want, fault
        assert (fault == "none") == isinstance(got, ProbStack)


class TestResample:
    def test_identity_grid_is_identity(self):
        rng = np.random.default_rng(7)
        v = make_intensity(rng.random((3, 8, 8)))
        out = resample_inplane(v, (1.0, 1.0, 3.0))
        assert out.dims == v.dims
        np.testing.assert_allclose(out.values, v.values, atol=1e-6)

    def test_halving_spacing_doubles_extent(self):
        v = make_intensity(np.zeros((1, 10, 10)))
        out = resample_inplane(v, (0.5, 0.5, 3.0))
        assert out.dims == (20, 20, 1)
        assert out.spacing_mm == (0.5, 0.5, 3.0)

    def test_z_spacing_change_rejected(self):
        v = make_intensity(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            resample_inplane(v, (1.0, 1.0, 1.5))

    def test_bad_target_spacing_names_the_argument(self):
        v = make_intensity(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="^target_spacing must be three positive finite"):
            resample_inplane(v, (0.0, 1.0, 3.0))

    def test_bilinear_midpoint_average(self):
        # Downsampling a 2-pixel axis to 1 pixel lands on the midpoint.
        plane = np.array([[[0.0, 1.0]]], dtype=np.float32)
        v = make_intensity(plane, spacing=(1.0, 1.0, 3.0))
        out = resample_inplane(v, (2.0, 1.0, 3.0))
        assert out.dims == (1, 1, 1)
        np.testing.assert_allclose(out.values[0, 0, 0], 0.5, atol=1e-6)

    def test_labels_resample_nearest(self):
        arr = np.zeros((1, 4, 4), dtype=np.uint8)
        arr[0, :2, :2] = 5
        v = Volume(arr, (1, 1, 3), KIND_LABEL)
        out = resample_inplane(v, (2.0, 2.0, 3.0))
        assert out.values.dtype == np.uint8
        assert set(np.unique(out.values)) <= {0, 5}

    def test_area_is_not_an_inplane_method(self):
        v = make_intensity(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="unknown resample method 'area'"):
            resample_inplane(v, (2.0, 2.0, 3.0), method="area")

    def test_area_taps_cover_whole_blocks(self):
        idx, wts = axis_taps(6, 3, "area", 0)
        assert idx.tolist() == [[0, 1], [2, 3], [4, 5]]
        assert wts.tolist() == [[0.5, 0.5]] * 3
        with pytest.raises(ValueError):  # 3 does not divide 7: no sample is dropped
            axis_taps(7, 3, "area", 0)

    def test_resampled_bytes_are_pinned(self):
        # sha256 over the output bytes of a fixed, seeded set of resamples:
        # bilinear and nearest intensity, labels, and the whole preprocess
        # pipeline.  The cases upsample (target coordinates clipped at both
        # edges), downsample, mix the two, and shrink an axis to the one
        # voxel its extent rounds to.  Blocks of signed zeros put the sign
        # of a zero sum into the digest too.
        rng = np.random.default_rng(20231)
        cases = [
            ((2, 9, 11), (0.7, 0.9), (1.0, 1.0)),
            ((3, 17, 23), (1.3, 1.1), (0.5, 0.8)),
            ((1, 12, 7), (0.78, 2.0), (1.0, 0.6)),
            ((2, 5, 2), (1.0, 1.0), (0.4, 10.0)),
            ((1, 3, 6), (1.0, 1.0), (5.0, 1.0)),
            ((2, 24, 20), (0.6, 0.6), (1.0, 1.0)),
        ]
        digest = hashlib.sha256()
        for k, ((nz, ny, nx), (sx, sy), (tx, ty)) in enumerate(cases):
            arr = (rng.normal(size=(nz, ny, nx)) * 100).astype(np.float32)
            arr[:, :3, :3] = -0.0
            arr[:, 1::4, ::3] = 0.0
            v = make_intensity(arr, spacing=(sx, sy, 3.0))
            lab = Volume(rng.integers(0, 6, size=(nz, ny, nx)), (sx, sy, 3.0), KIND_LABEL)
            target = (tx, ty, 3.0)
            bilinear = resample_inplane(v, target)
            ox, oy, _ = bilinear.dims
            crop = ((ox + 1) // 2, (oy + 1) // 2)
            for out in (
                bilinear,
                resample_inplane(v, target, method="nearest"),
                resample_inplane(lab, target),
                preprocess(v, target, crop=crop, per_slice_norm=k % 2 == 1),
            ):
                digest.update(repr(out.values.shape).encode())
                digest.update(out.values.tobytes())
        assert digest.hexdigest() == (
            "01d272799259b44681e67621662d845a79b4035bd9caf40eedc8da5d050319b9"
        )


class TestCropNormalize:
    def test_center_crop_offsets_floor(self):
        arr = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        v = make_intensity(arr)
        out = crop_center(v, (2, 2))
        # offset floor((5-2)/2) = 1 in both axes
        np.testing.assert_array_equal(out.values[0], arr[0, 1:3, 1:3])

    def test_crop_too_large(self):
        v = make_intensity(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            crop_center(v, (8, 8))

    def test_ramp_normalization_matches_direct_formula(self):
        # Oracle: x -> (x - min)/(max - min) applied pointwise.
        ramp = np.linspace(10.0, 20.0, 11, dtype=np.float32).reshape(1, 1, 11)
        v = make_intensity(ramp)
        out = normalize_minmax(v)
        expect = (ramp.astype(np.float64) - 10.0) / 10.0
        np.testing.assert_allclose(out.values, expect, atol=1e-7)
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0
        assert abs(out.values[0, 0, 5] - 0.5) < 1e-7

    def test_constant_maps_to_zero(self):
        v = make_intensity(np.full((2, 3, 3), 4.2))
        out = normalize_minmax(v)
        assert not out.values.any()

    def test_per_slice_mode(self):
        arr = np.stack([np.full((2, 2), 1.0), np.array([[0.0, 2.0], [4.0, 6.0]])])
        v = make_intensity(arr)
        out = normalize_minmax(v, per_slice=True)
        assert not out.values[0].any()
        np.testing.assert_allclose(out.values[1], [[0.0, 1 / 3], [2 / 3, 1.0]])


class TestPreprocess:
    def test_standard_pipeline_dims_and_range(self):
        rng = np.random.default_rng(11)
        # 256x256 @ 0.78 mm in-plane: resampled extent round(256*0.78) = 200
        v = make_intensity(rng.random((3, 256, 256)) * 800, spacing=(0.78, 0.78, 3.0))
        out = preprocess(v, target_spacing=(1.0, 1.0, 3.0), crop=(96, 96))
        assert out.dims == (96, 96, 3)
        assert out.spacing_mm == (1.0, 1.0, 3.0)
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0

    def test_already_standard_grid_unchanged_up_to_normalization(self):
        rng = np.random.default_rng(3)
        arr = rng.random((2, 96, 96))
        arr.flat[0] = 0.0
        arr.flat[1] = 1.0
        v = make_intensity(arr)
        out = preprocess(v)
        np.testing.assert_allclose(out.values, arr, atol=1e-6)

    def test_rejects_label_volume(self):
        v = Volume(np.zeros((1, 4, 4), dtype=np.uint8), (1, 1, 3), KIND_LABEL)
        with pytest.raises(ValueError):
            preprocess(v)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_output_extremes_property(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(2, 40, 40)) * rng.uniform(0.1, 100)
        v = make_intensity(arr, spacing=(0.6, 0.6, 3.0))
        out = preprocess(v, crop=(16, 16))
        if out.values.max() > out.values.min():
            assert out.values.min() == 0.0
            assert out.values.max() == 1.0
