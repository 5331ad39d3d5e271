"""ProbStack's validation against a reference: the whole-stack checks and
the running-compare argmax that ProbStack and label_from_probs made before
the stack was validated and labelled in one scan over z-slabs.

The reference takes the minimum and the maximum of the whole stack, then
checks the float32 channel totals against the margin and, outside it, the
float64 totals, and labels each voxel by a strict running compare per
channel.  ProbStack must accept and reject the same stacks with the same
message and give the same labels, whatever the slab size: the tests set
the slab constant so that slabs of one, two and three z-slices and a short
last slab occur, and put faults in any slab."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionkit import volume
from lesionkit.netmath import label_from_probs
from lesionkit.volume import ProbStack

SPACING = (1.0, 1.0, 3.0)
RANGE_MSG = "probabilities must be finite and in [0, 1]"
SUM_MSG = "per-voxel channel sums deviate from 1 by more than 1e-5"


def _near_one(total, tol):
    return float(total.max()) - 1.0 <= tol and 1.0 - float(total.min()) <= tol


def ref_message(data):
    """The message the whole-stack checks raise for data, None if they pass."""
    lo, hi = data.min(), data.max()
    if not (lo >= 0.0 and hi <= 1.0):
        return RANGE_MSG
    if not (_near_one(data.sum(axis=0, dtype=np.float32), 1e-5 - 1e-6)
            or _near_one(data.sum(axis=0, dtype=np.float64), 1e-5)):
        return SUM_MSG
    return None


def ref_labels(data):
    best = data[0].copy()
    labels = np.zeros(best.shape, dtype=np.uint8)
    for c in range(1, data.shape[0]):
        labels[data[c] > best] = c
        np.maximum(best, data[c], out=best)
    return labels


def _edge(side, tol, total):
    """The float32 values x for which total(x), the channel total of a voxel
    holding x and 0.5, lies just inside and just outside 1 + side * tol."""
    def dev(x):
        return side * (total(x) - 1.0)

    outward = np.float32(side * 2.0)
    x = np.float32(0.5)
    while dev(np.nextafter(x, outward)) <= tol:
        x = np.nextafter(x, outward)
    return x, np.nextafter(x, outward)


def _total32(x):
    return float(np.float32(x) + np.float32(0.5))


def _total64(x):
    return float(x) + 0.5


#: one voxel's values as (channel offset, value) pairs, the other channels 0;
#: the offset is added to the fault's channel, modulo 6
FAULTS = {
    "nan": ((0, np.nan), (1, 1.0)),
    "inf": ((0, np.inf),),
    "minus_inf": ((0, -np.inf), (1, 1.0)),
    "minus_zero": ((0, -0.0), (1, 1.0)),
    "tie": ((0, 0.5), (1, 0.5)),
    "above_one": ((0, np.nextafter(np.float32(1), np.float32(2))),),
    "below_zero": ((0, -np.finfo(np.float32).smallest_subnormal), (1, 1.0)),
    **{
        f"sum{bits}_{tag}_{where}": ((0, x), (1, 0.5))
        for bits, tol, total in ((32, 1e-5 - 1e-6, _total32), (64, 1e-5, _total64))
        for side, tag in ((1, "high"), (-1, "low"))
        for where, x in zip(("in", "out"), _edge(side, tol, total))
    },
}


def test_sum_edges_sit_where_named():
    sums = {name: pairs for name, pairs in FAULTS.items() if name.startswith("sum")}
    assert len(sums) == 8
    for name, pairs in sums.items():
        voxel = np.zeros((6, 1, 1, 1), dtype=np.float32)
        for c, value in pairs:
            voxel[c] = value
        inside = name.endswith("_in")
        if name.startswith("sum32"):
            assert _near_one(voxel.sum(axis=0, dtype=np.float32), 1e-5 - 1e-6) == inside
        else:
            assert _near_one(voxel.sum(axis=0, dtype=np.float64), 1e-5) == inside


def base_stack(seed, nz, ny, nx):
    """A valid stack with many ties: small integer weights, normalized."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 4, size=(6, nz, ny, nx)).astype(np.float64)
    raw[0][raw.sum(axis=0) == 0] = 1.0
    return (raw / raw.sum(axis=0)).astype(np.float32)


def place(data, fault, index, channel):
    z, y, x = np.unravel_index(index % data[0].size, data.shape[1:])
    data[:, z, y, x] = 0.0
    for offset, value in FAULTS[fault]:
        data[(channel + offset) % 6, z, y, x] = value


def check(data, slab_bytes):
    """ProbStack, with slab_bytes as its slab size, against the reference."""
    want = ref_message(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volume, "_SLAB_BYTES", slab_bytes)
        try:
            stack = ProbStack(data.copy(), SPACING)
        except ValueError as e:
            assert str(e) == want
            return
    assert want is None
    want_labels = ref_labels(data)
    np.testing.assert_array_equal(stack.labels, want_labels)
    assert not stack.labels.flags.writeable
    labels = label_from_probs(stack)
    assert labels.values is stack.labels and labels.spacing_mm == SPACING


@settings(max_examples=400, deadline=None)
@given(
    nz=st.integers(1, 7),
    ny=st.integers(1, 3),
    nx=st.integers(1, 3),
    slab_slices=st.integers(0, 3),
    slab_extra=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(FAULTS)), st.integers(0, 10**6), st.integers(0, 5)),
        max_size=3,
    ),
)
def test_scan_equals_reference(nz, ny, nx, slab_slices, slab_extra, seed, faults):
    # slab_slices 0 gives a slab size below one z-slice, which scans one at a time
    data = base_stack(seed, nz, ny, nx)
    for fault, index, channel in faults:
        place(data, fault, index, channel)
    plane = data[:, 0].nbytes
    check(data, slab_slices * plane + int(slab_extra * plane))


@pytest.mark.parametrize("faults,message", [
    pytest.param((("sum64_high_out", 0), ("nan", 2)), RANGE_MSG, id="sum_first_nan_later"),
    pytest.param((("nan", 0), ("sum64_low_out", 2)), RANGE_MSG, id="nan_first_sum_later"),
    pytest.param((("sum32_low_out", 0), ("minus_inf", 1)), RANGE_MSG, id="sum_then_minus_inf"),
    pytest.param((("sum64_low_out", 2),), SUM_MSG, id="sum_in_short_last_slab"),
    pytest.param((("sum32_high_out", 1), ("minus_zero", 2)), None, id="margin_falls_back"),
])
@pytest.mark.parametrize("slab_slices", [1, 2])
def test_fault_precedence_across_slabs(faults, message, slab_slices):
    # three z-slices: slabs of one slice each, or of two and then one
    data = base_stack(3, 3, 2, 2)
    for fault, z in faults:
        place(data, fault, z * 4 + 3, 2)
    assert ref_message(data) == message
    check(data, slab_slices * data[:, 0].nbytes)


def test_default_slab_size():
    # a 96x96x24 stack spans several slabs of the default size, a 48x48x12 one fits in one
    for shape in ((24, 96, 96), (12, 48, 48)):
        data = np.zeros((6,) + shape, dtype=np.float32)
        data[1] = 1.0
        data[4, shape[0] - 1, 5, 7], data[1, shape[0] - 1, 5, 7] = 0.75, 0.25
        check(data, volume._SLAB_BYTES)
