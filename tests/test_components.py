"""The run labeller, cluster._components, against scipy.ndimage.label and
find_objects: the same boxes, masks and order at connectivity 6, 18 and
26.  scipy.ndimage is the oracle here alone; the package never imports it.
Flips along each axis and an x<->y transpose must map components to
components."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lesionkit.cluster import _STRUCTURES, _components

CONNECTIVITIES = (6, 18, 26)
RANK = {6: 1, 18: 2, 26: 3}  # generate_binary_structure's rank per connectivity


def ndimage_components(mask, conn):
    """(box, mask within the box) per component, in ndimage's numbering."""
    structure = ndimage.generate_binary_structure(3, RANK[conn])
    labeled, _ = ndimage.label(mask, structure=structure)
    return [(box, labeled[box] == idx)
            for idx, box in enumerate(ndimage.find_objects(labeled), start=1)]


def assert_same_components(mask, conn):
    mine = list(_components(mask, _STRUCTURES[conn]))
    theirs = ndimage_components(mask, conn)
    assert [box for box, _ in mine] == [box for box, _ in theirs]
    for (_, a), (_, b) in zip(mine, theirs):
        assert a.dtype == np.bool_ and np.array_equal(a, b)


@st.composite
def masks(draw):
    """A grid of up to 7 voxels a side (single slices and single rows
    included) at a density from one voxel to all true."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["one", "sparse", "random", "dense", "full"]))
    if fill == "one":
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(int(rng.integers(n)) for n in shape)] = True
        return mask
    density = {"sparse": 0.1, "random": rng.random(), "dense": 0.9, "full": 1.0}[fill]
    return rng.random(shape) < density


@settings(max_examples=300, deadline=None)
@given(mask=masks(), conn=st.sampled_from(CONNECTIVITIES))
def test_components_equal_ndimage(mask, conn):
    assert_same_components(mask, conn)


@pytest.mark.parametrize("conn", CONNECTIVITIES)
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 9), (1, 9, 1), (9, 1, 1), (1, 6, 7),
                                   (5, 1, 7), (5, 6, 1)], ids=lambda s: "x".join(map(str, s)))
def test_single_slice_and_single_row_grids(shape, conn):
    rng = np.random.default_rng(sum(shape) * conn)
    for density in (0.2, 0.5, 0.8, 1.0):
        assert_same_components(rng.random(shape) < density, conn)


@pytest.mark.parametrize("conn", CONNECTIVITIES)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_slabs_one_voxel_thick(axis, conn):
    for k in range(4):
        mask = np.zeros((4, 5, 6), dtype=bool)
        mask[(slice(None),) * axis + (k,)] = True
        assert_same_components(mask, conn)
        holed = mask & (np.random.default_rng(k).random(mask.shape) < 0.6)
        assert_same_components(holed, conn)


@pytest.mark.parametrize("conn", CONNECTIVITIES)
def test_components_touching_each_face_and_corner(conn):
    shape = (4, 5, 6)
    for corner in itertools.product(*((0, n - 1) for n in shape)):
        mask = np.zeros(shape, dtype=bool)
        mask[corner] = True
        mask[2, 2, 2] = True
        assert_same_components(mask, conn)
    for axis, side in itertools.product(range(3), (0, -1)):
        mask = np.zeros(shape, dtype=bool)
        face = [slice(1, 3)] * 3
        face[axis] = side
        mask[tuple(face)] = True
        mask[tuple(slice(n // 2, n // 2 + 1) for n in shape)] = True
        assert_same_components(mask, conn)


def two_voxels(offset):
    """A 3x3x3 grid with its centre voxel and the voxel at offset (dz, dy, dx)
    from it."""
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    mask[tuple(1 + d for d in offset)] = True
    return mask


@pytest.mark.parametrize("offset", [o for o in itertools.product((-1, 0, 1), repeat=3)
                                    if any(o)], ids=lambda o: "dz{}dy{}dx{}".format(*o))
def test_face_edge_and_corner_contacts(offset):
    """A face contact joins at 6, 18 and 26; an edge-only contact at 18 and
    26; a corner-only contact at 26 alone.  Every direction is tried, so
    each backward row and each reach is used."""
    mask, touching = two_voxels(offset), sum(map(abs, offset))
    for conn in CONNECTIVITIES:
        joined = {6: touching == 1, 18: touching <= 2, 26: True}[conn]
        assert len(list(_components(mask, _STRUCTURES[conn]))) == (1 if joined else 2)
        assert_same_components(mask, conn)


def component_grids(mask, conn):
    """Each component of the mask as a bool array of the whole grid."""
    for box, comp in _components(mask, _STRUCTURES[conn]):
        grid = np.zeros(mask.shape, dtype=bool)
        grid[box] = comp
        yield grid


TRANSFORMS = {
    "flip-x": lambda m: m[:, :, ::-1],
    "flip-y": lambda m: m[:, ::-1, :],
    "flip-z": lambda m: m[::-1, :, :],
    "transpose-xy": lambda m: m.transpose(0, 2, 1),
}


@settings(max_examples=80, deadline=None)
@given(mask=masks(), conn=st.sampled_from(CONNECTIVITIES),
       name=st.sampled_from(sorted(TRANSFORMS)))
def test_flips_and_transpose_map_components_to_components(mask, conn, name):
    # the moved masks are views, not copies: the labeller takes any strides
    move = TRANSFORMS[name]
    moved = {move(grid).tobytes() for grid in component_grids(mask, conn)}
    assert moved == {grid.tobytes() for grid in component_grids(move(mask), conn)}
