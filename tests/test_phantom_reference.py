"""Blob placement against a reference: the plain numpy placement the phantom
generator used before its free grids and centre check.

The reference builds every candidate's mask with numpy broadcasting, tests
it against the zone mask and one `forbidden` grid, and grows `forbidden`
with `maximum_filter`, where the generator grows the ellipsoid itself.  `generate_cohort` must give the same ledger JSON
and the same label and zone bytes, or both must raise PlacementError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lesionkit.grades import CS_GRADES, GRADE_ORDER
from lesionkit.phantom import (
    PROSTATE_AXIS_FRACTIONS,
    ZONE_PZ,
    ZONE_TZ,
    FpEntry,
    LesionEntry,
    PatientScript,
    PhantomConfig,
    PhantomLedger,
    PlacementError,
    _blob_mask,
    generate_cohort,
    ledger_to_dict,
)
from lesionkit.volume import json_chunks


def ref_blob_mask(dims, center, semi_axes):
    nx, ny, nz = dims
    cx, cy, cz = center
    ax, ay, az = semi_axes
    x0, x1 = max(0, math.floor(cx - ax)), min(nx - 1, math.ceil(cx + ax))
    y0, y1 = max(0, math.floor(cy - ay)), min(ny - 1, math.ceil(cy + ay))
    z0, z1 = max(0, math.floor(cz - az)), min(nz - 1, math.ceil(cz + az))
    z = np.arange(z0, z1 + 1)[:, None, None]
    y = np.arange(y0, y1 + 1)[:, None]
    x = np.arange(x0, x1 + 1)
    inside = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2 <= 1.0
    return np.s_[z0 : z1 + 1, y0 : y1 + 1, x0 : x1 + 1], inside


def ref_anatomy(cfg):
    nx, ny, nz = cfg.dims
    center = ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)
    axes = tuple(f * n for f, n in zip(PROSTATE_AXIS_FRACTIONS, cfg.dims))
    prostate, tz = np.zeros((2, nz, ny, nx), dtype=bool)
    for grid, semi in ((prostate, axes), (tz, tuple(a * cfg.tz_scale for a in axes))):
        box, inside = ref_blob_mask(cfg.dims, center, semi)
        grid[box] = inside
    tz &= prostate
    masks = {ZONE_PZ: prostate & ~tz, ZONE_TZ: tz}
    centres = {name: np.argwhere(m)[:, ::-1].tolist() for name, m in masks.items()}
    return prostate, masks, centres


def ref_mark_forbidden(forbidden, box, blob, margin=2):
    grown = tuple(slice(max(0, b.start - margin), b.stop + margin) for b in box)
    near = np.zeros(forbidden[grown].shape, dtype=bool)
    near[tuple(slice(b.start - g.start, b.stop - g.start) for b, g in zip(box, grown))] = blob
    forbidden[grown] |= ndimage.maximum_filter(near, size=2 * margin + 1, mode="constant")


def ref_place_blob(cfg, rng, zone_voxels, forbidden, zone_masks):
    sx, sy, sz = cfg.spacing_mm
    lo, hi = cfg.lesion_radius_mm
    for _ in range(cfg.max_place_retries):
        zone = ZONE_PZ if rng.random() < cfg.pz_fraction else ZONE_TZ
        zvox = zone_voxels[zone]
        if not zvox:
            continue
        center = zvox[int(rng.integers(0, len(zvox)))]
        semi = (
            float(rng.uniform(lo, hi)) / sx,
            float(rng.uniform(lo, hi)) / sy,
            float(rng.uniform(lo, hi)) / sz,
        )
        box, blob = ref_blob_mask(cfg.dims, center, semi)
        if np.count_nonzero(blob) < cfg.min_lesion_voxels:
            continue
        if not zone_masks[zone][box][blob].all() or forbidden[box][blob].any():
            continue
        ref_mark_forbidden(forbidden, box, blob)
        return zone, box, blob
    raise PlacementError("no room")


def ref_generate(cfg):
    """(ledger, [(label bytes, PZ bytes, TZ bytes) per patient])."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_patients)
    prostate, masks, centres = ref_anatomy(cfg)
    zone_bytes = (masks[ZONE_PZ].astype(np.uint8).tobytes(),
                  masks[ZONE_TZ].astype(np.uint8).tobytes())
    slo, shi = cfg.score_range
    scripts, volumes = [], []
    for i in range(cfg.n_patients):
        rng = np.random.Generator(np.random.Philox(streams[i]))
        forbidden = np.zeros(prostate.shape, dtype=bool)
        lab = prostate.astype(np.uint8)
        lesions = []
        for gi in (int(g) - 2 for g in GRADE_ORDER):
            grade = GRADE_ORDER[gi]
            for _ in range(cfg.lesions_per_grade[gi]):
                zone, box, blob = ref_place_blob(cfg, rng, centres, forbidden, masks)
                lab[box][blob] = int(grade)
                pred_grade = score = None
                detected = bool(rng.random() >= cfg.miss_fraction)
                if detected:
                    row = np.asarray(cfg.misgrade[gi], dtype=np.float64)
                    pred_grade = GRADE_ORDER[int(rng.choice(4, p=row / row.sum()))]
                    score = float(np.float32(rng.uniform(slo, shi)))
                lesions.append(LesionEntry(grade, zone, box, blob, detected, pred_grade, score))
        fps = []
        for _ in range(cfg.fp_per_patient):
            zone, box, blob = ref_place_blob(cfg, rng, centres, forbidden, masks)
            grade = CS_GRADES[int(rng.integers(0, len(CS_GRADES)))]
            fps.append(FpEntry(grade, zone, box, blob, float(np.float32(cfg.fp_score))))
        scripts.append(PatientScript(f"p{i:03d}", i % cfg.n_folds, tuple(lesions), tuple(fps)))
        volumes.append((lab.tobytes(),) + zone_bytes)
    return PhantomLedger(tuple(scripts), cfg.dims, cfg.spacing_mm), volumes


def outcome(generate, cfg):
    """(ledger JSON, volume bytes) of a cohort, or None if placement fails."""
    try:
        ledger, volumes = generate(cfg)
    except PlacementError:
        return None
    return "".join(json_chunks(ledger_to_dict(ledger))), volumes


def generated(cfg):
    patients, ledger = generate_cohort(cfg)
    return ledger, [(p.labels.values.tobytes(), p.zones.pz.values.tobytes(),
                     p.zones.tz.values.tobytes()) for p in patients]


@st.composite
def configs(draw):
    spacing = tuple(draw(st.sampled_from([0.8, 1.0, 1.5, 2.0, 3.0])) for _ in range(3))
    lo = draw(st.floats(2.5, 4.0))
    n_patients = draw(st.integers(1, 2))
    return PhantomConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_patients=n_patients,
        dims=tuple(math.ceil(draw(st.floats(30.0, 50.0)) / s) for s in spacing),
        spacing_mm=spacing,
        lesions_per_grade=tuple(draw(st.integers(0, 1)) for _ in range(4)),
        lesion_radius_mm=(lo, lo + draw(st.floats(0.0, 1.5))),
        fp_per_patient=draw(st.integers(0, 2)),
        miss_fraction=draw(st.sampled_from([0.0, 0.3])),
        pz_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        tz_scale=draw(st.floats(0.2, 0.8)),
        min_lesion_voxels=max(1, math.ceil(45.0 / math.prod(spacing))),
        max_place_retries=draw(st.sampled_from([1, 4, 100, 250, 400])),
        n_folds=n_patients,
    )


@settings(max_examples=150, deadline=None)
@given(cfg=configs())
def test_placement_matches_reference(cfg):
    assert outcome(generated, cfg) == outcome(ref_generate, cfg)


DENSE = dict(n_patients=4, dims=(48, 48, 12), lesions_per_grade=(2, 2, 2, 2), fp_per_patient=4,
             lesion_radius_mm=(2.5, 3.0), miss_fraction=0.2, n_folds=2)


@pytest.mark.parametrize("cfg", [
    # most hypothesis draws place few blobs; these place 12 per patient
    PhantomConfig(seed=0, **DENSE),
    PhantomConfig(seed=7, **DENSE),
    # no voxel centre in the TZ: a try that draws it takes one draw and is rejected
    PhantomConfig(seed=3, tz_scale=0.02, **DENSE),
], ids=["dense-0", "dense-7", "empty-tz"])
def test_reference_agrees_on_fixed_cohorts(cfg):
    want = outcome(ref_generate, cfg)
    assert want is not None
    assert outcome(generated, cfg) == want


@settings(max_examples=300, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 20)] * 3), data=st.data(),
       semi=st.tuples(*[st.floats(0.2, 6.0)] * 3), margin=st.integers(1, 3))
def test_grown_blob_mask_is_the_dilated_blob(dims, data, semi, margin):
    # integer centres are what placement uses; half-integer and other centres
    # check the nearest-voxel rule of the grown mask
    center = [data.draw(st.one_of(st.integers(0, n - 1), st.floats(0, n - 1))) for n in dims]
    box, blob = ref_blob_mask(dims, center, semi)
    want = np.zeros(dims[::-1], dtype=bool)
    if blob.any():
        ref_mark_forbidden(want, box, blob, margin)
    got = np.zeros(dims[::-1], dtype=bool)
    near_box, near = _blob_mask(dims, center, semi, margin)
    got[near_box] = near
    assert np.array_equal(got, want)


def test_blob_mask_sums_in_reference_order():
    # at voxel (11, 12, 7) the three axis terms sum to exactly 1.0 as
    # (x + y) + z, and to 1 + 2**-52 as x + (y + z)
    args = ((24, 24, 12), (10, 10, 5), (3.8223139888557807, 4.301472887443886, 2.3646393248241897))
    box, mask = _blob_mask(*args)
    ref_box, ref_mask = ref_blob_mask(*args)
    assert box == ref_box and np.array_equal(mask, ref_mask)
    assert mask[7 - box[0].start, 12 - box[1].start, 11 - box[2].start]
