"""Loss functions, gradients, attention gate, and label conversion.

Expected values come from independent oracles: hand-evaluated closed forms,
direct scalar-loop transcriptions of the formulas, and central finite
differences for every gradient.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionkit.netmath import (
    LESION_BRANCH_WEIGHTS,
    PROSTATE_BRANCH_WEIGHTS,
    AttentionMap,
    ClassWeights,
    FeatureStack,
    LossSchedule,
    LossValue,
    attention_gate_backward,
    attention_gate_forward,
    branch_loss,
    branch_loss_gradient,
    global_loss,
    label_from_probs,
    resample_attention,
    weighted_ce_loss,
    weighted_dice_loss,
)
from lesionkit.volume import ProbStack


# ---------------------------------------------------------------------------
# Oracles


def loss_oracle(p, y, w):
    """Scalar-loop transcription of the weighted Dice + CE formulas."""
    n, c = p.shape
    num = 0.0
    den = 0.0
    ce = 0.0
    for cc in range(c):
        for i in range(n):
            num += w[cc] * y[i, cc] * p[i, cc]
            den += w[cc] * (y[i, cc] + p[i, cc])
            ce -= y[i, cc] * w[cc] * math.log(max(p[i, cc], 1e-7))
    dice = 0.0 if den == 0.0 else 1.0 - 2.0 * num / den
    return dice, ce / n


def fd_gradient(fun, x, step=1e-4):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for k in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[k] += step
        lo[k] -= step
        g.reshape(-1)[k] = (fun(hi.reshape(x.shape)) - fun(lo.reshape(x.shape))) / (2 * step)
    return g


def rel_err(a, b):
    # guard keeps finite-difference rounding noise on exact-zero entries
    # from registering as a large relative deviation
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6))


def random_pair(rng, n, c):
    p = rng.uniform(0.05, 0.95, size=(n, c))
    y = np.zeros((n, c))
    y[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return p, y


# ---------------------------------------------------------------------------


class TestClassWeights:
    def test_defaults_match_published_configuration(self):
        assert LESION_BRANCH_WEIGHTS == (0.002, 0.14, 0.1715, 0.1715, 0.1715, 0.1715)
        assert PROSTATE_BRANCH_WEIGHTS == (0.002, 0.14)
        assert ClassWeights.lesion_default().w == LESION_BRANCH_WEIGHTS

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassWeights((1.0, -0.1))
        with pytest.raises(ValueError):
            ClassWeights((0.0, 0.0))
        with pytest.raises(ValueError):
            ClassWeights((1.0, 1.0, 1.0))

    def test_weights_are_real_numbers_in_a_tuple_or_array(self):
        # text and bools are not weights, though float() would take both
        with pytest.raises(ValueError, match="weights"):
            ClassWeights(("0.5", True))
        w = ClassWeights(np.array([0.5, 1.0]))
        assert w.w == (0.5, 1.0) and all(type(x) is float for x in w.w)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: ClassWeights((NAN, 1.0)), "weights"),
        (lambda: ClassWeights((INF, 1.0)), "weights"),
        (lambda: LossSchedule(lambda1=NAN), "lambda1"),
        (lambda: LossSchedule(lambda2=INF), "lambda2"),
        (lambda: LossSchedule(switch_epoch=2.5), "switch_epoch"),
        (lambda: LossSchedule(switch_epoch=True), "switch_epoch"),
    ],
    ids=["nan-weight", "inf-weight", "nan-lambda1", "inf-lambda2", "float-switch",
         "bool-switch"],
)
def test_nonfinite_or_mistyped_loss_settings_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def _pair(n=4, c=6, bad=None, where="p"):
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 0.9, size=(n, c))
    y = np.eye(c)[rng.integers(0, c, size=n)]
    if bad is not None:
        (p if where == "p" else y)[0, 1] = bad
    return p, y


@pytest.mark.parametrize("fun", [weighted_dice_loss, weighted_ce_loss, branch_loss,
                                 branch_loss_gradient])
@pytest.mark.parametrize(
    "pair,field",
    [
        (_pair(n=0), "voxel"),
        (_pair(bad=NAN), "p must be finite"),
        (_pair(bad=-INF), "p must be finite"),
        (_pair(bad=NAN, where="y"), "y must be finite"),
        (_pair(bad=INF, where="y"), "y must be finite"),
    ],
    ids=["empty", "nan-p", "inf-p", "nan-y", "inf-y"],
)
def test_empty_or_nonfinite_loss_inputs_rejected(fun, pair, field):
    with pytest.raises(ValueError, match=field):
        fun(*pair, ClassWeights.lesion_default())


class TestDiceLoss:
    def test_perfect_prediction_is_zero(self):
        y = np.zeros((5, 6))
        y[:, 2] = 1.0
        w = ClassWeights.lesion_default()
        assert weighted_dice_loss(y, y, w) == 0.0

    def test_uniform_prediction_closed_form(self):
        # y one-hot class 0 everywhere, p = 1/6 uniform, uniform weights:
        # numerator sums w*y*p = N/6, denominator sums w*(y+p) over all
        # classes = N*(1+1) = 2N, so loss = 1 - 2*(N/6)/(2N) = 5/6.
        n = 12
        y = np.zeros((n, 6))
        y[:, 0] = 1.0
        p = np.full((n, 6), 1 / 6)
        w = ClassWeights((1.0,) * 6)
        got = weighted_dice_loss(p, y, w)
        assert abs(got - 5 / 6) < 1e-12
        dice_o, _ = loss_oracle(p, y, np.ones(6))
        assert abs(got - dice_o) < 1e-12

    def test_empty_denominator_flagged(self):
        p = np.zeros((4, 6))
        y = np.zeros((4, 6))
        w = ClassWeights.lesion_default()
        assert weighted_dice_loss(p, y, w) == 0.0
        lv = branch_loss(p, y, w)
        assert lv.empty_dice
        assert lv.dice_term == 0.0

    def test_shape_mismatch(self):
        w = ClassWeights.lesion_default()
        with pytest.raises(ValueError):
            weighted_dice_loss(np.zeros((3, 6)), np.zeros((4, 6)), w)
        with pytest.raises(ValueError):
            weighted_dice_loss(np.zeros((3, 2)), np.zeros((3, 2)), w)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 30))
    def test_dice_in_unit_interval(self, seed, n):
        rng = np.random.default_rng(seed)
        p, y = random_pair(rng, n, 6)
        w = ClassWeights(tuple(rng.uniform(0.0, 2.0, size=5)) + (1.0,))
        val = weighted_dice_loss(p, y, w)
        assert 0.0 <= val <= 1.0

    def test_rescaling_invariance_exact(self):
        # Scaling all weights by a power of two leaves the Dice term
        # bit-identical and scales the CE term exactly linearly.
        rng = np.random.default_rng(5)
        p, y = random_pair(rng, 17, 6)
        w1 = ClassWeights((0.25, 0.5, 1.0, 2.0, 4.0, 0.125))
        w4 = ClassWeights(tuple(4.0 * x for x in w1.w))
        assert weighted_dice_loss(p, y, w4) == weighted_dice_loss(p, y, w1)
        assert weighted_ce_loss(p, y, w4) == 4.0 * weighted_ce_loss(p, y, w1)


class TestCeLoss:
    def test_single_voxel_inverse_e(self):
        p = np.array([[1 / math.e, 1 - 1 / math.e]])
        y = np.array([[1.0, 0.0]])
        w = ClassWeights((1.0, 1.0))
        assert abs(weighted_ce_loss(p, y, w) - 1.0) < 1e-12

    def test_uniform_sixth_gives_log6(self):
        n = 9
        p = np.full((n, 6), 1 / 6)
        y = np.zeros((n, 6))
        y[:, 3] = 1.0
        w = ClassWeights((1.0,) * 6)
        assert abs(weighted_ce_loss(p, y, w) - math.log(6)) < 1e-12

    def test_exact_onehot_is_zero(self):
        y = np.zeros((4, 6))
        y[:, 1] = 1.0
        w = ClassWeights.lesion_default()
        assert weighted_ce_loss(y, y, w) == 0.0


class TestBranchLoss:
    def test_components_compose(self):
        rng = np.random.default_rng(2)
        p, y = random_pair(rng, 20, 6)
        w = ClassWeights.lesion_default()
        lv = branch_loss(p, y, w)
        assert lv.dice_term == weighted_dice_loss(p, y, w)
        assert lv.ce_term == weighted_ce_loss(p, y, w)
        assert abs(lv.total - (lv.dice_term + lv.ce_term)) < 1e-15

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_transcription_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        p, y = random_pair(rng, n, 6)
        w = tuple(rng.uniform(0.01, 1.0, size=6))
        lv = branch_loss(p, y, ClassWeights(w))
        dice_o, ce_o = loss_oracle(p, y, np.asarray(w))
        assert abs(lv.dice_term - dice_o) < 1e-10
        assert abs(lv.ce_term - ce_o) < 1e-10

    def test_loss_value_invariants_enforced(self):
        with pytest.raises(ValueError):
            LossValue(total=1.0, dice_term=0.2, ce_term=0.3)
        with pytest.raises(ValueError):
            LossValue(total=1.5, dice_term=1.5, ce_term=0.0)
        with pytest.raises(ValueError):
            LossValue(total=-0.1, dice_term=0.0, ce_term=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["total", "dice_term", "ce_term"])
    def test_loss_value_terms_must_be_finite(self, field, bad):
        terms = {"total": 0.5, "dice_term": 0.25, "ce_term": 0.25, field: bad}
        with pytest.raises(ValueError, match=field):
            LossValue(**terms)

    def test_nan_total_and_ce_term_are_rejected(self):
        # NaN slips past both the sum check and ce_term < 0
        with pytest.raises(ValueError, match="total must be finite"):
            LossValue(math.nan, 0.0, math.nan)


class TestGlobalLoss:
    def test_lesion_branch_silent_before_switch(self):
        lp = LossValue(0.4, 0.3, 0.1)
        ll = LossValue(0.9, 0.5, 0.4)
        s = LossSchedule(lambda1=1.0, lambda2=1.0, switch_epoch=20)
        assert global_loss(lp, ll, s, epoch=0) == 0.4
        assert global_loss(lp, ll, s, epoch=19) == 0.4

    def test_equal_contribution_after_switch(self):
        lp = LossValue(0.4, 0.3, 0.1)
        ll = LossValue(0.9, 0.5, 0.4)
        s = LossSchedule(lambda1=1.0, lambda2=1.0, switch_epoch=20)
        assert global_loss(lp, ll, s, epoch=20) == pytest.approx(1.3)

    def test_zero_weights(self):
        lp = LossValue(0.4, 0.3, 0.1)
        ll = LossValue(0.9, 0.5, 0.4)
        s = LossSchedule(lambda1=0.0, lambda2=0.0, switch_epoch=0)
        assert global_loss(lp, ll, s, epoch=50) == 0.0

    @pytest.mark.parametrize("epoch", [25.5, 20.0, True, "20", -1])
    def test_epoch_must_be_an_int(self, epoch):
        lp = LossValue(0.4, 0.3, 0.1)
        ll = LossValue(0.9, 0.5, 0.4)
        with pytest.raises(ValueError, match="epoch must be an integer"):
            global_loss(lp, ll, LossSchedule(), epoch=epoch)

    def test_default_switch_epoch(self):
        assert LossSchedule().switch_epoch == 20


class TestBranchLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(4):
            n = int(rng.integers(2, 30))
            p, y = random_pair(rng, n, 6)
            w = ClassWeights(tuple(rng.uniform(0.01, 1.0, size=6)))
            ana = branch_loss_gradient(p, y, w)

            def f(q, y=y, w=w):
                return branch_loss(q, y, w).total

            fd = fd_gradient(f, p)
            worst = max(worst, rel_err(ana, fd))
        assert worst < 1e-4

    def test_zero_weight_kills_ce_component(self):
        rng = np.random.default_rng(8)
        p, y = random_pair(rng, 10, 6)
        w = ClassWeights((0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        g = branch_loss_gradient(p, y, w)
        # class-0 entries keep no CE part; their gradient equals the pure
        # Dice derivative, which vanishes with w_0 = 0
        assert np.allclose(g[:, 0], 0.0)

    def test_boundary_rejected(self):
        y = np.zeros((2, 6))
        y[:, 0] = 1.0
        w = ClassWeights.lesion_default()
        with pytest.raises(ValueError):
            branch_loss_gradient(y, y, w)

    def test_true_class_dice_gradient_nonpositive(self):
        rng = np.random.default_rng(14)
        p, y = random_pair(rng, 12, 6)
        w = ClassWeights(tuple(rng.uniform(0.1, 1.0, size=6)))

        def dice_only(q):
            return weighted_dice_loss(q, y, w)

        fd = fd_gradient(dice_only, p)
        assert np.all(fd[y == 1.0] <= 1e-9)


class TestAttentionGate:
    def test_unit_gate_is_identity(self):
        rng = np.random.default_rng(3)
        f = FeatureStack(rng.normal(size=(4, 6, 6)))
        a = AttentionMap(np.ones((6, 6)))
        out = attention_gate_forward(f, a)
        np.testing.assert_array_equal(out.planes, f.planes)

    def test_zero_gate_shuts_everything_down(self):
        rng = np.random.default_rng(4)
        f = FeatureStack(rng.normal(size=(3, 5, 7)))
        a = AttentionMap(np.zeros((10, 14)))
        out = attention_gate_forward(f, a)
        assert not out.planes.any()

    def test_same_size_matches_scalar_loop(self):
        rng = np.random.default_rng(9)
        f = FeatureStack(rng.normal(size=(2, 4, 3)))
        a = AttentionMap(rng.uniform(0, 1, size=(4, 3)))
        out = attention_gate_forward(f, a)
        for c in range(2):
            for i in range(4):
                for j in range(3):
                    assert out.planes[c, i, j] == pytest.approx(
                        f.planes[c, i, j] * a.plane[i, j]
                    )

    def test_integer_ratio_uses_area_mean(self):
        a = AttentionMap(np.array([[0.0, 1.0, 0.2, 0.4], [0.5, 0.5, 0.6, 0.8]]))
        got = resample_attention(a, (1, 2))
        np.testing.assert_allclose(got, [[0.5, 0.5]])

    def test_output_bounded_by_input(self):
        rng = np.random.default_rng(12)
        f = FeatureStack(rng.normal(size=(3, 8, 8)))
        a = AttentionMap(rng.uniform(0, 1, size=(16, 16)))
        out = attention_gate_forward(f, a)
        assert np.all(np.abs(out.planes) <= np.abs(f.planes) + 1e-12)

    def test_linear_in_features(self):
        rng = np.random.default_rng(13)
        f1 = rng.normal(size=(2, 6, 6))
        f2 = rng.normal(size=(2, 6, 6))
        a = AttentionMap(rng.uniform(0, 1, size=(12, 12)))
        lhs = attention_gate_forward(FeatureStack(f1 + 2.0 * f2), a).planes
        rhs = (
            attention_gate_forward(FeatureStack(f1), a).planes
            + 2.0 * attention_gate_forward(FeatureStack(f2), a).planes
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_backward_trivial_cases(self):
        rng = np.random.default_rng(6)
        f = FeatureStack(rng.normal(size=(3, 4, 4)))
        dout = rng.normal(size=(3, 4, 4))
        df, _ = attention_gate_backward(f, AttentionMap(np.ones((4, 4))), dout)
        np.testing.assert_array_equal(df, dout)
        zero_f = FeatureStack(np.zeros((3, 4, 4)))
        a = AttentionMap(rng.uniform(0, 1, size=(8, 8)))
        _, da = attention_gate_backward(zero_f, a, dout)
        assert not da.any()

    @pytest.mark.parametrize("hw,HW", [((4, 4), (8, 8)), ((3, 5), (7, 9)), ((4, 6), (4, 6))])
    def test_backward_matches_finite_differences(self, hw, HW):
        rng = np.random.default_rng(hash(hw + HW) % 2**32)
        c = 3
        f0 = rng.normal(size=(c, *hw))
        a0 = rng.uniform(0.1, 0.9, size=HW)
        probe = rng.normal(size=(c, *hw))

        def objective(fa, aa):
            out = attention_gate_forward(FeatureStack(fa), AttentionMap(aa))
            return float((out.planes * probe).sum())

        df, da = attention_gate_backward(FeatureStack(f0), AttentionMap(a0), probe)
        fd_f = fd_gradient(lambda q: objective(q, a0), f0)
        fd_a = fd_gradient(lambda q: objective(f0, q), a0)
        assert rel_err(df, fd_f) < 1e-4
        assert rel_err(da, fd_a) < 1e-4

    def test_adjoint_identity(self):
        # <resample(a), g> == <a, adjoint(g)> defines the backward resampling
        from lesionkit.netmath import _resample_attention_adjoint

        rng = np.random.default_rng(77)
        cases = [
            ((8, 8), (4, 4)),  # area, equal ratios
            ((7, 9), (3, 5)),  # bilinear
            ((6, 6), (6, 6)),  # ratio 1: the identity
            ((8, 12), (4, 3)),  # area, unequal ratios
            ((8, 9), (4, 5)),  # H % h == 0 but W % w != 0: bilinear both ways
            ((6, 8), (1, 4)),  # one-row block, area
            ((5, 7), (1, 3)),  # one-row block, bilinear
        ]
        for HW, hw in cases:
            a = AttentionMap(rng.uniform(0, 1, size=HW))
            g = rng.normal(size=hw)
            lhs = float((resample_attention(a, hw) * g).sum())
            rhs = float((a.plane * _resample_attention_adjoint(g, a)).sum())
            assert abs(lhs - rhs) < 1e-10

    def test_block_larger_than_map_rejected(self):
        f = FeatureStack(np.zeros((1, 8, 8)))
        a = AttentionMap(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            attention_gate_forward(f, a)

    @pytest.mark.parametrize("hw", [(0, 2), (2, 0), (0, 0)])
    def test_empty_block_rejected(self, hw):
        a = AttentionMap(np.ones((4, 4)))
        with pytest.raises(ValueError, match=r"cannot gate \(\d, \d\) block"):
            resample_attention(a, hw)

    def test_empty_feature_plane_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 0, 4\)"):
            FeatureStack(np.zeros((1, 0, 4)))

    def test_empty_attention_plane_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 4\)"):
            AttentionMap(np.zeros((0, 4)))

    def test_bilinear_gate_bytes_are_pinned(self):
        # sha256 over resample_attention's output for non-integral ratios,
        # including one where only the rows divide evenly, a one-row block,
        # and blocks of signed zeros in the map.
        rng = np.random.default_rng(4242)
        digest = hashlib.sha256()
        for HW, hw in [((7, 9), (3, 5)), ((10, 10), (3, 7)), ((8, 9), (4, 5)),
                       ((5, 8), (1, 3)), ((13, 17), (6, 11)), ((4, 5), (4, 4))]:
            plane = rng.uniform(0.0, 1.0, size=HW)
            plane[:2, :3] = -0.0
            plane[2::3, ::2] = 0.0
            out = resample_attention(AttentionMap(plane), hw)
            digest.update(repr(out.shape).encode())
            digest.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
        assert digest.hexdigest() == (
            "812a3e7a5484a8f6dd257abbea99fae2a8732090542d3e6cf6ab38921e3d8ed8"
        )


class TestLabelFromProbs:
    def _stack(self, data):
        return ProbStack(np.asarray(data, dtype=np.float32), (1.0, 1.0, 3.0))

    def test_plain_argmax(self):
        data = np.zeros((6, 1, 1, 2), dtype=np.float32)
        data[0, 0, 0, 0] = 0.9
        data[1, 0, 0, 0] = 0.1
        data[5, 0, 0, 1] = 0.6
        data[2, 0, 0, 1] = 0.4
        v = label_from_probs(self._stack(data))
        assert v.values[0, 0, 0] == 0
        assert v.values[0, 0, 1] == 5  # (x, y, z) = (1, 0, 0)

    def test_tie_breaks_to_lowest_index(self):
        data = np.zeros((6, 1, 1, 1), dtype=np.float32)
        data[2] = 0.5
        data[3] = 0.5
        v = label_from_probs(self._stack(data))
        assert v.values[0, 0, 0] == 2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(19)
        raw = rng.uniform(0.1, 1.0, size=(6, 2, 3, 4))
        data = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32)
        stack = ProbStack(data, (1.0, 1.0, 3.0))
        got = label_from_probs(stack)
        for z in range(2):
            for y in range(3):
                for x in range(4):
                    best = max(range(6), key=lambda c: (data[c, z, y, x], -c))
                    assert got.values[z, y, x] == best

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        raw = rng.uniform(0.05, 1.0, size=(6, 2, 4, 4))
        base = raw / raw.sum(axis=0, keepdims=True)
        warped = base**2 + 0.1
        warped /= warped.sum(axis=0, keepdims=True)
        l1 = label_from_probs(ProbStack(base.astype(np.float32), (1, 1, 3)))
        l2 = label_from_probs(ProbStack(warped.astype(np.float32), (1, 1, 3)))
        np.testing.assert_array_equal(l1.values, l2.values)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_equals_numpy_argmax_with_ties_and_signed_zeros(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, (3, 5, 5), endpoint=True))
        # a random subset of channels per voxel shares the maximum exactly
        top = rng.random((6, *shape)) < rng.uniform(0.1, 0.9)
        np.put_along_axis(top, rng.integers(0, 6, size=(1, *shape)), True, axis=0)
        rest = rng.random((6, *shape)) * (rng.random((6, *shape)) < 0.6)
        ratio = np.where(top, 1.0, rest)
        data = (ratio / ratio.sum(axis=0)).astype(np.float32)
        zeros = data == 0.0
        data[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        got = label_from_probs(ProbStack(data, (1.0, 1.0, 3.0))).values
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, np.argmax(data, axis=0))
