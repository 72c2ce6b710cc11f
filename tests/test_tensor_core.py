import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import fusion, oracles, tensor_core as tc


def test_softmax_rows_are_distributions(rng):
    t = rng.standard_normal((6, 9))
    for axis in (0, 1):
        y = tc.softmax_fwd(t, axis)[0]
        npt.assert_allclose(y.sum(axis=axis), 1.0, atol=1e-12)
        assert (y > 0).all()


def test_softmax_matches_oracle(rng):
    v = rng.standard_normal(11)
    npt.assert_allclose(tc.softmax_fwd(v, 0)[0], oracles.softmax_oracle(v), atol=1e-15)


def test_softmax_is_shift_stable():
    v = np.array([1e4, 1e4 + 1.0, 1e4 - 2.0])
    y = tc.softmax_fwd(v, 0)[0]
    assert np.isfinite(y).all()
    npt.assert_allclose(y.sum(), 1.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [0, -1, -3])
def test_softmax_in_one_buffer_keeps_the_three_temporary_bits(rng, dtype, axis):
    t = (3 * rng.standard_normal((4, 5, 6, 7))).astype(dtype)
    before = t.copy()
    shifted = t - np.max(t, axis=axis, keepdims=True)
    e = np.exp(shifted)
    want = e / np.sum(e, axis=axis, keepdims=True)
    y, (cached, cached_axis) = tc.softmax_fwd(t, axis)
    assert y.dtype == dtype and cached is y and cached_axis == axis
    npt.assert_array_equal(y, want)
    npt.assert_array_equal(t, before)  # the input is never written


def test_l2_normalize_columns_unit_norm(rng):
    t = rng.standard_normal((4, 6)) + 0.1
    y = tc.l2_normalize_fwd(t, axis=0)[0]
    npt.assert_allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)


def test_l2_normalize_scale_invariant(rng):
    t = rng.standard_normal((4, 6)) + 0.1
    scales = rng.uniform(0.5, 20.0, size=6)
    base = tc.l2_normalize_fwd(t, axis=0)[0]
    scaled = tc.l2_normalize_fwd(t * scales, axis=0)[0]
    npt.assert_allclose(scaled, base, atol=1e-12)


def test_l2_normalize_maps_a_zero_slice_to_zero(rng):
    # the norm is floored at L2_EPS > 0, so a zero slice divides 0 by L2_EPS
    # rather than by 0: it maps to zero with the finite gradient of x/L2_EPS
    t = np.zeros((3, 2))
    t[:, 1] = rng.standard_normal(3)
    y, cache = tc.l2_normalize_fwd(t, 0)
    g = tc.l2_normalize_bwd(cache, np.ones_like(t))
    assert np.isfinite(y).all() and np.isfinite(g).all()
    assert y[:, 0].tolist() == [0.0] * 3
    npt.assert_array_equal(g[:, 0], np.full(3, 1.0 / tc.L2_EPS))


@pytest.mark.parametrize("eps", [0.0, -1e-12])
def test_l2_normalize_rejects_nonpositive_eps(eps):
    # a zero slice would divide 0 by max(0, eps) and come out NaN; the floor
    # is the fixed L2_EPS > 0, and no caller can pass another
    assert tc.L2_EPS > 0
    with pytest.raises(TypeError, match="eps"):
        tc.l2_normalize_fwd(np.zeros((3, 2)), 0, eps=eps)


def test_two_sigmoid_neutral_at_zero():
    # σ(0) = 0.5 exactly, so the doubled gate r·σ(0) is exactly one
    r = fusion.GATE_ACTS["two_sigmoid"]
    assert (r * tc.sigmoid_fwd(np.zeros(5))[0]).tolist() == [1.0] * 5


def test_relu_masks_backward(rng):
    t = rng.standard_normal((4, 5))
    out, cache = tc.relu_fwd(t)
    npt.assert_array_equal(out, np.maximum(t, 0))
    g = tc.relu_bwd(cache, np.ones_like(t))
    npt.assert_array_equal(g, (t > 0).astype(t.dtype))


def test_layer_norm_standardizes_rows(rng):
    t = rng.standard_normal((5, 8)) * 3.0 + 2.0
    y = tc.layer_norm_fwd(t, np.ones(8), np.zeros(8))[0]
    npt.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_matches_oracle(rng):
    v = rng.standard_normal(9)
    gain = rng.standard_normal(9)
    shift = rng.standard_normal(9)
    got = tc.layer_norm_fwd(v, gain, shift)[0]
    want = oracles.layer_norm_oracle(v, gain, shift, tc.LAYERNORM_EPS)
    npt.assert_allclose(got, want, atol=1e-13)


def test_f32_passes_stay_f32(rng):
    t = rng.standard_normal((4, 6)).astype(np.float32)
    assert tc.softmax_fwd(t, 0)[0].dtype == np.float32
    assert tc.l2_normalize_fwd(t, axis=0)[0].dtype == np.float32
    assert tc.relu_fwd(t)[0].dtype == np.float32
