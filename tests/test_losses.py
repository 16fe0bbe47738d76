import numpy as np
import pytest

from depthseg import geometry, losses, synth
from depthseg.losses import (SSIM_C1, SSIM_C2, LossError, LossWeights,
                             combine_shared_gradients, cross_entropy,
                             cross_entropy_grad, hint_loss, hint_loss_grad,
                             multiscale_photometric, photometric_loss,
                             photometric_loss_grad, smoothness_loss,
                             smoothness_loss_grad, ssim_map)
from test_acceptance import finite_difference, rel_error
from test_geometry import (assert_bitwise, oracle_upsample_bilinear,
                           oracle_warp, traced_peak)


@pytest.mark.parametrize("field", ["lam_h", "gamma", "beta1", "beta2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_weights_reject_nonfinite(field, value):
    with pytest.raises(LossError, match=f"{field} must be finite"):
        LossWeights(**{field: value})


def test_ssim_identical_images_is_one():
    rng = np.random.default_rng(0)
    img = rng.random((8, 8, 3))
    s = ssim_map(img, img)
    assert np.allclose(s, 1.0, atol=1e-12)


def test_ssim_constant_vs_shifted_constant():
    # closed form: means differ by 1, variances are 0
    a = np.zeros((6, 6))
    b = np.ones((6, 6))
    expected = (2 * 0 * 1 + SSIM_C1) * SSIM_C2 / ((0 + 1 + SSIM_C1) * SSIM_C2)
    s = ssim_map(a, b)
    assert np.allclose(s, expected, atol=1e-12)


def test_photometric_identity_zero():
    rng = np.random.default_rng(1)
    img = rng.random((10, 12, 3))
    assert abs(photometric_loss(img, img)) < 1e-7


def test_photometric_gamma_zero_is_l1():
    a = np.zeros((5, 5))
    b = np.full((5, 5), 0.25)
    val = photometric_loss(a, b, w=LossWeights(gamma=0.0))
    assert val == pytest.approx(0.25)


def test_photometric_respects_mask():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    b[0, 0] = 1.0
    mask = np.ones((4, 4), bool)
    mask[0, 0] = False
    masked = photometric_loss(a, b, mask, w=LossWeights(gamma=0.0))
    full = photometric_loss(a, b, w=LossWeights(gamma=0.0))
    assert masked == pytest.approx(0.0)
    assert full > 0


def test_photometric_all_masked_rejected():
    a = np.zeros((3, 3))
    with pytest.raises(LossError):
        photometric_loss(a, a, np.zeros((3, 3), bool))


@pytest.mark.parametrize("gamma", [0.0, 0.85])
def test_photometric_gradient(gamma):
    rng = np.random.default_rng(2)
    a = rng.random((8, 8, 3))
    b = rng.random((8, 8, 3))
    w = LossWeights(gamma=gamma)
    grad = photometric_loss_grad(a, b, w=w)
    num = finite_difference(lambda x: photometric_loss(a, x, w=w), b)
    assert rel_error(grad, num) < 1e-4


def longdouble_box_sum(x):
    """The direct zero-padded 3x3 sum of nine shifted copies."""
    h, w, _ = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    return sum(padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
               for dr in (-1, 0, 1) for dc in (-1, 0, 1))


def longdouble_ssim_terms(a, b):
    ld = np.longdouble
    a = np.asarray(a, dtype=ld)
    b = np.asarray(b, dtype=ld)
    count = longdouble_box_sum(np.ones(a.shape[:2] + (1,), dtype=ld))
    mu_a = longdouble_box_sum(a) / count
    mu_b = longdouble_box_sum(b) / count
    var_a = longdouble_box_sum(a * a) / count - mu_a ** 2
    var_b = longdouble_box_sum(b * b) / count - mu_b ** 2
    cov = longdouble_box_sum(a * b) / count - mu_a * mu_b
    c1, c2 = ld(0.01) ** 2, ld(0.03) ** 2
    n1 = 2 * mu_a * mu_b + c1
    n2 = 2 * cov + c2
    d1 = mu_a ** 2 + mu_b ** 2 + c1
    d2 = var_a + var_b + c2
    return a, b, count, mu_a, mu_b, n1, n2, d1, d2, n1 * n2 / (d1 * d2)


def longdouble_photometric(a, b, mask, gamma):
    """The loss and its gradient w.r.t. b, in long double."""
    ld = np.longdouble
    a, b, count, mu_a, mu_b, n1, n2, d1, d2, ssim = longdouble_ssim_terms(
        a, b)
    channels = a.shape[2]
    g_pix = mask[:, :, None] / ld(mask.sum())
    per_pixel = (ld(gamma) / 2 * (1 - ssim.mean(axis=2))
                 + (1 - ld(gamma)) * np.abs(a - b).mean(axis=2))
    loss = per_pixel[mask].mean()
    g = -ld(gamma) / 2 / channels * g_pix
    g_n1 = g * n2 / (d1 * d2)
    g_d1 = -g * ssim / d1
    g_d2 = -g * ssim / d2
    g_cov = 2 * g * n1 / (d1 * d2)
    g_mu_b = g_n1 * 2 * mu_a + g_d1 * 2 * mu_b - g_cov * mu_a - g_d2 * 2 * mu_b
    grad = (longdouble_box_sum(g_mu_b / count)
            + longdouble_box_sum(g_d2 / count) * 2 * b
            + longdouble_box_sum(g_cov / count) * a)
    grad += (1 - ld(gamma)) / channels * np.sign(b - a) * g_pix
    return loss, grad


# Box sums are direct adds, so the error does not grow with the image
# area: about 1e-14 at 192x640. A cumulative-sum box filter is off by
# about 3e-12 at 48x160 and 1e-10 at 192x640.
SSIM_ATOL = 1e-13
LOSS_RTOL = 1e-13


@pytest.mark.parametrize("shape", [(8, 8, 3), (1, 7, 1), (7, 1, 2),
                                   (48, 160, 1)])
def test_ssim_and_photometric_match_longdouble_oracle(shape):
    rng = np.random.default_rng(12)
    a = rng.random(shape)
    b = rng.random(shape)
    mask = rng.random(shape[:2]) < 0.8
    mask[0, 0] = True
    *_, ssim = longdouble_ssim_terms(a, b)
    assert np.abs(ssim_map(a, b) - ssim.mean(axis=2)).max() <= SSIM_ATOL
    for gamma in (0.0, 0.85):
        w = LossWeights(gamma=gamma)
        loss, grad = longdouble_photometric(a, b, mask, gamma)
        assert abs(photometric_loss(a, b, mask, w) - loss) <= (
            LOSS_RTOL * abs(loss))
        got = photometric_loss_grad(a, b, mask, w)
        assert got.dtype == np.float64
        assert np.abs(got - grad).max() <= LOSS_RTOL * np.abs(grad).max()


@pytest.mark.parametrize("fn", [photometric_loss, photometric_loss_grad])
@pytest.mark.parametrize("b_shape, mask, error", [
    ((4, 5), None, "shape mismatch"),
    ((4, 4), np.ones((4, 5), bool), "mask shape"),
    ((4, 4), np.ones((4, 4, 1), bool), "mask shape"),
    ((4, 4), np.zeros((4, 4), bool), "masked out"),
])
def test_photometric_loss_and_grad_reject_bad_inputs(fn, b_shape, mask,
                                                     error):
    rng = np.random.default_rng(4)
    with pytest.raises(LossError, match=error):
        fn(rng.random((4, 4)), rng.random(b_shape), mask)


@pytest.mark.parametrize("fn", [hint_loss, hint_loss_grad])
@pytest.mark.parametrize("pred, target, mask, error", [
    (np.ones((2, 2)), np.ones((2, 3)), None, "shape mismatch"),
    (np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2), bool), "mask shape"),
    (np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), bool), "masked out"),
    (np.array([[1.0, np.nan]]), np.ones((1, 2)), None, "finite"),
    (np.ones((1, 2)), np.array([[np.inf, 1.0]]), None, "finite"),
    (np.array([[-np.inf, 1.0]]), np.ones((1, 2)), None, "finite"),
    (np.ones((1, 2)), np.array([[1.0, 0.0]]), None, "positive"),
    (np.array([[-1.0, 1.0]]), np.ones((1, 2)), None, "positive"),
    (np.ones((0, 2)), np.ones((0, 2)), None, "positive"),
])
def test_hint_loss_and_grad_reject_bad_inputs(fn, pred, target, mask, error):
    with pytest.raises(LossError, match=error):
        fn(pred, target, mask)


@pytest.mark.parametrize("fn", [ssim_map, photometric_loss,
                                photometric_loss_grad])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channels", [None, 3])
def test_losses_reject_nonfinite_images(fn, bad, channels):
    rng = np.random.default_rng(6)
    shape = (5, 6) if channels is None else (5, 6, channels)
    a = rng.random(shape)
    b = rng.random(shape)
    b[2, 3] = bad
    for x, y in ((a, b), (b, a)):
        with pytest.raises(LossError, match="images must be non-empty and "
                                            "finite"):
            fn(x, y)


@pytest.mark.parametrize("fn", [ssim_map, photometric_loss,
                                photometric_loss_grad])
def test_losses_reject_empty_images(fn):
    with pytest.raises(LossError, match="non-empty"):
        fn(np.zeros((0, 4)), np.zeros((0, 4)))


@pytest.mark.parametrize("fn", [smoothness_loss, smoothness_loss_grad])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which, error", [
    (0, "disparity must be finite"),
    (1, "images must be non-empty and finite"),
])
def test_smoothness_and_grad_reject_nonfinite_inputs(fn, bad, which, error):
    args = [np.full((4, 4), 0.5), np.zeros((4, 4, 3))]
    args[which][1, 2] = bad
    with pytest.raises(LossError, match=error):
        fn(*args)


def test_hint_loss_log_form():
    val = hint_loss(np.array([[2.0]]), np.array([[1.0]]))
    assert val == pytest.approx(np.log(2.0), abs=1e-7)


def test_hint_loss_zero_at_equality():
    d = np.full((4, 4), 3.0)
    assert hint_loss(d, d) == 0.0


def test_hint_loss_rejects_nonpositive_depth():
    with pytest.raises(LossError):
        hint_loss(np.zeros((2, 2)), np.ones((2, 2)))


def test_hint_gradient():
    rng = np.random.default_rng(3)
    d = rng.random((8, 8)) + 0.5
    t = rng.random((8, 8)) + 0.5
    grad = hint_loss_grad(d, t)
    num = finite_difference(lambda x: hint_loss(x, t), d)
    assert rel_error(grad, num) < 1e-4


def test_smoothness_zero_for_constant_disparity():
    disp = np.full((6, 6), 0.4)
    rng = np.random.default_rng(4)
    img = rng.random((6, 6, 3))
    assert smoothness_loss(disp, img) == pytest.approx(0.0)


def test_smoothness_mean_normalization_makes_it_scale_invariant():
    rng = np.random.default_rng(5)
    disp = rng.random((6, 6)) + 0.1
    img = rng.random((6, 6, 3))
    a = smoothness_loss(disp, img)
    b = smoothness_loss(disp * 7.5, img)
    assert a == pytest.approx(b, rel=1e-12)


def test_smoothness_edges_downweight_gradients():
    disp = np.tile(np.array([0.2, 0.8]), (4, 2))
    flat_img = np.full((4, 4), 0.5)
    edge_img = np.tile(np.array([0.0, 1.0]), (4, 2))
    assert smoothness_loss(disp, edge_img) < smoothness_loss(disp, flat_img)


def test_smoothness_gradient():
    rng = np.random.default_rng(6)
    disp = rng.random((8, 8)) + 0.1
    img = rng.random((8, 8, 3))
    grad = smoothness_loss_grad(disp, img)
    num = finite_difference(lambda x: smoothness_loss(x, img), disp)
    assert rel_error(grad, num) < 1e-4


@pytest.mark.parametrize("k", [2, 19])
def test_cross_entropy_uniform_is_log_k(k):
    probs = np.full((4, 5, k), 1.0 / k)
    target = np.zeros((4, 5), dtype=np.int64)
    assert cross_entropy(target, probs) == pytest.approx(np.log(k), abs=1e-6)


def test_cross_entropy_perfect_prediction_is_zero():
    probs = np.zeros((2, 2, 3))
    probs[..., 1] = 1.0
    target = np.ones((2, 2), dtype=np.int64)
    assert cross_entropy(target, probs) == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_rejects_unnormalized():
    with pytest.raises(LossError):
        cross_entropy(np.zeros((2, 2), int), np.full((2, 2, 3), 0.5))


def test_cross_entropy_rejects_out_of_range_ids():
    probs = np.full((2, 2, 3), 1 / 3)
    with pytest.raises(LossError):
        cross_entropy(np.full((2, 2), 3), probs)


def test_cross_entropy_labels_match_one_hot_target():
    rng = np.random.default_rng(11)
    logits = rng.random((9, 13, 5)) + 0.1
    probs = logits / logits.sum(axis=2, keepdims=True)
    probs[0, 0] = (1.0, 0.0, 0.0, 0.0, 0.0)  # labelled p under the floor
    labels = rng.integers(0, 5, (9, 13))
    labels[0, 0] = 1
    one_hot = np.eye(5)[labels]
    loss = cross_entropy(labels, probs)
    assert loss == pytest.approx(cross_entropy(one_hot, probs), rel=1e-12)
    grad = cross_entropy_grad(labels, probs)
    assert grad.shape == probs.shape and grad.dtype == np.float64
    assert np.array_equal(grad, cross_entropy_grad(one_hot, probs))


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
def test_cross_entropy_and_grad_reject_fractional_labels(fn):
    probs = np.full((4, 5, 3), 1 / 3)
    with pytest.raises(LossError, match="labels must be whole numbers"):
        fn(np.full((4, 5), 1.5), probs)
    labels = np.ones((4, 5))
    labels[2, 3] = 0.25
    with pytest.raises(LossError, match="labels must be whole numbers"):
        fn(labels, probs)


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
def test_cross_entropy_and_grad_take_whole_float_labels(fn):
    rng = np.random.default_rng(12)
    probs = rng.random((4, 5, 3)) + 0.1
    probs /= probs.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 3, (4, 5))
    for dtype in (np.float32, np.float16):
        assert np.array_equal(fn(labels.astype(dtype), probs),
                              fn(labels, probs))


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("target, error", [
    (np.full((2, 2), 3), "out of range"),
    (np.full((2, 2), -1), "out of range"),
    (np.array([[0.0, np.nan], [1.0, 1.0]]), "out of range"),
    (np.zeros((2, 3), int), "shape mismatch"),
    (np.zeros((2, 2, 2)), "shape mismatch"),
])
def test_cross_entropy_and_grad_reject_bad_targets(fn, target, error):
    with pytest.raises(LossError, match=error):
        fn(target, np.full((2, 2, 3), 1 / 3))


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cross_entropy_and_grad_reject_nonfinite_probabilities(fn, bad):
    probs = np.full((4, 4, 2), 0.5)
    probs[1, 2, 0] = bad
    with pytest.raises(LossError, match="finite"):
        fn(np.zeros((4, 4), int), probs)


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("soft", [False, True])
def test_cross_entropy_and_grad_reject_negative_probabilities(fn, soft):
    # every vector sums to 1, so only the sign check catches it
    probs = np.full((2, 2, 2), 0.5)
    probs[1, 0] = (1.5, -0.5)
    target = np.full((2, 2, 2), 0.5) if soft else np.zeros((2, 2), int)
    with pytest.raises(LossError, match="must not be negative"):
        fn(target, probs)


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cross_entropy_and_grad_reject_nonfinite_soft_target(fn, bad):
    target = np.full((4, 4, 2), 0.5)
    target[1, 2, 0] = bad
    with pytest.raises(LossError, match="soft target must be finite"):
        fn(target, np.full((4, 4, 2), 0.5))


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("target", [np.zeros((0, 3), int),
                                    np.zeros((0, 3, 2))],
                         ids=["labels", "soft"])
def test_cross_entropy_and_grad_reject_zero_size(fn, target):
    with pytest.raises(LossError, match="at least one pixel"):
        fn(target, np.zeros((0, 3, 2)))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(8)
    logits = rng.random((8, 8, 4)) + 0.1
    probs = logits / logits.sum(axis=2, keepdims=True)
    target = rng.integers(0, 4, (8, 8))
    grad = cross_entropy_grad(target, probs)
    num = finite_difference(lambda p: cross_entropy(target, p), probs)
    assert rel_error(grad, num) < 1e-4


def test_total_losses_combine_linearly():
    w = LossWeights(lam_pe=2.0, lam_h=3.0, lam_rfd=1.0, lam_s=0.5,
                    lam_ps=4.0, lam_rfs=0.25, beta1=0.5, beta2=2.0)
    d = losses.total_depth_loss(1.0, 1.0, 1.0, 1.0, w)
    s = losses.total_seg_loss(1.0, 1.0, w)
    assert d == pytest.approx(6.5)
    assert s == pytest.approx(4.25)
    assert losses.total_loss(d, s, w) == pytest.approx(0.5 * 6.5 + 2.0 * 4.25)


def test_multiscale_photometric_self_consistent():
    # warping the target image itself at identity pose reconstructs it, so
    # the loss vanishes at every scale
    rng = np.random.default_rng(9)
    img = rng.random((16, 32)).astype(np.float64)
    disparities = [np.full((16 >> s, 32 >> s), 0.5) for s in range(4)]
    cam = geometry.Camera(10.0, 10.0, 15.5, 7.5)
    val = multiscale_photometric(disparities, img, img,
                                 geometry.Pose.identity(), cam,
                                 geometry.DepthParams(0.1, 100.0))
    assert abs(val) < 1e-6


def test_combine_shared_gradients_endpoints_and_linearity():
    rng = np.random.default_rng(10)
    gd = rng.random((5, 7))
    gs = rng.random((5, 7))
    assert np.array_equal(combine_shared_gradients(gd, gs, 1.0), gd)
    assert np.array_equal(combine_shared_gradients(gd, gs, 0.0), gs)
    mid = combine_shared_gradients(gd, gs, 0.5)
    assert np.allclose(mid, 0.5 * gd + 0.5 * gs)
    assert np.allclose(combine_shared_gradients(gd, gd, 0.3), gd)


def test_combine_shared_gradients_rejects_bad_alpha():
    g = np.zeros((2, 2))
    with pytest.raises(LossError):
        combine_shared_gradients(g, g, 1.5)


@pytest.mark.parametrize("shape", [(3, 5), (7, 16), (16, 7)])
def test_multiscale_photometric_rejects_images_without_a_one_eighth_scale(
        shape):
    img = np.random.default_rng(4).random(shape)
    disparities = [np.full((shape[0] >> s, shape[1] >> s), 0.5)
                   for s in range(4)]
    with pytest.raises(LossError, match="at least 8x8"):
        multiscale_photometric(disparities, img, img,
                               geometry.Pose.identity(),
                               geometry.Camera(10.0, 10.0, 2.0, 1.0),
                               geometry.DepthParams(0.1, 100.0))


@pytest.mark.parametrize("layout", ["fortran", "strided", "transposed"])
def test_cross_entropy_and_grad_on_non_contiguous_probabilities(layout):
    rng = np.random.default_rng(12)
    logits = rng.random((6, 10, 4)) + 0.1
    probs = logits / logits.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 4, (6, 10))
    if layout == "fortran":
        view = np.asfortranarray(probs)
    elif layout == "strided":
        wide = np.zeros((6, 20, 4))
        wide[:, ::2] = probs
        view = wide[:, ::2]
    else:
        view = np.ascontiguousarray(probs.transpose(1, 0, 2)).transpose(
            1, 0, 2)
    assert not view.flags.c_contiguous and np.array_equal(view, probs)
    assert cross_entropy(labels, view) == cross_entropy(labels, probs)
    grad = cross_entropy_grad(labels, view)
    assert grad.flags.c_contiguous
    assert np.array_equal(grad, cross_entropy_grad(labels, probs))
    assert np.array_equal(grad, cross_entropy_grad(np.eye(4)[labels], probs))


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
def test_cross_entropy_and_grad_reject_zero_classes(fn):
    with pytest.raises(LossError, match="at least one class"):
        fn(np.zeros((2, 2), int), np.zeros((2, 2, 0)))


# The direct expression forms of the SSIM terms, the SSIM map, the
# photometric loss and its gradient: out-of-place temporaries, a box sum
# that copies before it adds, and every product formed where it is used.
# They compute in the images' dtype, as the kernels do for images of one
# dtype.

def expression_box_sum(x):
    rows = x.copy()
    rows[1:] += x[:-1]
    rows[:-1] += x[1:]
    out = rows.copy()
    out[:, 1:] += rows[:, :-1]
    out[:, :-1] += rows[:, 1:]
    return out


def expression_ssim_terms(a, b):
    h, w, _ = a.shape
    count = (losses._window_counts(h)[:, None]
             * losses._window_counts(w))[:, :, None].astype(a.dtype)
    mu_a = expression_box_sum(a) / count
    mu_b = expression_box_sum(b) / count
    e_aa = expression_box_sum(a * a) / count
    e_bb = expression_box_sum(b * b) / count
    e_ab = expression_box_sum(a * b) / count
    var_a = e_aa - mu_a ** 2
    var_b = e_bb - mu_b ** 2
    cov = e_ab - mu_a * mu_b
    n1 = 2 * mu_a * mu_b + losses.SSIM_C1
    n2 = 2 * cov + losses.SSIM_C2
    d1 = mu_a ** 2 + mu_b ** 2 + losses.SSIM_C1
    d2 = var_a + var_b + losses.SSIM_C2
    return count, mu_a, mu_b, n1, n2, d1, d2, (n1 * n2) / (d1 * d2)


def expression_photometric(a, b, mask, w):
    """The loss and its gradient w.r.t. b."""
    count, mu_a, mu_b, n1, n2, d1, d2, ssim = expression_ssim_terms(a, b)
    per_pixel = (w.gamma / 2.0 * (1.0 - ssim.mean(axis=2))
                 + (1.0 - w.gamma) * np.abs(a - b).mean(axis=2))
    loss = float(per_pixel[mask].mean())
    channels = a.shape[2]
    g_pix = mask.astype(a.dtype) / int(mask.sum())
    g_ssim = (-w.gamma / 2.0 / channels) * g_pix[:, :, None]
    g_ssim = np.broadcast_to(g_ssim, a.shape).copy()
    g_n1 = g_ssim * n2 / (d1 * d2)
    g_n2 = g_ssim * n1 / (d1 * d2)
    g_d1 = -g_ssim * ssim / d1
    g_d2 = -g_ssim * ssim / d2
    g_cov = 2.0 * g_n2
    g_mu_b = (g_n1 * 2.0 * mu_a + g_d1 * 2.0 * mu_b
              - g_cov * mu_a - g_d2 * 2.0 * mu_b)
    grad = (expression_box_sum(g_mu_b / count)
            + expression_box_sum(g_d2 / count) * 2.0 * b
            + expression_box_sum(g_cov / count) * a)
    grad += ((1.0 - w.gamma) / channels) * np.sign(b - a) * g_pix[:, :, None]
    return ssim.mean(axis=2), loss, grad


@pytest.mark.parametrize("shape", [(8, 8, 3), (1, 7, 1), (48, 160, 1)])
def test_ssim_and_photometric_match_expression_form_bitwise(shape):
    rng = np.random.default_rng(19)
    a = rng.random(shape)
    b = rng.random(shape)
    # exact zeros and a constant patch, where the moments cancel
    a[:2, :3] = 0.0
    b[:2, :3] = 0.5
    mask = rng.random(shape[:2]) < 0.8
    mask[0, 0] = True
    want = expression_ssim_terms(a, b)
    got = losses._ssim_terms(a, b)
    assert len(got) == len(want) - 1
    for g, e in zip(got, want):
        assert np.array_equal(g, e)
    for gamma in (0.0, 0.85, 1.0):
        w = LossWeights(gamma=gamma)
        ssim, loss, grad = expression_photometric(a, b, mask, w)
        assert np.array_equal(ssim_map(a, b), ssim)
        assert photometric_loss(a, b, mask, w) == loss
        got = photometric_loss_grad(a, b, mask, w)
        assert got.dtype == grad.dtype and np.array_equal(got, grad)


def test_ssim_map_and_gradient_peak_memory():
    # images at 192x640, in units of H*W*8 bytes. Out-of-place SSIM terms
    # peaked at 17.0 for ssim_map and 23.2 for the gradient of float32
    # images converted to float64; shared products and in-place terms at
    # 11.0 and 13.2, and at 8.13 and 10.13 for float64 images. Float32
    # images in [-1, 1], computed in float32, peak at 4.13 and 5.13
    rng = np.random.default_rng(18)
    h, w = 192, 640
    a = rng.random((h, w)).astype(np.float32)
    b = rng.random((h, w)).astype(np.float32)
    mask = rng.random((h, w)) < 0.9
    unit = h * w * 8
    assert traced_peak(ssim_map, a, b) <= 4.6 * unit
    assert traced_peak(photometric_loss_grad, a, b, mask) <= 5.6 * unit
    a, b = a.astype(np.float64), b.astype(np.float64)
    assert traced_peak(ssim_map, a, b) <= 12 * unit
    assert traced_peak(photometric_loss_grad, a, b, mask) <= 14 * unit


@pytest.mark.parametrize("h", [1, 2, 5])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [1, 3])
def test_box_sum_matches_expression_form_bitwise(h, w, c):
    # the flat column pass resums the edge columns, whose taps wrapped
    # onto a neighboring row; exact and signed zeros and negative values
    # show a tap added in another order or one too many
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    x = rng.normal(size=(h, w, c))
    x.reshape(-1)[::3] = 0.0
    x.reshape(-1)[1::5] = -0.0
    assert_bitwise([losses._box_sum(x)], [expression_box_sum(x)])


def test_photometric_loss_of_a_warp_matches_expression_form():
    # a float32 warp and its valid mask, as multiscale_photometric passes
    # them: the mean is over the same pixels in the same order. Float32
    # images in [-1, 1] are computed in float32; float64 and mixed images
    # in float64
    rng = np.random.default_rng(21)
    h, w = 24, 80
    img_t = rng.random((h, w)).astype(np.float32)
    img_s = rng.random((h, w)).astype(np.float32)
    cam = geometry.Camera(0.58 * w, 1.92 * h, 0.5 * w - 0.5, 0.5 * h - 0.5)
    depth = rng.uniform(2.0, 30.0, (h, w))
    warped, valid = geometry.warp(img_s, depth,
                                  geometry.Pose.stereo_baseline(0.54), cam)
    assert warped.dtype == np.float32 and 0 < valid.sum() < valid.size
    t64, w64 = img_t.astype(np.float64), warped.astype(np.float64)
    for gamma in (0.0, 0.85, 1.0):
        weights = LossWeights(gamma=gamma)
        _, want, _ = expression_photometric(
            img_t[:, :, None], warped[:, :, None], valid, weights)
        assert photometric_loss(img_t, warped, valid, weights) == want
        _, want, _ = expression_photometric(
            t64[:, :, None], w64[:, :, None], valid, weights)
        for pair in ((t64, w64), (img_t, w64), (t64, warped)):
            assert photometric_loss(*pair, valid, weights) == want


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
def test_cross_entropy_sum_check_tolerance(fn, soft):
    probs = np.full((4, 5, 3), 1 / 3)
    target = np.full((4, 5, 3), 1 / 3) if soft else np.zeros((4, 5), int)
    for off, error in ((2e-5, "sum to 1"), (-2e-5, "sum to 1"), (5e-6, None),
                       (-5e-6, None), (np.nan, "finite")):
        bad = probs.copy()
        bad[2, 3, 1] += off
        if error is None:
            fn(target, bad)
        else:
            with pytest.raises(LossError, match=error):
                fn(target, bad)


DEPTH_PARAMS = geometry.DepthParams(c1=1 / 0.1 - 1 / 100.0, c2=1 / 100.0)


def loss_step_inputs(h, w):
    """A rendered (h, w) stereo frame with textured objects at fractional
    disparities, and its true disparity as a sigmoid disparity at 1, 1/2,
    1/4 and 1/8 resolution: (camera, left, right, pyramid)."""
    cam = geometry.Camera(0.58 * w, 1.92 * h, 0.5 * w - 0.5, 0.5 * h - 0.5)
    objects = (
        synth.ObjectSpec("rect", (h // 4, w // 8, h // 2 + 3, w // 3), 7.3,
                         1, 11),
        synth.ObjectSpec("disk", (0.6 * h, 0.7 * w, h / 4), 12.9, 2, 12),
        synth.ObjectSpec("rect", (h // 2, w // 2, h - 2, w // 2 + 17), 4.1,
                         3, 13))
    spec = synth.SceneSpec(h, w, cam, 0.54, 40.0, objects, 0, 14)
    left, right, depth, _, _ = synth.render(spec)
    pyramid = [np.clip((1 / depth - DEPTH_PARAMS.c2) / DEPTH_PARAMS.c1,
                       0.0, 1.0)]
    for _ in range(3):
        pyramid.append(geometry.downsample2x_area(pyramid[-1]))
    return cam, left, right, pyramid


def test_multiscale_photometric_matches_expression_form_end_to_end():
    # the loss step composed from the direct forms of every kernel it
    # runs: the oracle upsample and warp, the depth conversion as one
    # expression and the expression photometric loss. A reorder anywhere
    # on the path changes the float
    # float32 images in [-1, 1] are computed in float32, float64 images
    # in float64
    h, w = 48, 160
    cam, left, right, pyramid = loss_step_inputs(h, w)
    assert left.dtype == right.dtype == np.float32
    pose = geometry.Pose.stereo_baseline(0.54)
    for dtype in (np.float32, np.float64):
        a = left.astype(dtype)[:, :, None]
        want = []
        for disp in pyramid:
            full = oracle_upsample_bilinear(disp, (h, w)).astype(np.float64)
            depth = 1.0 / (DEPTH_PARAMS.c1 * full + DEPTH_PARAMS.c2)
            warped, valid = oracle_warp(right.astype(dtype), depth, pose,
                                        cam)
            assert valid.any()
            b = warped.astype(dtype)[:, :, None]
            want.append(expression_photometric(a, b, valid,
                                               LossWeights())[1])
        got = multiscale_photometric(pyramid, left.astype(dtype),
                                     right.astype(dtype), pose, cam,
                                     DEPTH_PARAMS)
        assert got == float(np.mean(want))


def _photometric_outputs(a, b, mask):
    """ssim_map, photometric_loss as float64 and its gradient."""
    return (ssim_map(a, b), np.float64(photometric_loss(a, b, mask)),
            photometric_loss_grad(a, b, mask))


def test_photometric_kernels_run_in_float32_for_float32_images_in_range():
    # float32 images with every value in [-1, 1], the dynamic range that
    # SSIM_C1 and SSIM_C2 are set for, are computed in float32; float64,
    # mixed and out-of-range float32 images give the bytes of their
    # float64 cast
    rng = np.random.default_rng(34)
    h, w = 12, 20
    a = rng.uniform(-1.0, 1.0, (h, w, 2)).astype(np.float32)
    b = rng.uniform(-1.0, 1.0, (h, w, 2)).astype(np.float32)
    a[0, 0], b[0, 0] = -1.0, 1.0
    mask = rng.random((h, w)) < 0.7
    ssim, _, grad = _photometric_outputs(a, b, mask)
    assert ssim.dtype == grad.dtype == np.float32
    pairs = [(a, b.astype(np.float64)), (a.astype(np.float64), b),
             (a.astype(np.float16), b)]
    above = np.nextafter(np.float32(1.0), np.float32(2.0))
    for bad in (above, -above, np.float32(1e30)):
        far = b.copy()
        far[3, 4, 1] = bad
        pairs += [(a, far), (far, a)]
    for pair in pairs:
        assert_bitwise(
            _photometric_outputs(*pair, mask),
            _photometric_outputs(*(x.astype(np.float64) for x in pair),
                                 mask))


def test_multiscale_photometric_keeps_float64_for_other_images():
    # mixed and out-of-range float32 images give the loss of their float64
    # cast, the loss of in-range float32 images differs from it
    h, w = 32, 96
    cam, left, right, pyramid = loss_step_inputs(h, w)
    pose = geometry.Pose.stereo_baseline(0.54)

    def loss(l, r):
        return np.float64(multiscale_photometric(pyramid, l, r, pose, cam,
                                                 DEPTH_PARAMS)).tobytes()

    l64, r64 = left.astype(np.float64), right.astype(np.float64)
    assert loss(left, right) != loss(l64, r64)
    assert loss(left, r64) == loss(l64, right) == loss(l64, r64)
    l2, r2 = 2 * left, 2 * right
    assert l2.dtype == np.float32
    assert loss(l2, right) == loss(l2.astype(np.float64), r64)
    assert loss(left, r2) == loss(l64, r2.astype(np.float64))
    # the pairs of the single-scale kernels' test: a float16 image, and a
    # float32 value one ulp beyond [-1, 1] or 1e30 on either image
    assert loss(left.astype(np.float16), right) == loss(
        left.astype(np.float16).astype(np.float64), r64)
    above = np.nextafter(np.float32(1.0), np.float32(2.0))
    for bad in (above, -above, np.float32(1e30)):
        far = right.copy()
        far[h // 2, w // 2] = bad
        far64 = far.astype(np.float64)
        assert loss(left, far) == loss(l64, far64)
        assert loss(far, left) == loss(far64, l64)


def test_float32_loss_and_gradient_are_close_to_float64():
    # the loss step's frames at 192x640: the float32 kernels move the loss
    # by at most 1e-6 relative, and the gradient by at most 1e-4 of its
    # largest magnitude
    h, w = 192, 640
    cam, left, right, pyramid = loss_step_inputs(h, w)
    pose = geometry.Pose.stereo_baseline(0.54)
    l64, r64 = left.astype(np.float64), right.astype(np.float64)
    want = multiscale_photometric(pyramid, l64, r64, pose, cam, DEPTH_PARAMS)
    got = multiscale_photometric(pyramid, left, right, pose, cam,
                                 DEPTH_PARAMS)
    assert abs(got - want) <= 1e-6 * abs(want)
    depth = geometry.disparity_to_depth(pyramid[0], DEPTH_PARAMS)
    warped, valid = geometry.warp(right, depth, pose, cam)
    w64 = warped.astype(np.float64)
    want = photometric_loss(l64, w64, valid)
    assert abs(photometric_loss(left, warped, valid) - want) \
        <= 1e-6 * abs(want)
    want = photometric_loss_grad(l64, w64, valid)
    got = photometric_loss_grad(left, warped, valid)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


@pytest.mark.parametrize("channels", [None, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.85])
def test_multiscale_photometric_is_the_mean_of_public_losses_bytewise(
        channels, gamma):
    # the target's SSIM terms are computed once for the four scales; the
    # public per-scale loss, which computes them each time, gives the
    # same bytes
    h, w = 32, 96
    cam, left, right, pyramid = loss_step_inputs(h, w)
    if channels is not None:
        rng = np.random.default_rng(32)
        left, right = (np.stack([img, img[::-1], img[:, ::-1]], axis=-1)
                       * rng.uniform(0.5, 1.0, 3) for img in (left, right))
    pose = geometry.Pose.stereo_baseline(0.54)
    weights = LossWeights(gamma=gamma)
    want = []
    for disp in pyramid:
        depth = geometry.disparity_to_depth(
            geometry.upsample_bilinear(disp, (h, w)), DEPTH_PARAMS)
        want.append(photometric_loss(
            left, *geometry.warp(right, depth, pose, cam), weights))
    got = multiscale_photometric(pyramid, left, right, pose, cam,
                                 DEPTH_PARAMS, weights)
    assert (np.float64(got).tobytes()
            == np.float64(np.mean(want)).tobytes())


@pytest.mark.parametrize("layout", ["c", "fortran"])
def test_hint_loss_and_grad_without_a_mask_equal_an_all_true_mask(layout):
    # no mask averages every pixel in raster order, as an all-true mask
    # selects them, whatever the memory layout of the inputs
    rng = np.random.default_rng(33)
    for h, w in ((1, 1), (3, 7), (17, 130), (64, 65)):
        pred = rng.uniform(0.5, 30.0, (h, w))
        target = rng.uniform(0.5, 30.0, (h, w))
        target[::3] = pred[::3]
        if layout == "fortran":
            pred, target = np.asfortranarray(pred), np.asfortranarray(target)
        every = np.ones((h, w), dtype=bool)
        assert (np.float64(hint_loss(pred, target)).tobytes()
                == np.float64(hint_loss(pred, target, every)).tobytes())
        assert (hint_loss_grad(pred, target).tobytes()
                == hint_loss_grad(pred, target, every).tobytes())


def test_upsample_and_multiscale_photometric_peak_memory():
    # in units of H*W*8 bytes at 192x640. The parent's upsample from the
    # 1x, 1/2, 1/4 and 1/8 scales peaked at 5.10, 4.35, 3.66 and 3.37, and
    # its multiscale_photometric at 15.01. The same-shape cast and the
    # row-factored upsample peak at 0.50, 3.78, 2.84 and 2.61, and the
    # loss step, which holds no scale's depth or warp into the next, at
    # 13.88 (12.08 for float64 images). Float32 images in [-1, 1],
    # computed in float32, peaked at 11.08 while the warps worked in
    # float64, and at 9.14 with the warps sampling them in float32
    h, w = 192, 640
    unit = h * w * 8
    cam, left, right, pyramid = loss_step_inputs(h, w)
    for disp, bound in zip(pyramid, (0.6, 3.9, 2.95, 2.7)):
        assert traced_peak(geometry.upsample_bilinear, disp, (h, w)) \
            <= bound * unit
    pose = geometry.Pose.stereo_baseline(0.54)
    assert left.dtype == right.dtype == np.float32
    assert traced_peak(multiscale_photometric, pyramid, left, right, pose,
                       cam, DEPTH_PARAMS) <= 9.7 * unit
    assert traced_peak(multiscale_photometric, pyramid,
                       left.astype(np.float64), right.astype(np.float64),
                       pose, cam, DEPTH_PARAMS) <= 13.9 * unit


@pytest.mark.parametrize("fn", [ssim_map, photometric_loss,
                                photometric_loss_grad])
@pytest.mark.parametrize("shape", [(6,), (2, 3, 4, 1)])
def test_losses_reject_images_that_are_neither_2d_nor_3d(fn, shape):
    with pytest.raises(LossError, match=r"\(H, W\) or \(H, W, C\)"):
        fn(np.ones(shape), np.ones(shape))


@pytest.mark.parametrize("fn", [smoothness_loss, smoothness_loss_grad])
@pytest.mark.parametrize("disp, img, error", [
    (np.ones((4, 5)), np.ones((4, 6)), "shape mismatch"),
    (np.ones((4, 5)), np.ones((5, 4, 3)), "shape mismatch"),
    (np.zeros((4, 5)), np.ones((4, 5)), "mean must be positive"),
    (-np.ones((4, 5)), np.ones((4, 5)), "mean must be positive"),
    (np.ones((1, 5)), np.ones((1, 5)), "at least 2x2"),
    (np.ones((5, 1)), np.ones((5, 1, 3)), "at least 2x2"),
])
def test_smoothness_rejects_bad_inputs(fn, disp, img, error):
    with pytest.raises(LossError, match=error):
        fn(disp, img)


@pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad])
@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 2, 2, 2)])
def test_cross_entropy_rejects_probabilities_that_are_not_hwk(fn, shape):
    with pytest.raises(LossError, match=r"must be \(H, W, K\)"):
        fn(np.zeros((2, 2), int), np.ones(shape))


def test_combine_shared_gradients_rejects_a_shape_mismatch():
    with pytest.raises(LossError, match="shape mismatch"):
        combine_shared_gradients(np.ones((2, 3)), np.ones((3, 2)), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_combine_shared_gradients_rejects_nonfinite_gradients(bad, side):
    grads = [np.ones(3), np.ones(3)]
    grads[side][1] = bad
    with pytest.raises(LossError, match="finite"):
        combine_shared_gradients(*grads, 0.5)


def _multiscale_inputs(h=16, w=16):
    rng = np.random.default_rng(4)
    disps = [np.full((h >> s, w >> s), 0.5) for s in range(4)]
    return (disps, rng.random((h, w)), rng.random((h, w)), geometry.Pose.
            stereo_baseline(0.1), geometry.Camera(10, 10, 7.5, 7.5),
            geometry.DepthParams(1.0, 0.1))


@pytest.mark.parametrize("scales", [0, 3, 5])
def test_multiscale_photometric_rejects_other_scale_counts(scales):
    disps, *rest = _multiscale_inputs()
    disps = (disps * 2)[:scales]
    with pytest.raises(LossError, match="4 scales"):
        multiscale_photometric(disps, *rest)


@pytest.mark.parametrize("scale", [0, 1, 3])
def test_multiscale_photometric_rejects_a_misshaped_scale(scale):
    disps, *rest = _multiscale_inputs()
    disps[scale] = np.full((disps[scale].shape[0] + 1,
                            disps[scale].shape[1]), 0.5)
    with pytest.raises(LossError, match=f"scale {scale}: expected shape"):
        multiscale_photometric(disps, *rest)


@pytest.mark.parametrize("bad, error", [
    (np.nan, "finite"), (np.inf, "finite"), ("rgb", "shape mismatch"),
    ("wide", "shape mismatch")])
def test_multiscale_photometric_checks_the_source_image_itself(bad, error):
    disps, img_t, img_s, *rest = _multiscale_inputs()
    if bad == "rgb":
        img_s = np.repeat(img_s[:, :, None], 3, axis=2)
    elif bad == "wide":
        img_s = np.hstack([img_s, img_s])
    else:
        img_s[3, 5] = bad
    with pytest.raises(LossError, match=error):
        multiscale_photometric(disps, img_t, img_s, *rest)


@pytest.mark.parametrize("fn", [hint_loss, hint_loss_grad])
@pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
def test_hint_loss_rejects_depth_that_is_not_2d(fn, shape):
    with pytest.raises(LossError, match="2-D"):
        fn(np.ones(shape), np.ones(shape))


@pytest.mark.parametrize("call, error", [
    (lambda: LossWeights(lam_h=-1.0), "lam_h must be >= 0"),
    (lambda: LossWeights(gamma=1.5), r"gamma must lie in \[0, 1\]"),
    (lambda: LossWeights(gamma=-0.1), r"gamma must lie in \[0, 1\]"),
    (lambda: losses.total_depth_loss(np.nan, 0.0, 0.0, 0.0),
     "non-finite loss component"),
    (lambda: losses.total_seg_loss(np.inf, 0.0), "non-finite loss component"),
    (lambda: losses.total_loss(0.0, np.nan), "non-finite loss component"),
], ids=["negative-weight", "gamma-above-1", "gamma-below-0",
        "total-depth-nan", "total-seg-inf", "total-nan"])
def test_rejects_invalid_weights_and_totals(call, error):
    with pytest.raises(LossError, match=error):
        call()
