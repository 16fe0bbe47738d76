"""Self-supervised loss suite: SSIM/L1 photometric loss, log-residual depth
supervision, edge-aware smoothness, cross-entropy, weighted totals, the
multi-scale photometric average, and shared-parameter gradient combination.

SSIM uses a ``SSIM_WINDOW`` x ``SSIM_WINDOW`` (3x3) box window and
Monodepth2's stabilizers ``SSIM_C1`` = 0.01**2 and ``SSIM_C2`` = 0.03**2.
Each window mean divides the sum of the window's in-image taps by their
number: 9 inside the image, 6 on an edge and 4 at a corner. It is not a
zero-padded 9-tap mean, nor Monodepth2's reflection-padded one, and
``1 - SSIM`` is not clamped.

Analytic per-pixel gradients are provided for the differentiable losses so
they can be checked against finite differences. Each loss and its gradient
validate their inputs through one shared helper, so both reject the same
inputs.

Precision. The SSIM/L1 photometric kernels (``ssim_map``,
``photometric_loss``, its gradient and ``multiscale_photometric``) run in
float32 when both images are float32 and every value lies in [-1, 1], the
dynamic range L = 1 that ``SSIM_C1`` = (0.01 L)**2 and ``SSIM_C2`` are set
for, as Monodepth2's do; the SSIM map and the gradient are then float32.
Float64 images, images of two dtypes and float32 images with a value
outside [-1, 1] are computed in float64, with the bits of their float64
cast; so is every other loss. The range is read from the min and max of
the finiteness check, and a float32 image is not copied. Gradient checks
use float64 images, so that their central differences stay meaningful.

Cost model. An SSIM box sum, ``geometry._window3`` with ``np.add``, is
O(HW) direct adds: a zero-padded 3-tap sum down the rows, then along the
columns as one flat (H*W, C) array, each tap a contiguous in-place pass,
then the first and last columns again, whose taps wrapped onto a
neighboring row. The window pixel counts come in closed form and are held
as uint8, since dividing by them gives the bits of dividing by their
float values. The target image's window mean and variance are one unit
of work, which the SSIM terms take as given or compute. The terms form
``mu_b**2`` and ``mu_a*mu_b`` once each and share them, multiply the
images into one product buffer, turn the moments into variances and the
covariance in place, and write ``d1`` and ``d2`` over the warped image's
terms. ``mu_a**2`` is formed again for ``d1`` rather than held, which keeps
the multi-scale loss's peak memory down. A mean over a single channel is
that channel's view. The gradient forms ``d1*d2`` once and writes each
partial derivative over a term it no longer reads. The photometric loss
builds its per-pixel terms in place and averages the valid pixels through
a boolean index. Every temporary of these kernels has the images' dtype,
so float32 images move half the bytes of float64 ones: at 192x640 the
traced peaks of ``ssim_map`` and the gradient are about 4.1 and 5.1
H*W*8 bytes for float32 images and 8.1 and 10.1 for float64 ones. The
multi-scale loss checks both images once, converts the target once and
the source not at all, and computes the target's window terms once for
its four scales; each scale runs the public upsample, depth conversion
and warp, then the private photometric kernel on the warp's float32
output, cast to float64 only on the float64 path. The warps work in
float64 whatever the images' dtype, so they set its peak (about 11.1 for
float32 images, 12.1 for float64). It holds no scale's depth or warp into
the next. The hint loss with no mask averages every pixel, with no all-true
mask. Cross-entropy with integer labels reads and writes only each pixel's
labelled probability, one flat gather of H*W entries, not an (H, W, K)
one-hot map; its sum-to-one check is one ``einsum`` over the class axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry


class LossError(ValueError):
    """Invalid loss inputs."""


@dataclass(frozen=True)
class LossWeights:
    """Loss term weights. Defaults are the first-phase training values:
    refined-map supervision and smoothness start disabled.

    Every field is read by a loss: ``gamma`` by the photometric loss and its
    gradient, the ``lam_*`` weights by ``total_depth_loss`` and
    ``total_seg_loss``, and ``beta1``/``beta2`` by ``total_loss``. The
    shared-gradient mix takes its ``alpha`` as an argument of
    ``combine_shared_gradients``."""

    beta1: float = 1.0
    beta2: float = 1.0
    lam_pe: float = 1.0
    lam_h: float = 1.0
    lam_rfd: float = 0.0
    lam_s: float = 0.0
    lam_ps: float = 1.0
    lam_rfs: float = 0.0
    gamma: float = 0.85

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise LossError(f"{name} must be finite")
        for name in ("beta1", "beta2", "lam_pe", "lam_h", "lam_rfd", "lam_s",
                     "lam_ps", "lam_rfs"):
            if getattr(self, name) < 0:
                raise LossError(f"{name} must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise LossError("gamma must lie in [0, 1]")


SSIM_WINDOW = 3
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _photometric_image(img) -> tuple[np.ndarray, bool]:
    """``img`` checked as ``geometry._as_image`` checks it, as an (H, W, C)
    array, and whether it is float32 with every value in [-1, 1], the
    dynamic range that ``SSIM_C1`` and ``SSIM_C2`` are set for. A float32
    image is returned as it is, any other converted to float64."""
    img = np.asarray(img)
    if img.dtype != np.float32:
        img = np.asarray(img, dtype=np.float64)
    img, _, (lo, hi) = geometry._checked_image(img, LossError, "images")
    return img, img.dtype == np.float32 and -1.0 <= lo and hi <= 1.0


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both images as (H, W, C) arrays of one shape and one dtype: float32
    when both are float32 images in [-1, 1], else float64."""
    a, a_fast = _photometric_image(a)
    b, b_fast = _photometric_image(b)
    geometry._same_shape(LossError, a, b)
    if a_fast and b_fast:
        return a, b
    return a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)


def _valid_mask(mask, shape: tuple) -> np.ndarray:
    """The boolean mask of the pixels a loss averages over; None selects
    every pixel. At least one pixel must be selected."""
    if mask is None:
        mask = np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise LossError(f"mask shape {mask.shape} does not match {shape}")
    if not mask.any():
        raise LossError("all pixels are masked out")
    return mask


def _box_sum(x: np.ndarray) -> np.ndarray:
    """Zero-padded box sum over the SSIM window of an (H, W, C) array
    (self-adjoint), into a new C-contiguous array."""
    return geometry._window3(x, np.add)


def _window_counts(n: int) -> np.ndarray:
    """How many of the SSIM window's taps along an axis of length ``n`` fall
    inside it, per position."""
    r = SSIM_WINDOW // 2
    i = np.arange(n)
    return np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1


def _target_terms(a: np.ndarray):
    """The target's SSIM window terms: the window pixel counts, as a uint8
    (H, W, 1) array (at most 9, and dividing by them gives the bits of
    dividing by their values in the images' dtype), the window mean and
    the window variance E[a^2] - mu_a^2."""
    h, w, _ = a.shape
    count = (_window_counts(h)[:, None]
             * _window_counts(w)).astype(np.uint8)[:, :, None]
    mu_a = _box_sum(a)
    mu_a /= count
    var_a = _box_sum(np.square(a))
    var_a /= count
    var_a -= np.square(mu_a)
    return count, mu_a, var_a


def _ssim_terms(a, b, target=None):
    """The window pixel counts, the means and SSIM's numerator and
    denominator factors: SSIM = (n1 * n2) / (d1 * d2). ``target`` is
    ``_target_terms(a)``, computed here when not given; it is only read."""
    count, mu_a, var_a = _target_terms(a) if target is None else target

    def window_mean(x):
        mean = _box_sum(x)
        mean /= count
        return mean

    mu_b = window_mean(b)
    # the second moments, one product buffer for both
    prod = np.multiply(b, b)
    var_b = window_mean(prod)
    cov = window_mean(np.multiply(a, b, out=prod))
    del prod
    # 2 * mu_a * mu_b below is 2 * (mu_a * mu_b): doubling is exact, so
    # it does not matter which product it follows
    n1 = mu_a * mu_b
    cov -= n1
    n1 *= 2
    n1 += SSIM_C1
    n2 = cov
    n2 *= 2
    n2 += SSIM_C2
    # d1 and d2 in the buffers of mu_b^2 and var_b; addition commutes
    d1 = np.square(mu_b)
    var_b -= d1
    d1 += np.square(mu_a)
    d1 += SSIM_C1
    d2 = np.add(var_a, var_b, out=var_b)
    d2 += SSIM_C2
    return count, mu_a, mu_b, n1, n2, d1, d2


def _channel_mean(x: np.ndarray) -> np.ndarray:
    """The mean over the channels of an (H, W, C) array; the mean of one
    channel is that channel, bit for bit, and is returned as a view."""
    return x[:, :, 0] if x.shape[2] == 1 else x.mean(axis=2)


def _ssim(a, b, target=None) -> np.ndarray:
    """Per-pixel, per-channel SSIM, (H, W, C)."""
    *_, n1, n2, d1, d2 = _ssim_terms(a, b, target)
    ssim = np.multiply(n1, n2, out=n1)
    ssim /= np.multiply(d1, d2, out=d1)
    return ssim


def ssim_map(a, b) -> np.ndarray:
    """Per-pixel structural similarity, averaged over channels."""
    a, b = _pair(a, b)
    return _channel_mean(_ssim(a, b))


def _photometric(a, b, mask, w: LossWeights, target=None) -> float:
    """``photometric_loss`` of checked (H, W, C) images of one dtype and a
    checked mask; ``target`` as for ``_ssim_terms``."""
    # each term built in place; the boolean index selects the pixels of
    # mask, in raster order
    per_pixel = _channel_mean(_ssim(a, b, target))
    np.subtract(1.0, per_pixel, out=per_pixel)
    per_pixel *= w.gamma / 2.0
    l1 = np.subtract(a, b)
    l1 = _channel_mean(np.abs(l1, out=l1))
    l1 *= 1.0 - w.gamma
    per_pixel += l1
    return float(per_pixel[mask].mean())


def photometric_loss(img_t, img_st, mask=None,
                     w: LossWeights = LossWeights()) -> float:
    """gamma/2 * (1 - SSIM) + (1 - gamma) * L1, averaged over valid pixels."""
    a, b = _pair(img_t, img_st)
    return _photometric(a, b, _valid_mask(mask, a.shape[:2]), w)


def photometric_loss_grad(img_t, img_st, mask=None,
                          w: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic gradient of photometric_loss w.r.t. the warped image."""
    a, b = _pair(img_t, img_st)
    mask = _valid_mask(mask, a.shape[:2])
    n_valid = np.count_nonzero(mask)
    channels = a.shape[2]
    # upstream gradient into the per-pixel, per-channel SSIM values,
    # (H, W, 1) for every channel
    g_pix = mask.astype(a.dtype)
    g_pix /= n_valid
    g_ssim = (-w.gamma / 2.0 / channels) * g_pix[:, :, None]
    count, mu_a, mu_b, n1, n2, d1, d2 = _ssim_terms(a, b)
    # the chain rule through ssim = (n1 * n2) / (d1 * d2), each gradient
    # in place of a term that is not read again
    den = d1 * d2
    ssim = n1 * n2
    ssim /= den
    g_n1 = np.multiply(g_ssim, n2, out=n2)
    g_n1 /= den
    g_n2 = np.multiply(g_ssim, n1, out=n1)
    g_n2 /= den
    del den
    np.negative(g_ssim, out=g_ssim)
    ssim *= g_ssim
    g_d1 = np.divide(ssim, d1, out=d1)
    g_d2 = np.divide(ssim, d2, out=d2)
    del ssim
    # n2 = 2 cov + C2, d2 = var_a + var_b + C2, var_b = E[b^2] - mu_b^2
    g_cov = g_n2
    g_cov *= 2.0
    g_var_b = g_d2
    # g_mu_b = g_n1*2*mu_a + g_d1*2*mu_b - g_cov*mu_a - g_var_b*2*mu_b
    g_mu_b = g_n1
    g_mu_b *= 2.0
    g_mu_b *= mu_a
    g_d1 *= 2.0
    g_d1 *= mu_b
    g_mu_b += g_d1
    g_mu_b -= np.multiply(g_cov, mu_a, out=mu_a)
    g_d1 = np.multiply(g_var_b, 2.0, out=g_d1)
    g_d1 *= mu_b
    g_mu_b -= g_d1
    del mu_a, mu_b, g_d1
    # back through the window means: E[b^2] and E[ab] pick up their
    # per-pixel products' derivatives 2b and a
    g_mu_b /= count
    grad = _box_sum(g_mu_b)
    del g_mu_b
    g_var_b /= count
    term = _box_sum(g_var_b)
    term *= 2.0
    term *= b
    grad += term
    g_cov /= count
    term = _box_sum(g_cov)
    term *= a
    grad += term
    l1 = np.subtract(b, a, out=term)
    np.sign(l1, out=l1)
    l1 *= (1.0 - w.gamma) / channels
    l1 *= g_pix[:, :, None]
    grad += l1
    return grad


def _hint_inputs(pred_depth, target_depth, mask):
    """Predicted and target depth as float64 maps of one shape, finite and
    positive everywhere, with the mask of the pixels to average over."""
    geometry._same_shape(LossError, pred_depth, target_depth)
    pred = geometry._as_depth(pred_depth, LossError)
    target = geometry._as_depth(target_depth, LossError)
    if mask is not None:
        mask = _valid_mask(mask, pred.shape)
    return pred, target, mask


def hint_loss(pred_depth, target_depth, mask=None) -> float:
    """Mean log(1 + |residual|) against an externally supplied or refined
    depth target."""
    pred, target, mask = _hint_inputs(pred_depth, target_depth, mask)
    # in C order, so that with no mask the mean sums the pixels in raster
    # order, as the boolean index of a mask lists them
    per_pixel = np.log1p(np.abs(np.subtract(pred, target, order="C")))
    return float((per_pixel if mask is None else per_pixel[mask]).mean())


def hint_loss_grad(pred_depth, target_depth, mask=None) -> np.ndarray:
    """Analytic gradient of hint_loss w.r.t. the predicted depth."""
    pred, target, mask = _hint_inputs(pred_depth, target_depth, mask)
    resid = pred - target
    n = resid.size if mask is None else np.count_nonzero(mask)
    grad = np.sign(resid) / (1.0 + np.abs(resid)) / n
    return grad if mask is None else np.where(mask, grad, 0.0)


def _smoothness_terms(disp, img):
    disp = np.asarray(disp, dtype=np.float64)
    img, _ = geometry._as_image(img, LossError, "images")
    geometry._same_shape(LossError, disp, img[:, :, 0])
    geometry._check_map(disp, LossError, "disparity must be finite")
    if min(disp.shape) < 2:
        # a 1-pixel axis has no forward difference to average
        raise LossError(f"smoothness needs at least 2x2 pixels, got shape "
                        f"{disp.shape}")
    mean = disp.mean()
    if mean <= 0:
        raise LossError("disparity mean must be positive")
    norm = disp / mean
    gx = norm[:, 1:] - norm[:, :-1]
    gy = norm[1:, :] - norm[:-1, :]
    ix = _channel_mean(np.abs(img[:, 1:] - img[:, :-1]))
    iy = _channel_mean(np.abs(img[1:, :] - img[:-1, :]))
    return disp, mean, norm, gx, gy, np.exp(-ix), np.exp(-iy)


def smoothness_loss(disp, img) -> float:
    """Edge-aware smoothness of the mean-normalized disparity (forward
    differences; the last row/column of each direction is excluded)."""
    _, _, _, gx, gy, wx, wy = _smoothness_terms(disp, img)
    return float((np.abs(gx) * wx).mean() + (np.abs(gy) * wy).mean())


def smoothness_loss_grad(disp, img) -> np.ndarray:
    """Analytic gradient of smoothness_loss w.r.t. the disparity map."""
    disp, mean, norm, gx, gy, wx, wy = _smoothness_terms(disp, img)
    g_gx = np.sign(gx) * wx / gx.size
    g_gy = np.sign(gy) * wy / gy.size
    g_norm = np.zeros_like(norm)
    g_norm[:, 1:] += g_gx
    g_norm[:, :-1] -= g_gx
    g_norm[1:, :] += g_gy
    g_norm[:-1, :] -= g_gy
    # chain through the normalization by the global mean
    dot = (g_norm * disp).sum()
    return g_norm / mean - dot / (mean ** 2 * disp.size)


_PROB_FLOOR = 1e-7


def _prepare_cross_entropy(target, probs):
    """The target and the probabilities. Integer labels come back as the
    flat (C-order) index of each pixel's labelled entry of ``probs``, a soft
    target as a float64 (H, W, K) array."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3:
        raise LossError("probabilities must be (H, W, K)")
    h, w, k = probs.shape
    if h * w == 0:
        raise LossError("probabilities must cover at least one pixel")
    if k == 0:
        raise LossError("probabilities must have at least one class")
    # one einsum pass over the class axis; max propagates NaN, so a NaN or
    # infinite probability fails the test, and only then is it looked for
    dev = np.einsum("ijk->ij", probs)
    dev -= 1.0
    if not np.abs(dev, out=dev).max() <= 1e-5:
        if not np.isfinite(probs).all():
            raise LossError("probabilities must be finite")
        raise LossError("probability vectors must sum to 1 within 1e-5")
    if probs.min() < 0:
        raise LossError("probabilities must not be negative")
    target = np.asarray(target)
    if target.ndim == 2:
        geometry._same_shape(LossError, target, probs[:, :, 0])
        if not (0 <= target.min() and target.max() < k):
            raise LossError("class ids out of range")
        index = geometry._as_labels(target, LossError, np.intp).ravel()
        index += np.arange(0, h * w * k, k)
        return index, probs
    geometry._same_shape(LossError, target, probs)
    target = np.asarray(target, dtype=np.float64)
    geometry._check_map(target, LossError, "soft target must be finite")
    return target, probs


def cross_entropy(target, probs) -> float:
    """-(1/N) sum target * log(probs), N = number of pixels; probabilities
    are floored at 1e-7 inside the log."""
    target, probs = _prepare_cross_entropy(target, probs)
    n = probs.shape[0] * probs.shape[1]
    if np.issubdtype(target.dtype, np.integer):
        # integer labels: only each pixel's labelled probability counts
        p = probs.take(target)
        return float(-np.log(np.maximum(p, _PROB_FLOOR)).sum() / n)
    return float(-(target * np.log(np.maximum(probs, _PROB_FLOOR))).sum() / n)


def cross_entropy_grad(target, probs) -> np.ndarray:
    """Analytic gradient of cross_entropy w.r.t. the probabilities."""
    target, probs = _prepare_cross_entropy(target, probs)
    n = probs.shape[0] * probs.shape[1]
    if np.issubdtype(target.dtype, np.integer):
        # integer labels: the gradient is zero off each pixel's label. The
        # flat index is in C order, so the gradient is a fresh C-ordered
        # array whatever the layout of ``probs``
        p = probs.take(target)
        grad = np.zeros(probs.shape)
        grad.put(target, np.where(
            p > _PROB_FLOOR, -1.0 / np.maximum(p, _PROB_FLOOR), 0.0) / n)
        return grad
    grad = np.where(probs > _PROB_FLOOR, -target / np.maximum(probs, _PROB_FLOOR),
                    0.0)
    return grad / n


def total_depth_loss(pe: float, hint: float, rfd: float, smooth: float,
                     w: LossWeights = LossWeights()) -> float:
    total = (w.lam_pe * pe + w.lam_h * hint + w.lam_rfd * rfd
             + w.lam_s * smooth)
    if not np.isfinite(total):
        raise LossError("non-finite loss component")
    return float(total)


def total_seg_loss(ps: float, rfs: float,
                   w: LossWeights = LossWeights()) -> float:
    total = w.lam_ps * ps + w.lam_rfs * rfs
    if not np.isfinite(total):
        raise LossError("non-finite loss component")
    return float(total)


def total_loss(depth_loss: float, seg_loss: float,
               w: LossWeights = LossWeights()) -> float:
    total = w.beta1 * depth_loss + w.beta2 * seg_loss
    if not np.isfinite(total):
        raise LossError("non-finite loss component")
    return float(total)


def multiscale_photometric(disparities, img_t, img_s, pose, cam,
                           depth_params,
                           w: LossWeights = LossWeights()) -> float:
    """Mean photometric loss over predictions at 1x, 1/2, 1/4 and 1/8
    resolution; each disparity is upsampled to full resolution before
    conversion and warping."""
    if len(disparities) != 4:
        raise LossError("expected disparity maps at 4 scales")
    img_t, t_fast = _photometric_image(img_t)
    h, w_img = img_t.shape[:2]
    if h < 8 or w_img < 8:
        raise LossError("images must be at least 8x8, so that the 1/8 "
                        f"scale holds a pixel; got {h}x{w_img}")
    # the target checked and converted once for the four scales, and its
    # window terms computed once. The source is checked here and handed to
    # each warp as the caller gave it, so no copy of it is held beside the
    # warp's padded one; the float32 warp is finite where the source is,
    # and lies in [-1, 1] where the source does
    src, s_fast = _photometric_image(img_s)
    geometry._same_shape(LossError, img_t, src)
    del src
    dtype = np.float32 if t_fast and s_fast else np.float64
    img_t = img_t.astype(dtype, copy=False)
    target = _target_terms(img_t)
    losses = []
    for scale, disp in enumerate(disparities):
        disp = np.asarray(disp, dtype=np.float64)
        expected = (h // (1 << scale), w_img // (1 << scale))
        if disp.shape != expected:
            raise LossError(f"scale {scale}: expected shape {expected}, "
                            f"got {disp.shape}")
        depth = geometry.disparity_to_depth(
            geometry.upsample_bilinear(disp, (h, w_img)), depth_params)
        warped, valid = geometry.warp(img_s, depth, pose, cam)
        del depth
        warped = warped.astype(dtype, copy=False).reshape(img_t.shape)
        losses.append(_photometric(img_t, warped,
                                   _valid_mask(valid, (h, w_img)), w, target))
        del warped, valid
    return float(np.mean(losses))


def combine_shared_gradients(g_depth, g_seg, alpha: float) -> np.ndarray:
    """alpha * depth-task gradient + (1 - alpha) * segmentation-task
    gradient, applied inside shared parameters only."""
    g_depth = np.asarray(g_depth, dtype=np.float64)
    g_seg = np.asarray(g_seg, dtype=np.float64)
    geometry._same_shape(LossError, g_depth, g_seg)
    for g in (g_depth, g_seg):
        geometry._check_map(g, LossError,
                            "gradients must be non-empty and finite")
    if not 0.0 <= alpha <= 1.0:
        raise LossError("alpha must lie in [0, 1]")
    return alpha * g_depth + (1.0 - alpha) * g_seg
