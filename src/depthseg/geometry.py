"""Pinhole camera model, disparity/depth conversion, projective warping and
flip-based post-processing.

All images are numpy arrays of shape (H, W) or (H, W, C); depth maps are
(H, W) float arrays in meters. Sample-coordinate fields are (H, W, 2) arrays
holding (u, v) = (column, row) positions into the source image.

Cost model of the warp path: each kernel is a chain of full-frame passes,
so the cost is their number. ``project`` back-projects through per-row and
per-column factors and applies the pose one rotation row at a time, so it
makes no pixel grid, point cloud or matrix product. It skips every term
whose coefficient is exactly 0, multiplies by no coefficient of exactly 1
and adds no zero translation, none of which rounds: a rectified stereo pose
costs one product per coordinate. u and v are written in place into two
contiguous planes. Every resampler has one edge rule: it pads its source
once with its last row and column repeated, so each +1 neighbor of a
position inside the image lies in the array and equals the clamped pixel,
signed zeros included. One private sampler serves ``bilinear_sample`` and
``warp``: it forms one flat index into the padded source per sample, exact
in float64 and cast once, and gathers the four neighbors through it at
offsets 0, 1, W+1 and W+2. It weights one channel without a channel axis,
and sums the four weighted gathers in place, in the order of the formula,
through one scratch buffer. It zeroes the invalid samples once.
``bilinear_sample`` hands it masked copies of the caller's positions;
``warp`` hands it ``project``'s planes themselves, which are already
inside the source where valid and 0 elsewhere. A float32 sample is half
the bytes of a float64 one: at 192x640 the traced peak of a stereo warp
is about 6.8 H*W*8 bytes for a float32 source and 8.7 for any other.
``upsample_bilinear`` to the input's own shape is a float32
cast, since every weight is exactly 1 or 0. Otherwise it is row-factored:
it applies the column weights at the padded input's rows, then gathers
whole output rows of those products, weights them by row and sums the four
terms in place. It never builds a coordinate field, and each pixel still
gets the general sampler's arithmetic, (s*gu)*gv summed in the formula's
order, since a gather moves values and does no arithmetic.
``disparity_to_depth`` converts in one buffer.

Precision. ``project``, every valid mask and ``upsample_bilinear``
compute in float64, and the sampler's positions are float64.
``bilinear_sample`` and ``warp`` sample in their source's precision and
return float32 either way. A float32 source is checked and padded as it
is; the fractional parts of the positions are rounded once to float32,
and the weights, gathers, products and sums are float32, so each sample
is the direct formula evaluated in float32. It lies within
4 * 2**-24 * max|src| of the float64 sample cast to float32: the rounding
of the weights, products and sums bounds it by about 10, and 36 million
samples, of sources of mixed magnitudes at positions whose fractional
parts lie near 0 and 1, read 3.94 at most. A source of any other dtype is
converted to float64 and sampled in float64, and its float32 output is
the float64 sum rounded once.

The module also holds private helpers the other modules share: the
8-neighborhood offsets, as flat steps into a padded array for the
refinement wavefronts; one 3x3 window reduction, the SSIM box sum with
``np.add`` and the synthetic depth bleed with ``np.minimum``; and one check
per array input rule, each raising the caller's error class: the
non-empty, finite (and optionally positive) map check, the equal-shape
check, the one image check, which makes an (H, W, C) array that keeps a
float32 image as it is and converts any other to float64, and its float64
form, which checks first and casts after, the depth-map check that also
makes a 2-D float64 map, and the label check that also casts labels to
integers, whose float labels must be finite whole numbers within int32.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid camera/pose parameters or inputs."""


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx,
                                              self.cy)):
            raise GeometryError("camera intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive")


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping target-frame points into the source frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise GeometryError("rotation must be 3x3")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-6):
            raise GeometryError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise GeometryError("rotation determinant must be +1")
        if not np.isfinite(t).all():
            raise GeometryError("translation must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def stereo_baseline(cls, baseline: float) -> "Pose":
        """Left-to-right pose for a rectified pair with the source camera a
        positive ``baseline`` to the right of the target camera."""
        return cls(np.eye(3), np.array([-baseline, 0.0, 0.0]))


@dataclass(frozen=True)
class DepthParams:
    """Coefficients of the sigmoid-disparity to depth map d = 1/(c1*s + c2)."""

    c1: float
    c2: float

    def __post_init__(self):
        # a NaN fails both comparisons, so it is rejected too
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):
            raise GeometryError("c1 and c2 must be positive and finite")


def disparity_to_depth(sigma: np.ndarray, params: DepthParams) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    # a NaN fails both comparisons, so it is rejected too
    if sigma.size and not (0.0 <= sigma.min() and sigma.max() <= 1.0):
        raise GeometryError("disparity values must lie in [0, 1]")
    # c1*sigma + c2, then its reciprocal, in one buffer
    depth = np.multiply(params.c1, sigma, out=np.empty_like(sigma))
    depth += params.c2
    return np.divide(1.0, depth, out=depth)


# the 8-neighborhood in raster order; the center is excluded (it is never
# confident while the pixel itself is unreliable)
_NEIGHBOR_OFFSETS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                          if (dr, dc) != (0, 0))


def _flat_offsets(width: int) -> np.ndarray:
    """The ``_NEIGHBOR_OFFSETS`` as steps into a flattened array of row
    length ``width``, in the same raster order. In an image padded by one
    pixel on every side, no step from an image pixel leaves the padded
    array or wraps onto another row."""
    return np.array([dr * width + dc for dr, dc in _NEIGHBOR_OFFSETS],
                    dtype=np.intp)


def _window3(x: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``op`` reduced over each pixel's 3x3 window of in-image pixels of an
    (H, W) or (H, W, C) array, into a new C-contiguous array. A 3-tap pass
    combines the tap before each position with the position, then with the
    tap after it: down the rows, then along the row results read as one
    flat (H*W, C) array, so each shift is contiguous. The first and last
    columns, whose flat taps wrapped onto a neighboring row, are combined
    again from the row results in the same order."""
    h, w = x.shape[:2]
    rows = np.empty_like(x, order="C")
    out = np.empty_like(x, order="C")
    for src, dst in ((x, rows),
                     (rows.reshape(h * w, -1), out.reshape(h * w, -1))):
        op(src[:-1], src[1:], out=dst[1:])
        dst[0] = src[0]
        op(dst[:-1], src[1:], out=dst[:-1])
    for j in {0, w - 1}:
        col = out[:, j]
        np.copyto(col, rows[:, j])
        if j > 0:
            op(rows[:, j - 1], col, out=col)
        if j + 1 < w:
            op(col, rows[:, j + 1], out=col)
    return out


def _check_map(arr: np.ndarray, error: type[Exception], message: str,
               low: float = -np.inf) -> tuple:
    """Raise ``error(message)`` unless ``arr`` is non-empty and every value
    lies strictly between ``low`` and +inf; ``low=0`` asks for a positive
    map. Returns the min and max. They propagate NaN, so no temporary mask
    is made."""
    if arr.size == 0:
        raise error(message)
    lo, hi = arr.min(), arr.max()
    if not (low < lo and hi < np.inf):
        raise error(message)
    return lo, hi


def _same_shape(error: type[Exception], *arrays):
    """Raise ``error`` naming the shapes unless all ``arrays`` have one."""
    shapes = {np.shape(a) for a in arrays}
    if len(shapes) != 1:
        raise error(f"shape mismatch: {sorted(shapes)}")


def _as_labels(labels: np.ndarray, error: type[Exception],
               dtype=np.int32) -> np.ndarray:
    """A non-empty ``labels`` array cast to ``dtype``, an integer type at
    least as wide as int32, so that the cast changes no value. Float labels
    must be finite whole numbers that fit in int32, and integer labels of a
    type that does not cast safely must fit in ``dtype``; labels that cast
    safely are cast unchecked."""
    if labels.dtype.kind == "f":
        # compared as Python floats: 2**31 overflows a float16
        if not (-2.0 ** 31 <= float(labels.min())
                and float(labels.max()) < 2.0 ** 31):
            raise error("labels must be finite and fit in int32")
        if not np.array_equal(labels, np.trunc(labels)):
            raise error("labels must be whole numbers")
    elif not np.can_cast(labels.dtype, dtype):
        info = np.iinfo(dtype)
        if not info.min <= int(labels.min()) <= int(labels.max()) <= info.max:
            raise error(f"labels must fit in {info.dtype}")
    return labels.astype(dtype)


def _as_image(img, error: type[Exception],
              name: str) -> tuple[np.ndarray, bool]:
    """``img`` checked as ``_as_float_image`` does, as a float64 (H, W, C)
    array, and whether it was (H, W)."""
    img, squeeze, _ = _as_float_image(img, error, name)
    return img.astype(np.float64, copy=False), squeeze


def _as_float_image(img, error: type[Exception],
                    name: str) -> tuple[np.ndarray, bool, tuple]:
    """``img`` as a non-empty, finite (H, W, C) array, float32 as it is
    and of any other dtype converted to float64, whether it was (H, W),
    and its min and max."""
    img = np.asarray(img)
    if img.dtype != np.float32:
        img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise error(f"{name} must be (H, W) or (H, W, C), got shape "
                    f"{img.shape}")
    value_range = _check_map(
        img, error, f"{name} must be non-empty and finite (shape {img.shape})")
    if img.ndim == 2:
        return img[:, :, None], True, value_range
    return img, False, value_range


def _as_depth(depth, error: type[Exception]) -> np.ndarray:
    """``depth`` as a non-empty, finite and positive float64 (H, W) map."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise error(f"depth must be 2-D (H, W), got shape {depth.shape}")
    _check_map(depth, error, "depth must be non-empty, finite and positive "
                             f"everywhere (shape {depth.shape})", low=0.0)
    return depth


def load_camera_pose(path) -> tuple[Camera, Pose]:
    """Read ``fx fy cx cy`` followed by 12 numbers (row-major R | t)."""
    with open(path) as f:
        tokens = f.read().split()
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as e:
        raise GeometryError(f"{path}: {e}") from None
    if len(values) != 16:
        raise GeometryError(f"{path}: expected 16 numbers, got {len(values)}")
    cam = Camera(*values[:4])
    rt = np.array(values[4:], dtype=np.float64).reshape(3, 4)
    return cam, Pose(rt[:, :3], rt[:, 3])


def project(depth: np.ndarray, pose: Pose,
            cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Project every target pixel through its depth into the source view.
    Both views have the intrinsics ``cam``.

    Returns (coords, valid): coords is (H, W, 2) with (u, v) sample positions
    in the source image, and 0 where valid is False. It is a view of two
    contiguous (H, W) planes, so not C-contiguous itself. valid is False
    where the projected depth is non-positive or the sample leaves the
    source frame.
    """
    depth = _as_depth(depth, GeometryError)
    h, w = depth.shape
    # target-frame points (x, y, depth): per-column and per-row factors
    # times the depth
    factors = ((np.arange(w, dtype=np.float64) - cam.cx) / cam.fx,
               ((np.arange(h, dtype=np.float64) - cam.cy) / cam.fy)[:, None])
    r, t = pose.rotation, pose.translation
    scratch = (np.empty_like(depth)
               if (np.count_nonzero(r, axis=1) > 1).any() else None)

    def source(i, out):
        """Row i of the pose applied to every point, summed left to right
        in ``out``: r[i, 0]*x + r[i, 1]*y + r[i, 2]*depth + t[i], or the
        depth itself when that is the whole sum. A term whose coefficient
        is exactly 0 is skipped, and a coefficient of exactly 1 multiplies
        nothing. Neither rounds, so at most the sign of an exact-zero
        coordinate differs from the full sum."""
        acc = None
        for j, c in enumerate(r[i]):
            if c == 0:
                continue
            buf = out if acc is None else scratch
            if j == 2:
                term = depth if c == 1 else np.multiply(c, depth, out=buf)
            else:
                term = np.multiply(factors[j], depth, out=buf)
                if c != 1:
                    term *= c
            if acc is None:
                acc = term
            else:
                acc += term
        if t[i] != 0:
            acc = np.add(acc, t[i], out=out)
        return acc

    z = source(2, np.empty_like(depth))
    valid = z > 1e-9
    if not valid.all():
        # the samples behind the camera divide by 1; they are zeroed below
        z = np.where(valid, z, 1.0)
    planes = np.empty((2, h, w))
    inside = np.empty_like(valid)
    for i, (f, c, hi) in enumerate(((cam.fx, cam.cx, w - 1),
                                    (cam.fy, cam.cy, h - 1))):
        plane = planes[i]
        np.multiply(f, source(i, plane), out=plane)
        plane /= z
        plane += c
        valid &= np.greater_equal(plane, 0, out=inside)
        valid &= np.less_equal(plane, hi, out=inside)
    np.copyto(planes, 0.0, where=np.logical_not(valid, out=inside))
    return planes.transpose(1, 2, 0), valid


def bilinear_sample(src: np.ndarray,
                    coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample ``src`` at (u, v) positions. ``coords`` is any
    array whose last axis holds (u, v), such as an (H, W, 2) field or an
    (N, 2) point list; the samples take its leading shape.

    Out-of-bounds samples are masked False and set to 0.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1:] != (2,):
        raise GeometryError("coords must end in an axis of 2 (u, v) "
                            f"positions, got shape {coords.shape}")
    if coords.ndim == 1:
        # one (u, v) point, sampled as a list of one
        out, valid = bilinear_sample(src, coords[None])
        return out[0], valid[0]
    src, squeeze, _ = _as_float_image(src, GeometryError, "source")
    h, w, c = src.shape
    src = _padded(src)
    u = coords[..., 0]
    v = coords[..., 1]
    valid = u >= 0
    inside = np.empty_like(valid)
    valid &= np.less_equal(u, w - 1, out=inside)
    valid &= np.greater_equal(v, 0, out=inside)
    valid &= np.less_equal(v, h - 1, out=inside)
    # an invalid sample reads pixel (0, 0)
    out = _sample(src, np.where(valid, u, 0.0), np.where(valid, v, 0.0),
                  valid)
    return (out[..., 0] if squeeze else out), valid


def _padded(img: np.ndarray) -> np.ndarray:
    """An (H, W, C) image with its last row and column repeated, in its
    own dtype, so that the +1 neighbors of every position inside the image
    lie in the array and equal the clamped pixel, signed zeros included."""
    return np.pad(img, ((0, 1), (0, 1), (0, 0)), mode="edge")


def _sample(src: np.ndarray, u: np.ndarray, v: np.ndarray,
            valid: np.ndarray) -> np.ndarray:
    """Bilinear samples of a ``_padded`` float32 or float64 (H+1, W+1, C)
    ``src`` at the positions ``u`` (columns) and ``v`` (rows), two float64
    arrays of one shape whose values all lie inside the unpadded image, as
    a float32 array of that shape and a trailing axis of C, and 0 where
    ``valid`` is False. The weights, gathers and sums are in ``src``'s
    dtype. ``u`` and ``v`` may be overwritten."""
    h, w, c = src.shape
    dtype = src.dtype
    # the fractional parts, the positions less their float floors (the
    # same as less the integer indices, which convert exactly), are exact
    # in float64 and rounded once to the source's dtype: written over the
    # positions for a float64 source, into new buffers for a float32 one
    u0 = np.floor(u)
    fu = np.subtract(u, u0, out=u if dtype == u.dtype
                     else np.empty(u.shape, dtype))
    v0 = np.floor(v)
    fv = np.subtract(v, v0, out=v if dtype == v.dtype
                     else np.empty(v.shape, dtype))
    # one flat index per sample, v0*w + u0, exact in float64 and cast
    # once; its +1 neighbors are the next entry and the next row of the
    # padded source
    v0 *= w
    v0 += u0
    del u0
    index = v0.astype(np.intp)
    del v0
    gu = 1 - fu
    gv = 1 - fv
    flat = src.reshape(h * w, c)
    if c == 1:
        # one channel is gathered and weighted without a channel axis
        flat = flat[:, 0]
    else:
        fu, fv, gu, gv = (a[..., None] for a in (fu, fv, gu, gv))
    # s00*gu*gv + s01*fu*gv + s10*gu*fv + s11*fu*fv, summed left to right;
    # one buffer holds the last three gathers, whose indices are in range.
    # A float64 sum is cast to float32 once at the end; a float32 one is
    # the output
    out = flat.take(index, axis=0)
    out *= gu
    out *= gv
    s = flat[1:].take(index, axis=0)
    s *= fu
    s *= gv
    out += s
    flat[w:].take(index, axis=0, out=s, mode="clip")
    s *= gu
    s *= fv
    out += s
    flat[w + 1:].take(index, axis=0, out=s, mode="clip")
    s *= fu
    s *= fv
    out = np.add(out, s, out=out if dtype == np.float32
                 else np.empty(out.shape, np.float32))
    np.copyto(out, 0.0, where=~valid if c == 1 else ~valid[..., None])
    return out[..., None] if c == 1 else out


def warp(src_img: np.ndarray, target_depth: np.ndarray, pose: Pose,
         cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Warp the source image into the target view using the target depth.
    Both views have the depth's height and width."""
    coords, valid = project(target_depth, pose, cam)
    if np.shape(src_img)[:2] != coords.shape[:2]:
        raise GeometryError(f"source image is {np.shape(src_img)[:2]}, not "
                            f"the depth's {coords.shape[:2]}")
    src, squeeze, _ = _as_float_image(src_img, GeometryError, "source")
    src = _padded(src)
    # project's positions are inside the source where valid and 0
    # elsewhere, so the sampler consumes them as they are
    out = _sample(src, coords[..., 0], coords[..., 1], valid)
    return (out[..., 0] if squeeze else out), valid


def flip_postprocess(d: np.ndarray, d_flipped: np.ndarray) -> np.ndarray:
    """Blend a prediction with the mirrored prediction of the mirrored input.

    Left/right 5%-width linear border ramps favor the prediction whose border
    was the image interior; elsewhere the two are averaged.
    """
    d = np.asarray(d, dtype=np.float64)
    m = np.asarray(d_flipped, dtype=np.float64)
    _same_shape(GeometryError, d, m)
    if d.ndim != 2:
        raise GeometryError("flip_postprocess requires 2-D maps")
    m = m[:, ::-1]
    for arr in (d, m):
        _check_map(arr, GeometryError,
                   "flip_postprocess requires non-empty, finite maps")
    h, w = d.shape
    ramp = np.linspace(0.0, 1.0, w)[None, :]
    l_mask = 1.0 - np.clip(20.0 * (ramp - 0.05), 0.0, 1.0)
    r_mask = l_mask[:, ::-1]
    out = r_mask * d + l_mask * m + (1.0 - l_mask - r_mask) * 0.5 * (d + m)
    return out


def downsample2x_area(img: np.ndarray) -> np.ndarray:
    """2x area (box) downsampling; H and W must be even."""
    img, squeeze = _as_image(img, GeometryError, "image")
    h, w, c = img.shape
    if h % 2 or w % 2:
        raise GeometryError("downsample2x_area requires even dimensions")
    out = img.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
    out = out.astype(np.float32)
    return out[:, :, 0] if squeeze else out


def upsample_bilinear(img: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize to (H, W) with bilinear interpolation, corners aligned."""
    img, squeeze = _as_image(img, GeometryError, "image")
    h_in, w_in, _ = img.shape
    try:
        h_out, w_out = (operator.index(n) for n in shape)
    except (TypeError, ValueError):
        raise GeometryError(f"output shape must be two ints, got {shape!r}"
                            ) from None
    if h_out < 1 or w_out < 1:
        raise GeometryError(f"output shape must be positive, got {shape!r}")
    if (h_out, w_out) == (h_in, w_in):
        # every weight is exactly 1 or 0, so the values are the input's.
        # Only a -0.0 can differ: it stays -0.0, where the formula adds a
        # neighbor's +0.0 product to it
        out = img.astype(np.float32)
        return out[:, :, 0] if squeeze else out
    v = (np.linspace(0, h_in - 1, h_out) if h_out > 1 else np.zeros(1))
    u = (np.linspace(0, w_in - 1, w_out) if w_out > 1 else np.zeros(1))
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    fu = (u - u0)[None, :, None]
    fv = (v - v0)[:, None, None]
    gv = 1 - fv
    # the general sampler's formula s00*gu*gv + s01*fu*gv + s10*gu*fv +
    # s11*fu*fv: the column weights applied at the input's rows, then
    # whole rows gathered (which moves values and does no arithmetic),
    # weighted and summed left to right. The +1 neighbors of the last row
    # and column are the padded input's repeats. The indices are in range,
    # so clip mode changes none and lets take write to its out without a
    # buffer
    img = _padded(img)
    left = img[:, u0]
    left *= 1 - fu
    right = img[:, u0 + 1]
    right *= fu
    acc = left.take(v0, axis=0)
    acc *= gv
    term = right.take(v0, axis=0)
    term *= gv
    acc += term
    left.take(v0 + 1, axis=0, out=term, mode="clip")
    del left
    term *= fv
    acc += term
    right.take(v0 + 1, axis=0, out=term, mode="clip")
    del right
    term *= fv
    out = np.add(acc, term, out=np.empty(acc.shape, np.float32))
    return out[:, :, 0] if squeeze else out
