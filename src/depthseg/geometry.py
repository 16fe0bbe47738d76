"""Pinhole camera model, disparity/depth conversion, projective warping and
flip-based post-processing.

All images are numpy arrays of shape (H, W) or (H, W, C); depth maps are
(H, W) float arrays in meters. Sample-coordinate fields are (H, W, 2) arrays
holding (u, v) = (column, row) positions into the source image.

Cost model of the warp path. ``project`` back-projects through per-row and
per-column factors and applies the pose one rotation row at a time, so it
makes no pixel grid, point cloud or matrix product. ``bilinear_sample``
gathers the four neighbors of each sample through one flat index into the
source. ``upsample_bilinear`` is separable: it gathers whole rows, then
columns, and never builds a coordinate field. Each pixel still gets the
same arithmetic as the general sampler.

The module also holds private helpers the other modules share: the
8-neighborhood offsets, as flat steps into a padded array for the
refinement wavefronts, and the non-empty, finite (and optionally positive)
map check of every array entry point.
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
        if not (self.c1 > 0 and self.c2 > 0):
            raise GeometryError("c1 and c2 must be positive")


def disparity_to_depth(sigma: np.ndarray, params: DepthParams) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    # a NaN fails both comparisons, so it is rejected too
    if sigma.size and not (0.0 <= sigma.min() and sigma.max() <= 1.0):
        raise GeometryError("disparity values must lie in [0, 1]")
    return 1.0 / (params.c1 * sigma + params.c2)


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


def _check_map(arr: np.ndarray, error: type[Exception], message: str,
               low: float = -np.inf):
    """Raise ``error(message)`` unless ``arr`` is non-empty and every value
    lies strictly between ``low`` and +inf; ``low=0`` asks for a positive
    map. min and max propagate NaN, so no temporary mask is made."""
    if arr.size == 0 or not (low < arr.min() and arr.max() < np.inf):
        raise error(message)


def _as_resample_input(img, name: str) -> tuple[np.ndarray, bool]:
    """``img`` as a non-empty float64 (H, W, C) array, and whether it was
    (H, W)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise GeometryError(f"{name} must be (H, W) or (H, W, C), got shape "
                            f"{img.shape}")
    if img.size == 0:
        raise GeometryError(f"{name} is empty: shape {img.shape}")
    if img.ndim == 2:
        return img[:, :, None], True
    return img, False


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
    in the source image; valid is False where the projected depth is
    non-positive or the sample leaves the source frame.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise GeometryError("depth must be a 2D map")
    _check_map(depth, GeometryError,
               "depth must be finite and positive everywhere", low=0.0)
    h, w = depth.shape
    # target-frame points (x, y, depth): per-column and per-row factors
    x = ((np.arange(w, dtype=np.float64) - cam.cx) / cam.fx) * depth
    y = ((np.arange(h, dtype=np.float64) - cam.cy) / cam.fy)[:, None] * depth
    r, t = pose.rotation, pose.translation

    def source(i):
        return r[i, 0] * x + r[i, 1] * y + r[i, 2] * depth + t[i]

    z = source(2)
    valid = z > 1e-9
    z_safe = np.where(valid, z, 1.0)
    coords = np.zeros((h, w, 2))
    u_s = cam.fx * source(0) / z_safe + cam.cx
    v_s = cam.fy * source(1) / z_safe + cam.cy
    valid &= (u_s >= 0) & (u_s <= w - 1) & (v_s >= 0) & (v_s <= h - 1)
    np.copyto(coords[..., 0], u_s, where=valid)
    np.copyto(coords[..., 1], v_s, where=valid)
    return coords, valid


def bilinear_sample(src: np.ndarray,
                    coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample ``src`` at (u, v) positions.

    Out-of-bounds samples are masked False and set to 0.
    """
    src, squeeze = _as_resample_input(src, "source")
    h, w, c = src.shape
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1:] != (2,):
        raise GeometryError("coords must end in an axis of 2 (u, v) "
                            f"positions, got shape {coords.shape}")
    u = coords[..., 0]
    v = coords[..., 1]
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    # one flat index per sample; the +1 neighbors stay on the last column
    # and row
    flat = src.reshape(h * w, c)
    i00 = v0 * w + u0
    du = u0 < w - 1
    dv = (v0 < h - 1) * w
    out = (flat.take(i00, axis=0) * (1 - fu) * (1 - fv)
           + flat.take(i00 + du, axis=0) * fu * (1 - fv)
           + flat.take(i00 + dv, axis=0) * (1 - fu) * fv
           + flat.take(i00 + du + dv, axis=0) * fu * fv)
    out = np.where(valid[..., None], out, 0.0).astype(np.float32)
    if squeeze:
        out = out[:, :, 0]
    return out, valid


def warp(src_img: np.ndarray, target_depth: np.ndarray, pose: Pose,
         cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Warp the source image into the target view using the target depth.
    Both views have the depth's height and width."""
    coords, proj_valid = project(target_depth, pose, cam)
    if np.shape(src_img)[:2] != coords.shape[:2]:
        raise GeometryError(f"source image is {np.shape(src_img)[:2]}, not "
                            f"the depth's {coords.shape[:2]}")
    out, sample_valid = bilinear_sample(src_img, coords)
    valid = proj_valid & sample_valid
    if out.ndim == 2:
        out = np.where(valid, out, 0.0).astype(np.float32)
    else:
        out = np.where(valid[..., None], out, 0.0).astype(np.float32)
    return out, valid


def flip_postprocess(d: np.ndarray, d_flipped: np.ndarray) -> np.ndarray:
    """Blend a prediction with the mirrored prediction of the mirrored input.

    Left/right 5%-width linear border ramps favor the prediction whose border
    was the image interior; elsewhere the two are averaged.
    """
    d = np.asarray(d, dtype=np.float64)
    m = np.asarray(d_flipped, dtype=np.float64)[:, ::-1]
    if d.shape != m.shape or d.ndim != 2:
        raise GeometryError("flip_postprocess requires equal-shape 2D maps")
    h, w = d.shape
    ramp = np.linspace(0.0, 1.0, w)[None, :]
    l_mask = 1.0 - np.clip(20.0 * (ramp - 0.05), 0.0, 1.0)
    r_mask = l_mask[:, ::-1]
    out = r_mask * d + l_mask * m + (1.0 - l_mask - r_mask) * 0.5 * (d + m)
    return out


def downsample2x_area(img: np.ndarray) -> np.ndarray:
    """2x area (box) downsampling; H and W must be even."""
    img, squeeze = _as_resample_input(img, "image")
    h, w, c = img.shape
    if h % 2 or w % 2:
        raise GeometryError("downsample2x_area requires even dimensions")
    out = img.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
    out = out.astype(np.float32)
    return out[:, :, 0] if squeeze else out


def upsample_bilinear(img: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize to (H, W) with bilinear interpolation, corners aligned."""
    img, squeeze = _as_resample_input(img, "image")
    h_in, w_in, _ = img.shape
    try:
        h_out, w_out = (operator.index(n) for n in shape)
    except (TypeError, ValueError):
        raise GeometryError(f"output shape must be two ints, got {shape!r}"
                            ) from None
    if h_out < 1 or w_out < 1:
        raise GeometryError(f"output shape must be positive, got {shape!r}")
    v = (np.linspace(0, h_in - 1, h_out) if h_out > 1 else np.zeros(1))
    u = (np.linspace(0, w_in - 1, w_out) if w_out > 1 else np.zeros(1))
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    u1 = np.minimum(u0 + 1, w_in - 1)
    v1 = np.minimum(v0 + 1, h_in - 1)
    fu = (u - u0)[None, :, None]
    fv = (v - v0)[:, None, None]
    # the general sampler's formula, with one gather per axis
    top = img[v0]
    bottom = img[v1]
    out = (top[:, u0] * (1 - fu) * (1 - fv) + top[:, u1] * fu * (1 - fv)
           + bottom[:, u0] * (1 - fu) * fv + bottom[:, u1] * fu * fv)
    out = out.astype(np.float32)
    return out[:, :, 0] if squeeze else out
