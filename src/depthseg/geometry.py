"""Pinhole camera model, disparity/depth conversion, projective warping and
flip-based post-processing.

All images are numpy arrays of shape (H, W) or (H, W, C); depth maps are
(H, W) float arrays in meters. Sample-coordinate fields are (H, W, 2) arrays
holding (u, v) = (column, row) positions into the source image.

The module also holds private helpers the other modules share: the
Chebyshev-neighborhood offsets, as flat steps into a padded array for the
refinement wavefronts and as shifted views for ``synth.corrupt``'s bleed,
and the ``key=value`` text reader behind the scene and loss-weight files.
"""

from __future__ import annotations

import math
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
    if sigma.size and (sigma.min() < 0.0 or sigma.max() > 1.0):
        raise GeometryError("disparity values must lie in [0, 1]")
    return 1.0 / (params.c1 * sigma + params.c2)


def _neighbor_offsets(radius: int) -> list[tuple[int, int]]:
    # raster order; the center is excluded (it is never confident while the
    # pixel itself is unreliable)
    return [(dr, dc)
            for dr in range(-radius, radius + 1)
            for dc in range(-radius, radius + 1)
            if (dr, dc) != (0, 0)]


def _flat_offsets(radius: int, width: int) -> np.ndarray:
    """The ``_neighbor_offsets`` as steps into a flattened array of row
    length ``width``, in the same raster order. In an image padded by
    ``radius`` on every side, no step from an image pixel leaves the
    padded array or wraps onto another row."""
    return np.array([dr * width + dc for dr, dc in _neighbor_offsets(radius)],
                    dtype=np.intp)


def _neighbor_views(arr: np.ndarray, radius: int, fill):
    """Yield, for each offset (dr, dc) in ``_neighbor_offsets`` order, an
    (H, W) view holding every pixel's neighbor at that offset; neighbors
    outside the image read ``fill``. The array is padded once per call.
    ``synth.corrupt``'s bleed reads the whole image this way."""
    h, w = arr.shape
    padded = np.pad(arr, radius, constant_values=fill)
    for dr, dc in _neighbor_offsets(radius):
        yield padded[radius + dr:radius + dr + h, radius + dc:radius + dc + w]


def _key_values(path, error: type[Exception]):
    """Yield (lineno, key, value) for each ``key=value`` line of a text file.

    ``#`` starts a comment, and blank lines are skipped. A line without
    ``=`` raises ``error``.
    """
    with open(path) as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


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


def project(depth: np.ndarray, pose: Pose, cam: Camera,
            cam_src: Camera | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Project every target pixel through its depth into the source view.

    Returns (coords, valid): coords is (H, W, 2) with (u, v) sample positions
    in the source image; valid is False where the projected depth is
    non-positive or the sample leaves the source frame.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise GeometryError("depth must be a 2D map")
    if (depth.size == 0 or not np.all(np.isfinite(depth))
            or depth.min() <= 0):
        raise GeometryError("depth must be finite and positive everywhere")
    if cam_src is None:
        cam_src = cam
    h, w = depth.shape
    vv, uu = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    x = (uu - cam.cx) / cam.fx * depth
    y = (vv - cam.cy) / cam.fy * depth
    pts = np.stack([x, y, depth], axis=-1)  # (H, W, 3) in target frame
    pts_src = pts @ pose.rotation.T + pose.translation
    z = pts_src[..., 2]
    valid = z > 1e-9
    z_safe = np.where(valid, z, 1.0)
    u_s = cam_src.fx * pts_src[..., 0] / z_safe + cam_src.cx
    v_s = cam_src.fy * pts_src[..., 1] / z_safe + cam_src.cy
    in_frame = (u_s >= 0) & (u_s <= w - 1) & (v_s >= 0) & (v_s <= h - 1)
    valid &= in_frame
    coords = np.stack([np.where(valid, u_s, 0.0), np.where(valid, v_s, 0.0)],
                      axis=-1)
    return coords, valid


def bilinear_sample(src: np.ndarray,
                    coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample ``src`` at (u, v) positions.

    Out-of-bounds samples are masked False and set to 0.
    """
    src = np.asarray(src, dtype=np.float64)
    squeeze = src.ndim == 2
    if squeeze:
        src = src[:, :, None]
    h, w, _ = src.shape
    coords = np.asarray(coords, dtype=np.float64)
    u = coords[..., 0]
    v = coords[..., 1]
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    out = (src[v0, u0] * (1 - fu) * (1 - fv) + src[v0, u1] * fu * (1 - fv)
           + src[v1, u0] * (1 - fu) * fv + src[v1, u1] * fu * fv)
    out = np.where(valid[..., None], out, 0.0).astype(np.float32)
    if squeeze:
        out = out[:, :, 0]
    return out, valid


def warp(src_img: np.ndarray, target_depth: np.ndarray, pose: Pose,
         cam: Camera, cam_src: Camera | None = None
         ) -> tuple[np.ndarray, np.ndarray]:
    """Warp the source image into the target view using the target depth."""
    coords, proj_valid = project(target_depth, pose, cam, cam_src)
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
    img = np.asarray(img, dtype=np.float64)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    h, w, c = img.shape
    if h % 2 or w % 2:
        raise GeometryError("downsample2x_area requires even dimensions")
    out = img.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
    out = out.astype(np.float32)
    return out[:, :, 0] if squeeze else out


def upsample_bilinear(img: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize to (H, W) with bilinear interpolation, corners aligned."""
    img = np.asarray(img, dtype=np.float64)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    h_in, w_in, _ = img.shape
    h_out, w_out = shape
    v = (np.linspace(0, h_in - 1, h_out) if h_out > 1 else np.zeros(1))
    u = (np.linspace(0, w_in - 1, w_out) if w_out > 1 else np.zeros(1))
    uu, vv = np.meshgrid(u, v)
    coords = np.stack([uu, vv], axis=-1)
    out, _ = bilinear_sample(img, coords)
    return out[:, :, 0] if squeeze else out
