"""Synthetic rectified-stereo scene generator.

Scenes are fronto-parallel textured planes (a background plus rectangle or
disk objects) seen by a horizontal-baseline stereo pair. Both views are exact
pinhole renders of the same surfaces, so ground-truth depth, segmentation and
the left-view occlusion mask are available analytically. ``corrupt`` adds the
two noise modes the refinement algorithms target: foreground depth dilated
into the background, and random label flips.

``render`` draws each view in two passes. A z-buffer pass over the surfaces
fills depth, labels and the index of the surface each pixel shows, and
evaluates no texture. The texture is then evaluated once over the view, each
pixel with the index, seed and disparity of its own surface. Texture, the
dominant cost, is therefore evaluated once per pixel per view, whatever the
number of surfaces; the z-buffer pass costs a few cheap (H, W) array
operations per surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Camera, _key_values, _neighbor_views


class SynthError(ValueError):
    """Invalid scene or corruption specification."""


@dataclass(frozen=True)
class ObjectSpec:
    """A fronto-parallel patch: rect (r0, c0, r1, c1), end-exclusive, or
    disk (center_row, center_col, radius)."""

    shape: str
    params: tuple
    depth: float
    class_id: int
    texture_seed: int

    def __post_init__(self):
        if self.shape not in ("rect", "disk"):
            raise SynthError(f"unknown object shape {self.shape!r}")
        if not (math.isfinite(self.depth) and self.depth > 0):
            raise SynthError("object depth must be positive and finite")
        n = 4 if self.shape == "rect" else 3
        if len(self.params) != n:
            raise SynthError(f"{self.shape} expects {n} parameters")
        if not all(math.isfinite(p) for p in self.params):
            raise SynthError(f"{self.shape} parameters must be finite")

    def mask(self, height: int, width: int,
             col_shift: float = 0.0) -> np.ndarray:
        """Membership of each pixel, with the object shifted left by
        ``col_shift`` columns (used for the second view)."""
        return self._contains(
            np.arange(height, dtype=np.float64)[:, None],
            np.arange(width, dtype=np.float64)[None, :] + col_shift)

    def _contains(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Membership of the left-view points (rows, cols), which
        broadcast against each other."""
        if self.shape == "rect":
            r0, c0, r1, c1 = self.params
            return (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
        cr, ccen, rad = self.params
        return (rows - cr) ** 2 + (cols - ccen) ** 2 <= rad ** 2


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    camera: Camera
    baseline: float
    background_depth: float
    objects: tuple[ObjectSpec, ...] = ()
    background_class: int = 0
    background_texture_seed: int = 0

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise SynthError("degenerate image size")
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise SynthError("baseline must be positive and finite")
        if not (math.isfinite(self.background_depth)
                and self.background_depth > 0):
            raise SynthError("background depth must be positive and finite")
        for obj in self.objects:
            if obj.depth >= self.background_depth:
                raise SynthError("object depths must be smaller than the "
                                 "background depth")
        object.__setattr__(self, "objects", tuple(self.objects))

    def disparity(self, depth: float) -> float:
        return self.camera.fx * self.baseline / depth


@dataclass(frozen=True)
class CorruptionSpec:
    bleed_width: int = 0
    seg_flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.bleed_width < 0:
            raise SynthError("bleed_width must be >= 0")
        if not 0.0 <= self.seg_flip_rate <= 1.0:
            raise SynthError("seg_flip_rate must lie in [0, 1]")


def _hash_noise(iy: np.ndarray, ix: np.ndarray,
                seed: int | np.ndarray) -> np.ndarray:
    """Deterministic uniform [0, 1) values on integer lattice points.

    ``seed`` is an int or a uint64 array that broadcasts with the points.
    """
    seed_mix = (seed * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    h = (iy.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         ^ ix.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
         ^ np.uint64(seed_mix))
    h ^= h >> np.uint64(31)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(rows: np.ndarray, cols: np.ndarray,
                 seed: int | np.ndarray, cell: float) -> np.ndarray:
    """Bilinearly interpolated lattice noise in [0, 1)."""
    y = rows / cell
    x = cols / cell
    y0 = np.floor(y)
    x0 = np.floor(x)
    fy = y - y0
    fx = x - x0
    y0 = y0.astype(np.int64)
    x0 = x0.astype(np.int64)
    v00 = _hash_noise(y0, x0, seed)
    v01 = _hash_noise(y0, x0 + 1, seed)
    v10 = _hash_noise(y0 + 1, x0, seed)
    v11 = _hash_noise(y0 + 1, x0 + 1, seed)
    return (v00 * (1 - fy) * (1 - fx) + v01 * (1 - fy) * fx
            + v10 * fy * (1 - fx) + v11 * fy * fx)


# intensity bands keep classes photometrically separable: surfaces get a
# distinct base level plus texture confined to a disjoint band
_TEX_BASE = (0.02, 0.36, 0.70)
_TEX_SPAN = 0.28


def surface_texture(rows: np.ndarray, cols: np.ndarray,
                    surface_index: int | np.ndarray,
                    seed: int | np.ndarray) -> np.ndarray:
    """Texture of a surface, parameterized by left-view pixel coordinates.

    Each surface's intensity band is split into three column stripes with a
    period of three, and value noise stays strictly inside its stripe's
    sub-band. Content sampled at a column offset that is not a multiple of
    three therefore always lands in a different 1/64-wide intensity bucket,
    which lets a quantizing classifier detect mis-sampled content exactly
    (offsets that are multiples of three are indistinguishable).

    ``surface_index`` and ``seed`` are ints, or integer arrays that broadcast
    with ``rows`` and ``cols`` and give each point its own surface; a seed
    array is uint64 and holds the seeds modulo 2**64.
    """
    base = np.take(_TEX_BASE, np.mod(surface_index, len(_TEX_BASE)))
    stripe = np.mod(np.round(cols).astype(np.int64), 3).astype(np.float64)
    coarse = _value_noise(rows, cols, seed, cell=5.0)
    return base + _TEX_SPAN * (stripe + 0.6 * coarse) / 3.0


def render(spec: SceneSpec):
    """Render the stereo pair with ground truth for the left view.

    Returns (img_left, img_right, depth_left, seg_left, occlusion_left);
    images are (H, W) float32 in [0, 1], depth float64 meters, seg int32,
    occlusion marks left pixels with no correspondence in the right view.

    Each view is a z-buffer pass, which resolves the surface every pixel
    shows (the nearest; on equal depths the earlier one), followed by one
    texture evaluation per pixel, with that surface's parameters. A
    surface's texture is never evaluated where another one covers it.
    """
    h, w = spec.height, spec.width

    # surfaces ordered background first, then objects; nearest depth wins
    surfaces = [(spec.background_depth, spec.background_class,
                 spec.background_texture_seed, None)]
    for obj in spec.objects:
        surfaces.append((obj.depth, obj.class_id, obj.texture_seed, obj))

    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    # a seed and the same seed modulo 2**64 hash alike
    seeds = np.array([int(seed) % 2 ** 64 for _, _, seed, _ in surfaces],
                     dtype=np.uint64)

    def render_view(view_shift_disp: bool):
        # the background covers every pixel; objects lie strictly nearer
        depth = np.full((h, w), spec.background_depth, dtype=np.float64)
        seg = np.full((h, w), spec.background_class, dtype=np.int32)
        owner = np.zeros((h, w), dtype=np.int64)
        disps = np.array([spec.disparity(d) if view_shift_disp else 0.0
                          for d, _, _, _ in surfaces])
        for idx, (d, cls, _, obj) in enumerate(surfaces[1:], 1):
            mask = obj.mask(h, w, col_shift=disps[idx])
            mask &= d < depth
            depth[mask] = d
            seg[mask] = cls
            owner[mask] = idx
        # each pixel's texture is evaluated once, with the parameters of the
        # surface it shows. Texture lives on the surface: right-view content
        # at column c equals left-view content at column c + disparity
        img = surface_texture(rows, cols + disps[owner], owner, seeds[owner])
        return img.astype(np.float32), depth, seg

    img_left, depth_left, seg_left = render_view(False)
    img_right, _, _ = render_view(True)

    # a left pixel is occluded when its right-view position is out of frame
    # or covered by a strictly nearer surface there
    right_col = cols - spec.camera.fx * spec.baseline / depth_left
    occluded = (right_col < 0) | (right_col > w - 1)
    for d, _, _, obj in surfaces[1:]:
        # object's right-view footprint contains column c iff (c + disp) is
        # inside its left-view region
        inside = obj._contains(rows, right_col + spec.disparity(d))
        occluded |= inside & (d < depth_left)
    return img_left, img_right, depth_left, seg_left, occluded


def intensity_segmenter(levels: int = 64):
    """A deterministic content classifier: quantize intensity into buckets.

    With surfaces confined to disjoint intensity bands this recovers the
    true class structure of whatever content a pixel shows, which makes it a
    ground-truth-derived stand-in for a trained segmentation branch.
    """
    def segment(img: np.ndarray) -> np.ndarray:
        arr = np.asarray(img, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr.mean(axis=2)
        return np.clip((arr * levels).astype(np.int32), 0, levels - 1)
    return segment


def corrupt(gt_depth: np.ndarray, gt_seg: np.ndarray,
            cspec: CorruptionSpec):
    """Apply the bleeding-style depth corruption and random label flips."""
    depth = np.asarray(gt_depth, dtype=np.float64).copy()
    seg = np.asarray(gt_seg, dtype=np.int32).copy()
    if depth.shape != seg.shape:
        raise SynthError("shape mismatch")
    background = depth.max()
    fg = depth < background
    for _ in range(cspec.bleed_width):
        # where two bleeds meet, the nearer foreground depth wins
        nb_min = np.full(depth.shape, np.inf)
        for nb in _neighbor_views(np.where(fg, depth, np.inf), 1, np.inf):
            np.minimum(nb_min, nb, out=nb_min)
        grow = ~fg & np.isfinite(nb_min)
        depth[grow] = nb_min[grow]
        fg |= grow
    if cspec.seg_flip_rate > 0:
        rng = np.random.default_rng(cspec.seed)
        classes = np.unique(seg)
        flip = rng.random(seg.shape) < cspec.seg_flip_rate
        if len(classes) > 1:
            # pick a uniformly random different class for each flipped pixel
            index = np.searchsorted(classes, seg)
            offset = rng.integers(1, len(classes), size=seg.shape)
            seg = np.where(flip, classes[(index + offset) % len(classes)], seg)
    return depth, seg


@dataclass(frozen=True)
class SceneConfig:
    """Flat text form of a scene plus corruption, one key=value or object
    line each; see ``parse_scene_config``."""

    scene: SceneSpec
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)


def parse_scene_config(path) -> SceneConfig:
    """Read a scene description.

    Recognized keys: height, width, fx, fy, cx, cy, baseline,
    background_depth, background_class, background_texture_seed, bleed_width,
    seg_flip_rate, seed, and repeated lines
    ``object=rect,r0,c0,r1,c1,depth,class,seed`` or
    ``object=disk,cr,cc,radius,depth,class,seed``.
    Every value must be a finite number.
    """
    def number(lineno: int, text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            raise SynthError(f"{path}:{lineno}: {text!r} is not a number") \
                from None
        if not math.isfinite(x):
            raise SynthError(f"{path}:{lineno}: {text!r} is not finite")
        return x

    values: dict[str, float] = {}
    objects: list[ObjectSpec] = []
    for lineno, key, value in _key_values(path, SynthError):
        if key == "object":
            parts = [p.strip() for p in value.split(",")]
            shape = parts[0]
            nums = [number(lineno, p) for p in parts[1:]]
            if shape == "rect" and len(nums) == 7:
                objects.append(ObjectSpec("rect", tuple(nums[:4]), nums[4],
                                          int(nums[5]), int(nums[6])))
            elif shape == "disk" and len(nums) == 6:
                objects.append(ObjectSpec("disk", tuple(nums[:3]), nums[3],
                                          int(nums[4]), int(nums[5])))
            else:
                raise SynthError(f"{path}:{lineno}: malformed object")
        else:
            values[key] = number(lineno, value)
    try:
        scene = SceneSpec(
            height=int(values.pop("height")),
            width=int(values.pop("width")),
            camera=Camera(values.pop("fx"), values.pop("fy"),
                          values.pop("cx"), values.pop("cy")),
            baseline=values.pop("baseline"),
            background_depth=values.pop("background_depth"),
            objects=tuple(objects),
            background_class=int(values.pop("background_class", 0)),
            background_texture_seed=int(values.pop("background_texture_seed",
                                                   0)),
        )
    except KeyError as e:
        raise SynthError(f"{path}: missing key {e.args[0]}") from None
    corruption = CorruptionSpec(
        bleed_width=int(values.pop("bleed_width", 0)),
        seg_flip_rate=values.pop("seg_flip_rate", 0.0),
        seed=int(values.pop("seed", 0)),
    )
    if values:
        raise SynthError(f"{path}: unknown keys {sorted(values)}")
    return SceneConfig(scene=scene, corruption=corruption)
