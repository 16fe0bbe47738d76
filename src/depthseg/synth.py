"""Synthetic rectified-stereo scene generator.

Scenes are fronto-parallel textured planes (a background plus rectangle or
disk objects) seen by a horizontal-baseline stereo pair. Both views are exact
pinhole renders of the same surfaces, so ground-truth depth, segmentation and
the left-view occlusion mask are available analytically. ``corrupt`` adds the
two noise modes the refinement algorithms target: foreground depth dilated
into the background, and random label flips.
"""

from __future__ import annotations

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
        if self.depth <= 0:
            raise SynthError("object depth must be positive")
        n = 4 if self.shape == "rect" else 3
        if len(self.params) != n:
            raise SynthError(f"{self.shape} expects {n} parameters")

    def mask(self, height: int, width: int,
             col_shift: float = 0.0) -> np.ndarray:
        """Membership of each pixel, with the object shifted left by
        ``col_shift`` columns (used for the second view)."""
        rr, cc = np.meshgrid(np.arange(height, dtype=np.float64),
                             np.arange(width, dtype=np.float64), indexing="ij")
        cc = cc + col_shift
        if self.shape == "rect":
            r0, c0, r1, c1 = self.params
            return (rr >= r0) & (rr < r1) & (cc >= c0) & (cc < c1)
        cr, ccen, rad = self.params
        return (rr - cr) ** 2 + (cc - ccen) ** 2 <= rad ** 2


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
        if self.baseline <= 0:
            raise SynthError("baseline must be positive")
        if self.background_depth <= 0:
            raise SynthError("background depth must be positive")
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


def _hash_noise(iy: np.ndarray, ix: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic uniform [0, 1) values on integer lattice points."""
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


def _value_noise(rows: np.ndarray, cols: np.ndarray, seed: int,
                 cell: float) -> np.ndarray:
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


def surface_texture(rows: np.ndarray, cols: np.ndarray, surface_index: int,
                    seed: int) -> np.ndarray:
    """Texture of a surface, parameterized by left-view pixel coordinates.

    Each surface's intensity band is split into three column stripes with a
    period of three, and value noise stays strictly inside its stripe's
    sub-band. Content sampled at a column offset that is not a multiple of
    three therefore always lands in a different 1/64-wide intensity bucket,
    which lets a quantizing classifier detect mis-sampled content exactly
    (offsets that are multiples of three are indistinguishable).
    """
    base = _TEX_BASE[surface_index % len(_TEX_BASE)]
    stripe = np.mod(np.round(cols).astype(np.int64), 3).astype(np.float64)
    coarse = _value_noise(rows, cols, seed, cell=5.0)
    return base + _TEX_SPAN * (stripe + 0.6 * coarse) / 3.0


def render(spec: SceneSpec):
    """Render the stereo pair with ground truth for the left view.

    Returns (img_left, img_right, depth_left, seg_left, occlusion_left);
    images are (H, W) float32 in [0, 1], depth float64 meters, seg int32,
    occlusion marks left pixels with no correspondence in the right view.
    """
    h, w = spec.height, spec.width
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")

    # surfaces ordered background first, then objects; nearest depth wins
    surfaces = [(spec.background_depth, spec.background_class,
                 spec.background_texture_seed, None)]
    for obj in spec.objects:
        surfaces.append((obj.depth, obj.class_id, obj.texture_seed, obj))

    def render_view(view_shift_disp: bool):
        depth = np.full((h, w), np.inf)
        seg = np.full((h, w), spec.background_class, dtype=np.int32)
        img = np.zeros((h, w))
        for idx, (d, cls, seed, obj) in enumerate(surfaces):
            disp = spec.disparity(d) if view_shift_disp else 0.0
            if obj is None:
                mask = np.ones((h, w), dtype=bool)
            else:
                mask = obj.mask(h, w, col_shift=disp)
            mask &= d < depth
            depth[mask] = d
            seg[mask] = cls
            # texture lives on the surface: right-view content at column c
            # equals left-view content at column c + disparity
            tex = surface_texture(rr, cc + disp, idx, seed)
            img[mask] = tex[mask]
        return img, depth, seg

    img_left, depth_left, seg_left = render_view(False)
    img_right, depth_right, _ = render_view(True)

    # a left pixel is occluded when its right-view position is out of frame
    # or covered by a strictly nearer surface there
    right_col = cc - spec.camera.fx * spec.baseline / depth_left
    occluded = (right_col < 0) | (right_col > w - 1)
    for d, _, _, obj in surfaces[1:]:
        disp = spec.disparity(d)
        # object's right-view footprint contains column c iff (c + disp) is
        # inside its left-view region
        if obj.shape == "rect":
            r0, c0, r1, c1 = obj.params
            inside = ((rr >= r0) & (rr < r1)
                      & (right_col + disp >= c0) & (right_col + disp < c1))
        else:
            cr, ccen, rad = obj.params
            inside = ((rr - cr) ** 2 + (right_col + disp - ccen) ** 2
                      <= rad ** 2)
        occluded |= inside & (d < depth_left)
    return (img_left.astype(np.float32), img_right.astype(np.float32),
            depth_left, seg_left, occluded)


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
    """
    values: dict[str, float] = {}
    objects: list[ObjectSpec] = []
    for lineno, key, value in _key_values(path, SynthError):
        if key == "object":
            parts = [p.strip() for p in value.split(",")]
            shape = parts[0]
            nums = [float(p) for p in parts[1:]]
            if shape == "rect" and len(nums) == 7:
                objects.append(ObjectSpec("rect", tuple(nums[:4]), nums[4],
                                          int(nums[5]), int(nums[6])))
            elif shape == "disk" and len(nums) == 6:
                objects.append(ObjectSpec("disk", tuple(nums[:3]), nums[3],
                                          int(nums[4]), int(nums[5])))
            else:
                raise SynthError(f"{path}:{lineno}: malformed object")
        else:
            values[key] = float(value)
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
