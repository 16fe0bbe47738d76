"""Synthetic rectified-stereo scene generator.

Scenes are fronto-parallel textured planes (a background plus rectangle or
disk objects) seen by a horizontal-baseline stereo pair. Both views are exact
pinhole renders of the same surfaces, so ground-truth depth, segmentation and
the left-view occlusion mask are available analytically. ``corrupt`` adds the
two noise modes the refinement algorithms target: foreground depth dilated
into the background, and random label flips.

``render`` draws each view in two passes. A z-buffer pass over the surfaces
fills depth, labels and the index of the surface each pixel shows, and
evaluates no texture; each object costs a few array operations over its
bounding box only. The texture pass then gives each pixel its own surface's
texture, bitwise equal to ``surface_texture``. It hashes each surface's
noise lattice once, about H·W/25 points, where evaluating
``surface_texture`` per pixel hashes four points per pixel. The column
terms are computed once per surface and column. What remains per pixel is
a fixed number of gathers and arithmetic passes over the view, whatever
the number of surfaces. The occlusion test visits only the rows of each
object's bounding box.

``corrupt``'s bleed grows the foreground one 3×3 minimum per step, the
window reduction the SSIM box sum also uses (``geometry._window3``), and
stops as soon as a step grows nothing, so it makes at most about max(H, W)
passes whatever ``bleed_width`` says.

``parse_scene_config`` reads a scene and its corruption from a flat text
file of ``key=value`` lines, where ``#`` starts a comment. Each value must be
a finite number, and an error names the file and line it comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Camera, _as_labels, _check_map, _same_shape, _window3


class SynthError(ValueError):
    """Invalid scene or corruption specification."""


def _check_integers(spec, *names):
    """Raise ``SynthError`` unless each named field of ``spec`` is a Python
    or numpy integer (a bool is not)."""
    for name in names:
        value = getattr(spec, name)
        if (isinstance(value, bool)
                or not isinstance(value, (int, np.integer))):
            raise SynthError(f"{name} must be an integer, not {value!r}")


def _check_class_id(spec, name):
    """Raise ``SynthError`` unless the integer field ``name`` of ``spec``
    fits in int32, the dtype of the rendered labels."""
    value = getattr(spec, name)
    if not -2 ** 31 <= int(value) < 2 ** 31:
        raise SynthError(f"{name} must fit in int32, not {value!r}")


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
        _check_integers(self, "class_id", "texture_seed")
        _check_class_id(self, "class_id")
        if not (math.isfinite(self.depth) and self.depth > 0):
            raise SynthError("object depth must be positive and finite")
        n = 4 if self.shape == "rect" else 3
        if len(self.params) != n:
            raise SynthError(f"{self.shape} expects {n} parameters")
        if not all(math.isfinite(p) for p in self.params):
            raise SynthError(f"{self.shape} parameters must be finite")
        if self.shape == "disk" and self.params[2] < 0:
            raise SynthError("disk radius must not be negative")

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

    def _span(self, coords: np.ndarray, axis: int) -> slice | None:
        """The slice of the 1-D ``coords`` (rows for axis 0, columns for
        axis 1) from the first to the last one inside the object's extent
        along that axis, or None when there is none. Every point of the
        object lies inside it: a rect's test is its own row or column
        term, and a disk's is its row or column term alone, which bounds
        the sum because fl(a + b) >= a when b >= 0."""
        if self.shape == "rect":
            lo, hi = self.params[axis], self.params[axis + 2]
            inside = (coords >= lo) & (coords < hi)
        else:
            center, rad = self.params[axis], self.params[2]
            inside = (coords - center) ** 2 <= rad ** 2
        idx = np.flatnonzero(inside)
        return slice(idx[0], idx[-1] + 1) if idx.size else None


MAX_SCENE_SIDE = 2 ** 15


@dataclass(frozen=True)
class SceneSpec:
    """A scene of ``height`` x ``width`` pixels; each side is at most
    ``MAX_SCENE_SIDE`` (2**15) pixels."""

    height: int
    width: int
    camera: Camera
    baseline: float
    background_depth: float
    objects: tuple[ObjectSpec, ...] = ()
    background_class: int = 0
    background_texture_seed: int = 0

    def __post_init__(self):
        _check_integers(self, "height", "width", "background_class",
                        "background_texture_seed")
        _check_class_id(self, "background_class")
        if self.height <= 0 or self.width <= 0:
            raise SynthError("degenerate image size")
        if max(self.height, self.width) > MAX_SCENE_SIDE:
            raise SynthError(f"image sides must be at most {MAX_SCENE_SIDE}, "
                             f"got {self.height}x{self.width}")
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise SynthError("baseline must be positive and finite")
        if not (math.isfinite(self.background_depth)
                and self.background_depth > 0):
            raise SynthError("background depth must be positive and finite")
        for obj in self.objects:
            if obj.depth >= self.background_depth:
                raise SynthError("object depths must be smaller than the "
                                 "background depth")
        nearest = min([self.background_depth]
                      + [obj.depth for obj in self.objects])
        # the texture pass casts each column plus a disparity to int64;
        # below 2**53 the sum fits and still tells the columns apart
        if not self.disparity(nearest) < 2.0 ** 53:
            raise SynthError("the nearest surface's disparity must be below "
                             "2**53 pixels")
        object.__setattr__(self, "objects", tuple(self.objects))

    def disparity(self, depth: float) -> float:
        return self.camera.fx * self.baseline / depth


@dataclass(frozen=True)
class CorruptionSpec:
    bleed_width: int = 0
    seg_flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, "bleed_width", "seed")
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
_NOISE_CELL = 5.0
# pixels per block of _view_texture: its temporaries stay in cache
_TEXTURE_BLOCK = 8192


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
    coarse = _value_noise(rows, cols, seed, cell=_NOISE_CELL)
    return base + _TEX_SPAN * (stripe + 0.6 * coarse) / 3.0


def _view_texture(owner: np.ndarray, disps: np.ndarray, seeds: np.ndarray,
                  out: np.ndarray) -> None:
    """Write into ``out`` the ``surface_texture`` of one view, where pixel
    (r, c) shows surface ``owner[r, c]`` at left-view column
    ``c + disps[owner[r, c]]``.

    Bitwise equal to ``surface_texture`` at each pixel, with the same
    operations in the same order, but each surface's noise lattice is
    hashed once, on an (ny, nx) table, and the column terms once per
    surface and column, on an (S, W) table; each pixel gathers both. The
    pixels go in blocks of whole rows, so the per-pixel temporaries stay
    small. ``owner`` is (H, W) int64 and is overwritten; ``out`` is (H, W)
    and takes the float64 result in its own dtype.
    """
    h, w = owner.shape
    n_surf = len(disps)
    # column terms per (surface, column), as in surface_texture
    xcol = np.arange(w, dtype=np.float64)[None, :] + disps[:, None]
    x = xcol / _NOISE_CELL
    x0 = np.floor(x)
    fx = x - x0
    x0 = x0.astype(np.int64)
    stripe = np.mod(np.round(xcol).astype(np.int64), 3).astype(np.float64)
    base = np.repeat(np.take(_TEX_BASE, np.arange(n_surf) % len(_TEX_BASE)),
                     w)
    # row terms, (H, 1)
    y = np.arange(h, dtype=np.float64)[:, None] / _NOISE_CELL
    y0 = np.floor(y)
    fy = y - y0
    omfy = 1 - fy
    y0 = y0.astype(np.int64)
    # x0 and y0 grow with the column and row, so a surface's lattice spans
    # rows 0 .. y0[-1] + 1 and columns x0[s, 0] .. x0[s, -1] + 1
    xlo = x0[:, :1]
    ny = int(y0[-1, 0]) + 2
    nx = int((x0[:, -1:] - xlo).max()) + 2
    lattice = _hash_noise(np.arange(ny)[None, :, None],
                          (xlo + np.arange(nx))[:, None, :],
                          seeds[:, None, None]).ravel()
    # each (surface, column)'s v00 corner in the flat lattice, less the
    # row term y0 * nx
    col_corner = (x0 - xlo) + np.arange(n_surf)[:, None] * (ny * nx)
    block_rows = max(1, _TEXTURE_BLOCK // w)
    for r0 in range(0, h, block_rows):
        rs = slice(r0, r0 + block_rows)
        # owner's storage becomes each pixel's flat index into the (S, W)
        # tables, and corner its v00 corner's flat index into the lattice
        gather = owner[rs]
        gather *= w
        gather += np.arange(w)
        corner = col_corner.take(gather)
        corner += y0[rs] * nx
        fx_px = fx.take(gather)
        omfx_px = 1 - fx_px
        # the indices are in range; mode="clip" lets take fill ``term``
        # without the buffered copy the default mode makes for ``out=``
        coarse = lattice.take(corner)
        coarse *= omfy[rs]
        coarse *= omfx_px
        term = np.empty_like(coarse)
        for step, row_w, col_w in ((1, omfy[rs], fx_px),
                                   (nx - 1, fy[rs], omfx_px),
                                   (1, fy[rs], fx_px)):
            corner += step
            lattice.take(corner, out=term, mode="clip")
            term *= row_w
            term *= col_w
            coarse += term
        coarse *= 0.6
        coarse += stripe.take(gather, out=term, mode="clip")
        coarse *= _TEX_SPAN
        coarse /= 3.0
        coarse += base.take(gather, out=term, mode="clip")
        out[rs] = coarse


def render(spec: SceneSpec):
    """Render the stereo pair with ground truth for the left view.

    Returns (img_left, img_right, depth_left, seg_left, occlusion_left);
    images are (H, W) float32 in [0, 1], depth float64 meters, seg int32,
    occlusion marks left pixels with no correspondence in the right view.

    Each view is a z-buffer pass, which resolves the surface every pixel
    shows (the nearest; on equal depths the earlier one), followed by one
    texture pass over the view (``_view_texture``), which gives each pixel
    its own surface's texture. A surface's texture is never evaluated where
    another one covers it, and its noise lattice is hashed once per view.
    The z-buffer pass and the occlusion test visit each object's bounding
    box only.
    """
    h, w = spec.height, spec.width

    # surfaces ordered background first, then objects; nearest depth wins
    surfaces = [(spec.background_depth, spec.background_class,
                 spec.background_texture_seed, None)]
    for obj in spec.objects:
        surfaces.append((obj.depth, obj.class_id, obj.texture_seed, obj))

    rows = np.arange(h, dtype=np.float64)
    cols = np.arange(w, dtype=np.float64)
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
            obj_cols = cols + disps[idx]
            rs, cs = obj._span(rows, 0), obj._span(obj_cols, 1)
            if rs is None or cs is None:
                continue
            mask = obj._contains(rows[rs, None], obj_cols[None, cs])
            mask &= d < depth[rs, cs]
            depth[rs, cs][mask] = d
            seg[rs, cs][mask] = cls
            owner[rs, cs][mask] = idx
        # texture lives on the surface: right-view content at column c
        # equals left-view content at column c + disparity
        img = np.empty((h, w), dtype=np.float32)
        _view_texture(owner, disps, seeds, img)
        return img, depth, seg

    img_left, depth_left, seg_left = render_view(False)
    img_right, _, _ = render_view(True)

    # a left pixel is occluded when its right-view position is out of frame
    # or covered by a strictly nearer surface there
    right_col = cols - spec.camera.fx * spec.baseline / depth_left
    occluded = (right_col < 0) | (right_col > w - 1)
    for d, _, _, obj in surfaces[1:]:
        # object's right-view footprint contains column c iff (c + disp) is
        # inside its left-view region; only rows inside its box can be
        rs = obj._span(rows, 0)
        if rs is None:
            continue
        inside = obj._contains(rows[rs, None],
                               right_col[rs] + spec.disparity(d))
        inside &= d < depth_left[rs]
        occluded[rs] |= inside
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
        # clipped before the cast, which an out-of-range value (say 1e10)
        # would overflow; in range, truncating then clipping is the same.
        # The clip keeps NaN, which fails the test below
        scaled = arr * levels
        np.clip(scaled, 0, levels - 1, out=scaled)
        if scaled.size and not scaled.min() >= 0:
            raise SynthError("segmenter input must not hold NaN")
        return scaled.astype(np.int32)
    return segment


def _bleed(depth: np.ndarray, steps: int) -> None:
    """Dilate the foreground, the pixels nearer than the farthest depth,
    into the background ``steps`` times, in place. Each step a background
    pixel with a foreground 8-neighbor takes the smallest such neighbor's
    depth, so where two bleeds meet, the nearer one wins. Stops early once
    a step grows nothing."""
    fg = depth < depth.max()
    for _ in range(steps):
        # a growing pixel's own value is inf, so the minimum over its 3x3
        # window is the smallest depth among its foreground neighbors
        nb_min = _window3(np.where(fg, depth, np.inf), np.minimum)
        grow = np.isfinite(nb_min)
        grow &= ~fg
        if not grow.any():
            return
        depth[grow] = nb_min[grow]
        fg |= grow


def corrupt(gt_depth: np.ndarray, gt_seg: np.ndarray,
            cspec: CorruptionSpec):
    """Apply the bleeding-style depth corruption and random label flips."""
    depth = np.asarray(gt_depth, dtype=np.float64).copy()
    seg = np.asarray(gt_seg)
    _same_shape(SynthError, depth, seg)
    _check_map(depth, SynthError, "depth must be non-empty and finite")
    seg = _as_labels(seg, SynthError)
    if cspec.bleed_width > 0:
        _bleed(depth, cspec.bleed_width)
    if cspec.seg_flip_rate > 0:
        rng = np.random.default_rng(cspec.seed)
        classes = np.unique(seg)
        flip = rng.random(seg.shape) < cspec.seg_flip_rate
        if len(classes) > 1:
            # pick a uniformly random different class for each flipped
            # pixel. The offsets are drawn for every pixel, which keeps the
            # random stream, but only the flipped pixels are looked up
            offset = rng.integers(1, len(classes), size=seg.shape)
            at = np.flatnonzero(flip)
            flat = seg.reshape(-1)
            index = np.searchsorted(classes, flat[at])
            index += offset.reshape(-1)[at]
            flat[at] = classes[index % len(classes)]
    return depth, seg


@dataclass(frozen=True)
class SceneConfig:
    """Flat text form of a scene plus corruption, one key=value or object
    line each; see ``parse_scene_config``."""

    scene: SceneSpec
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)


def _key_values(path):
    """Yield (lineno, key, value) for each ``key=value`` line of a text file.

    ``#`` starts a comment, and blank lines are skipped. A line without
    ``=`` raises ``SynthError``.
    """
    with open(path) as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SynthError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def _number(path, lineno: int, text: str,
            integer: bool = False) -> float | int:
    """The finite number a ``key=value`` line holds, or an int when
    ``integer``. Anything else raises ``SynthError`` with ``path:lineno``."""
    try:
        x = float(text)
    except ValueError:
        raise SynthError(
            f"{path}:{lineno}: {text!r} is not a number") from None
    if not math.isfinite(x):
        raise SynthError(f"{path}:{lineno}: {text!r} is not finite")
    if integer:
        if not x.is_integer():
            raise SynthError(f"{path}:{lineno}: {text!r} is not an integer")
        return int(x)
    return x


_INTEGER_KEYS = frozenset({"height", "width", "background_class",
                           "background_texture_seed", "bleed_width", "seed"})


def parse_scene_config(path) -> SceneConfig:
    """Read a scene description.

    Recognized keys: height, width, fx, fy, cx, cy, baseline,
    background_depth, background_class, background_texture_seed, bleed_width,
    seg_flip_rate, seed, and repeated lines
    ``object=rect,r0,c0,r1,c1,depth,class,seed`` or
    ``object=disk,cr,cc,radius,depth,class,seed``.
    Every value must be a finite number, and an integer for the size, class,
    seed and bleed_width keys. No key but ``object`` may repeat.
    """
    values: dict[str, float | int] = {}
    objects: list[ObjectSpec] = []
    for lineno, key, value in _key_values(path):
        if key == "object":
            shape, *fields = (p.strip() for p in value.split(","))
            n_params = {"rect": 4, "disk": 3}.get(shape)
            if n_params is None or len(fields) != n_params + 3:
                raise SynthError(f"{path}:{lineno}: malformed object")
            *params, depth = (_number(path, lineno, p) for p in fields[:-2])
            class_id, seed = (_number(path, lineno, p, True)
                              for p in fields[-2:])
            objects.append(ObjectSpec(shape, tuple(params), depth, class_id,
                                      seed))
        else:
            number = _number(path, lineno, value, key in _INTEGER_KEYS)
            if key in values:
                raise SynthError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = number
    try:
        scene = SceneSpec(
            height=values.pop("height"),
            width=values.pop("width"),
            camera=Camera(values.pop("fx"), values.pop("fy"),
                          values.pop("cx"), values.pop("cy")),
            baseline=values.pop("baseline"),
            background_depth=values.pop("background_depth"),
            objects=tuple(objects),
            background_class=values.pop("background_class", 0),
            background_texture_seed=values.pop("background_texture_seed", 0),
        )
    except KeyError as e:
        raise SynthError(f"{path}: missing key {e.args[0]}") from None
    corruption = CorruptionSpec(
        bleed_width=values.pop("bleed_width", 0),
        seg_flip_rate=values.pop("seg_flip_rate", 0.0),
        seed=values.pop("seed", 0),
    )
    if values:
        raise SynthError(f"{path}: unknown keys {sorted(values)}")
    return SceneConfig(scene=scene, corruption=corruption)
