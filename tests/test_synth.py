import math
import warnings

import numpy as np
import pytest

from depthseg import geometry, synth
from depthseg.synth import (CorruptionSpec, ObjectSpec, SceneSpec, SynthError,
                            corrupt, intensity_segmenter, parse_scene_config,
                            render, surface_texture)
from test_geometry import traced_peak


def make_scene(**overrides):
    params = dict(
        height=64, width=128,
        camera=geometry.Camera(100.0, 100.0, 63.5, 31.5),
        baseline=0.4, background_depth=10.0,
        objects=(ObjectSpec("rect", (20, 50, 44, 74), 2.0, 1, 5),),
        background_class=0, background_texture_seed=2,
    )
    params.update(overrides)
    return SceneSpec(**params)


def test_object_validation():
    with pytest.raises(SynthError):
        ObjectSpec("triangle", (0, 0, 1), 1.0, 1, 0)
    with pytest.raises(SynthError):
        ObjectSpec("rect", (0, 0, 1), 1.0, 1, 0)  # wrong arity
    with pytest.raises(SynthError):
        ObjectSpec("disk", (5, 5, 2), -1.0, 1, 0)


def test_scene_rejects_object_behind_background():
    with pytest.raises(SynthError):
        make_scene(objects=(ObjectSpec("rect", (0, 0, 4, 4), 12.0, 1, 0),))


def test_render_ground_truth_consistency():
    spec = make_scene()
    img_l, img_r, depth, seg, occ = render(spec)
    assert img_l.shape == (64, 128) and img_l.dtype == np.float32
    assert depth.shape == (64, 128)
    obj = seg == 1
    assert np.allclose(depth[obj], 2.0)
    assert np.allclose(depth[~obj], 10.0)
    # segmentation matches the rectangle exactly
    assert obj.sum() == 24 * 24
    assert img_l.min() >= 0.0 and img_l.max() <= 1.0


def test_render_occlusion_band_left_of_object():
    spec = make_scene()
    _, _, depth, seg, occ = render(spec)
    # disparity: object 100*0.4/2 = 20, background 100*0.4/10 = 4; the
    # occluded background band is the 16 columns left of the object
    row = 30
    assert occ[row, 34:50].all()
    assert not occ[row, 10:34].any()
    assert not occ[row, seg[row] == 1].any()


def test_stereo_pair_consistent_under_gt_warp():
    spec = make_scene()
    img_l, img_r, depth, seg, occ = render(spec)
    pose = geometry.Pose.stereo_baseline(spec.baseline)
    warped, valid = geometry.warp(img_r, depth, pose, spec.camera)
    mask = valid & ~occ
    assert mask.any()
    assert np.abs(warped[mask] - img_l[mask]).max() < 1e-6


def test_surface_texture_bands_are_disjoint():
    rr, cc = np.meshgrid(np.arange(64.0), np.arange(128.0), indexing="ij")
    t0 = surface_texture(rr, cc, 0, seed=1)
    t1 = surface_texture(rr, cc, 1, seed=2)
    t2 = surface_texture(rr, cc, 2, seed=3)
    assert t0.max() < t1.min()
    assert t1.max() < t2.min()
    assert 0.0 <= t0.min() and t2.max() <= 1.0


def test_surface_texture_column_stripes_shift_buckets():
    rr, cc = np.meshgrid(np.arange(32.0), np.arange(96.0), indexing="ij")
    tex = surface_texture(rr, cc, 0, seed=9)
    buckets = (tex * 64).astype(int)
    for shift in (1, 2, 4, 16, 20):
        assert (buckets[:, shift:] != buckets[:, :-shift]).all()


def test_intensity_segmenter_separates_surfaces():
    spec = make_scene()
    img_l, _, _, seg, _ = render(spec)
    pred = intensity_segmenter(64)(img_l)
    bg_buckets = set(np.unique(pred[seg == 0]))
    obj_buckets = set(np.unique(pred[seg == 1]))
    assert not bg_buckets & obj_buckets


@pytest.mark.parametrize("value, bucket", [(1e10, 63), (1.0, 63),
                                           (-1e10, 0), (np.inf, 63)])
@pytest.mark.parametrize("channels", [None, 3])
def test_intensity_segmenter_maps_out_of_range_to_the_edge_bucket(
        value, bucket, channels):
    # clipped before the cast to int32, so a value that would overflow it
    # neither warns (warnings are errors here) nor lands in another bucket
    img = np.full((2, 3) if channels is None else (2, 3, channels), value)
    got = intensity_segmenter()(img)
    assert got.dtype == np.int32 and got.shape == (2, 3)
    assert np.all(got == bucket)


def test_intensity_segmenter_buckets_in_range_values_by_truncation():
    img = np.array([[0.0, 0.5, 0.999, 1 / 64 - 1e-12, 1 / 64, -0.3, 1.7]])
    assert intensity_segmenter()(img).tolist() == [[0, 32, 63, 0, 1, 0, 63]]


def test_corrupt_bleed_grows_foreground():
    spec = make_scene()
    _, _, depth, seg, _ = render(spec)
    bad, _ = corrupt(depth, seg, CorruptionSpec(bleed_width=3))
    band = bad != depth
    assert band.any()
    assert np.allclose(bad[band], 2.0)
    # band hugs the object: dilation by 3 in Chebyshev distance
    assert band.sum() == (24 + 6) ** 2 - 24 * 24
    # zero bleed is a no-op
    same, _ = corrupt(depth, seg, CorruptionSpec(bleed_width=0))
    assert np.array_equal(same, depth)
    # two bleeds that meet: column 5 is 3 px from both objects, and the
    # nearer depth wins there
    depth = np.full((5, 11), 10.0)
    depth[:, 2] = 3.0
    depth[:, 8] = 2.0
    bad, _ = corrupt(depth, np.zeros((5, 11), np.int32),
                     CorruptionSpec(bleed_width=3))
    assert bad[0].tolist() == [3.0] * 5 + [2.0] * 6


def bleed_reference(depth, width):
    """Per-pixel bleed: each step, every background pixel with a
    foreground 8-neighbor takes the smallest such neighbor's depth."""
    depth = depth.astype(np.float64)
    h, w = depth.shape
    fg = depth < depth.max()
    for _ in range(width):
        new_depth, new_fg = depth.copy(), fg.copy()
        for r in range(h):
            for c in range(w):
                if fg[r, c]:
                    continue
                nb = [depth[r + dr, c + dc]
                      for dr, dc in geometry._NEIGHBOR_OFFSETS
                      if 0 <= r + dr < h and 0 <= c + dc < w
                      and fg[r + dr, c + dc]]
                if nb:
                    new_depth[r, c], new_fg[r, c] = min(nb), True
        depth, fg = new_depth, new_fg
    return depth


@pytest.mark.parametrize("shape, seed", [((9, 13), 0), ((1, 12), 1),
                                         ((12, 1), 2), ((7, 7), 3)])
def test_corrupt_bleed_matches_reference(shape, seed):
    rng = np.random.default_rng(seed)
    depth = np.full(shape, 20.0)
    seeds = rng.random(shape) < 0.08
    depth[seeds] = rng.choice([2.0, 3.5, 5.0], size=int(seeds.sum()))
    seg = np.zeros(shape, np.int32)
    for width in (0, 1, 2, 3, 8):
        got, _ = corrupt(depth, seg, CorruptionSpec(bleed_width=width))
        assert np.array_equal(got, bleed_reference(depth, width))


def test_corrupt_bleed_stops_when_nothing_grows():
    # 10**7 full passes would take minutes; the foreground of an 8x8 image
    # stops growing within H + W of them
    depth = np.full((8, 8), 10.0)
    depth[1, 2] = 3.0
    depth[6, 6] = 2.0
    seg = np.zeros((8, 8), np.int32)
    want, _ = corrupt(depth, seg, CorruptionSpec(bleed_width=16))
    got, _ = corrupt(depth, seg, CorruptionSpec(bleed_width=10 ** 7))
    assert np.array_equal(got, want)
    assert (got < 10.0).all()


def test_corrupt_flip_rate_and_determinism():
    rng = np.random.default_rng(0)
    seg = rng.integers(0, 4, (64, 64)).astype(np.int32)
    depth = np.full((64, 64), 5.0)
    _, flipped1 = corrupt(depth, seg, CorruptionSpec(seg_flip_rate=0.1,
                                                     seed=3))
    _, flipped2 = corrupt(depth, seg, CorruptionSpec(seg_flip_rate=0.1,
                                                     seed=3))
    assert np.array_equal(flipped1, flipped2)
    rate = (flipped1 != seg).mean()
    assert 0.05 < rate < 0.15
    # flips always change the label to another class that exists in the map
    assert set(np.unique(flipped1)) <= set(np.unique(seg))


def full_map_flip(seg, rate, seed):
    """The label flip over the whole map: every pixel's class looked up and
    offset, then the flipped ones kept."""
    rng = np.random.default_rng(seed)
    classes = np.unique(seg)
    flip = rng.random(seg.shape) < rate
    index = np.searchsorted(classes, seg)
    offset = rng.integers(1, len(classes), size=seg.shape)
    return np.where(flip, classes[(index + offset) % len(classes)], seg)


@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("shape", [(64, 64), (1, 9), (33, 7)])
def test_corrupt_flip_matches_full_map_flip(rate, shape):
    rng = np.random.default_rng(1)
    # sparse, negative and unsorted class ids
    seg = rng.choice(np.array([7, -2, 40, 3], np.int32), size=shape)
    _, got = corrupt(np.full(shape, 5.0), seg,
                     CorruptionSpec(seg_flip_rate=rate, seed=4))
    want = full_map_flip(seg, rate, 4)
    assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("bad, error", [
    (0.5, "whole numbers"), (-2.25, "whole numbers"),
    (2.0 ** 40, "finite and fit in int32"), (-2.0 ** 31 - 1, "int32"),
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
    # integer labels that an int32 cast would wrap
    (np.int64(2 ** 32 + 1), "fit in int32"), (np.int64(-2 ** 31 - 1), "int32"),
    (np.uint32(2 ** 31), "fit in int32"), (np.uint64(2 ** 63), "int32")])
def test_corrupt_rejects_labels_that_an_int32_cast_would_change(bad, error):
    seg = np.zeros((4, 5), np.asarray(bad).dtype)
    seg[2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SynthError, match=error):
            corrupt(np.full((4, 5), 5.0), seg,
                    CorruptionSpec(seg_flip_rate=0.5, seed=4))


def test_corrupt_takes_whole_float_labels_as_int32():
    rng = np.random.default_rng(1)
    seg = rng.choice(np.array([7, -2, 40, 3], np.int32), size=(9, 11))
    spec = CorruptionSpec(bleed_width=1, seg_flip_rate=0.5, seed=4)
    depth = rng.uniform(1.0, 9.0, seg.shape)
    for got, want in zip(corrupt(depth, seg.astype(np.float32), spec),
                         corrupt(depth, seg, spec)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_parse_scene_config(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(
        "height=64\nwidth=128\nfx=100\nfy=100\ncx=63.5\ncy=31.5\n"
        "baseline=0.4\nbackground_depth=10\n"
        "object=rect,20,50,44,74,2.0,1,5\n"
        "bleed_width=4\nseg_flip_rate=0.05\nseed=7\n")
    cfg = parse_scene_config(path)
    assert cfg.scene.height == 64
    assert len(cfg.scene.objects) == 1
    assert cfg.scene.objects[0].shape == "rect"
    assert cfg.corruption.bleed_width == 4
    assert cfg.corruption.seg_flip_rate == 0.05


def test_parse_scene_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\nbogus=1\n")
    with pytest.raises(SynthError):
        parse_scene_config(path)
    path.write_text("# scene\n\nheight 4\n")
    with pytest.raises(SynthError, match="scene.cfg:3: expected key=value"):
        parse_scene_config(path)


def painter_render(spec):
    """Full-image painter's algorithm: every surface's texture is evaluated
    over the whole image in each view and kept where the surface is nearest.
    The oracle for ``render``."""
    h, w = spec.height, spec.width
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    surfaces = [(spec.background_depth, spec.background_class,
                 spec.background_texture_seed, None)]
    surfaces += [(o.depth, o.class_id, o.texture_seed, o)
                 for o in spec.objects]

    def footprint(obj, col):
        if obj.shape == "rect":
            r0, c0, r1, c1 = obj.params
            return (rr >= r0) & (rr < r1) & (col >= c0) & (col < c1)
        cr, ccen, rad = obj.params
        return (rr - cr) ** 2 + (col - ccen) ** 2 <= rad ** 2

    def view(shifted):
        depth = np.full((h, w), np.inf)
        seg = np.full((h, w), spec.background_class, dtype=np.int32)
        img = np.zeros((h, w))
        for idx, (d, cls, seed, obj) in enumerate(surfaces):
            disp = spec.disparity(d) if shifted else 0.0
            mask = (np.ones((h, w), dtype=bool) if obj is None
                    else footprint(obj, cc + disp))
            mask &= d < depth
            depth[mask] = d
            seg[mask] = cls
            img[mask] = surface_texture(rr, cc + disp, idx, seed)[mask]
        return img, depth, seg

    img_l, depth_l, seg_l = view(False)
    img_r, _, _ = view(True)
    right_col = cc - spec.camera.fx * spec.baseline / depth_l
    occluded = (right_col < 0) | (right_col > w - 1)
    for d, _, _, obj in surfaces[1:]:
        occluded |= (footprint(obj, right_col + spec.disparity(d))
                     & (d < depth_l))
    return (img_l.astype(np.float32), img_r.astype(np.float32), depth_l,
            seg_l, occluded)


def oracle_scene(name, seed):
    """One scene of the oracle matrix; ``seed`` jitters positions, depths
    and texture seeds."""
    rng = np.random.default_rng(seed)
    h, w = {"row": (1, 40), "column": (40, 1)}.get(name, (24, 56))
    cam = geometry.Camera(0.58 * w, 1.92 * h, 0.5 * w - 0.5, 0.5 * h - 0.5)

    def near():
        # disparities 0.58 * w * 0.54 / depth: from about 0.6 to 6 px
        return float(rng.uniform(3.0, 30.0))

    def rect(r0, c0, r1, c1, depth, cls):
        return ObjectSpec("rect", tuple(p + rng.uniform(-0.5, 0.5)
                                        for p in (r0, c0, r1, c1)),
                          depth, cls, int(rng.integers(0, 2 ** 31)))

    def disk(cr, cc, rad, depth, cls):
        return ObjectSpec("disk", tuple(p + rng.uniform(-0.5, 0.5)
                                        for p in (cr, cc, rad)),
                          depth, cls, int(rng.integers(0, 2 ** 31)))

    objects = {
        "overlap": [rect(2, 5, 16, 30, near(), 1),
                    rect(8, 20, 22, 45, near(), 2),
                    disk(12, 30, 7, near(), 3)],
        "equal_depth": [rect(2, 5, 16, 30, 7.5, 1),
                        rect(6, 15, 20, 40, 7.5, 2),
                        disk(10, 20, 6, 7.5, 3)],
        "disks": [disk(8, 12, 6, near(), 1), disk(14, 30, 9, near(), 2),
                  disk(5, 48, 4, near(), 1)],
        # disparities that are not integers and differ by fractions
        "fractional": [rect(3, 10, 15, 25, 4.1 + rng.uniform(0, 0.01), 1),
                       disk(12, 35, 5.5, 6.3 + rng.uniform(0, 0.01), 2)],
        "out_of_frame": [rect(-10, -8, 6, 9, near(), 1),
                         disk(20, 52, 8, near(), 2),
                         rect(30, 10, 40, 20, near(), 3),
                         rect(5, 60, 12, 90, near(), 4)],
        "occluded": [rect(2, 5, 20, 40, 3.0, 1),
                     rect(6, 12, 14, 30, 5.0 + rng.uniform(-0.5, 0.5), 2)],
        "empty": [],
        "row": [rect(-1, 5, 2, 20, near(), 1), disk(0, 30, 3, near(), 2)],
        "column": [rect(5, -1, 20, 2, near(), 1),
                   disk(30, 0, 3, near(), 2)],
        # an int background depth; the nearer object is listed second and
        # must keep its whole footprint at fractional depths
        "int_background": [rect(2, 5, 16, 30, 2.7, 1),
                           rect(8, 20, 22, 45, 2.5, 2)],
        # seeds outside the uint64 range hash modulo 2**64
        "big_seeds": [ObjectSpec("rect", (2, 5, 16, 30), near(), 1, -7),
                      ObjectSpec("disk", (12, 30, 7), near(), 2, 2 ** 64 + 5),
                      ObjectSpec("rect", (8, 20, 22, 45), near(), 3,
                                 2 ** 70 - 1)],
    }[name]
    background_seed = (-1 if name == "big_seeds"
                       else int(rng.integers(0, 2 ** 31)))
    background_depth = 10 if name == "int_background" else 40.0
    return SceneSpec(h, w, cam, 0.54, background_depth, tuple(objects), 0,
                     background_seed)


ORACLE_SCENES = ("overlap", "equal_depth", "disks", "fractional",
                 "out_of_frame", "occluded", "empty", "row", "column",
                 "int_background", "big_seeds")


@pytest.mark.parametrize("name", ORACLE_SCENES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_render_matches_painter_oracle(name, seed):
    spec = oracle_scene(name, seed)
    got = render(spec)
    want = painter_render(spec)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert np.array_equal(g, e)
    seg = got[3]
    if name == "equal_depth":
        # on equal depths the earlier object wins: object 1 keeps its whole
        # footprint
        assert (seg[spec.objects[0].mask(spec.height, spec.width)] == 1).all()
    if name == "occluded":
        assert not (seg == 2).any()
    if name == "empty":
        assert (seg == 0).all() and (got[2] == 40.0).all()
    if name == "int_background":
        near_obj = spec.objects[1].mask(spec.height, spec.width)
        assert (seg[near_obj] == 2).all() and (got[2][near_obj] == 2.5).all()


def kitti_like_scene(seed, h=72, w=240):
    """Eight rect/disk objects at depths in 3-30 m before a 40 m
    background, seen by a KITTI-like camera (fx = 0.58 W, 0.54 m baseline),
    so every disparity is fractional; rect corners are fractional too and
    may lie outside the frame."""
    rng = np.random.default_rng(seed)
    cam = geometry.Camera(0.58 * w, 1.92 * h, 0.5 * w - 0.5, 0.5 * h - 0.5)
    objects = []
    for _ in range(8):
        depth = float(rng.uniform(3.0, 30.0))
        cls = int(rng.integers(1, 6))
        tex = int(rng.integers(2 ** 31))
        if rng.random() < 0.5:
            r0, c0 = rng.uniform(-h / 8, h), rng.uniform(-w / 8, w)
            params = (r0, c0, r0 + rng.uniform(h / 8, h / 2),
                      c0 + rng.uniform(w / 16, w / 4))
            objects.append(ObjectSpec("rect", params, depth, cls, tex))
        else:
            params = (rng.uniform(0, h), rng.uniform(0, w),
                      rng.uniform(h / 16, h / 4))
            objects.append(ObjectSpec("disk", params, depth, cls, tex))
    return SceneSpec(h, w, cam, 0.54, 40.0, tuple(objects), 0,
                     int(rng.integers(2 ** 31)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_render_matches_painter_oracle_kitti_like(seed):
    spec = kitti_like_scene(seed)
    for g, e in zip(render(spec), painter_render(spec)):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert np.array_equal(g, e)


@pytest.mark.parametrize("shape, seed", [((70, 300), 0), ((1, 33), 1),
                                         ((29, 1), 2), ((7, 8), 3)])
def test_view_texture_matches_surface_texture(shape, seed):
    # in float64, before render's cast to float32 can hide a last-bit
    # difference
    rng = np.random.default_rng(seed)
    h, w = shape
    disps = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 4), [3.0]])
    seeds = np.array([0, 1, 2 ** 64 - 1, 7, 2 ** 40, 12345], dtype=np.uint64)
    owner = rng.integers(0, len(disps), shape)
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    want = surface_texture(rows, cols + disps[owner], owner, seeds[owner])
    got = np.empty(shape)
    synth._view_texture(owner.copy(), disps, seeds, got)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["overlap", "out_of_frame", "row"])
def test_render_evaluates_texture_once_per_pixel(name, monkeypatch):
    spec = oracle_scene(name, 0)
    evaluated = []
    view_texture = synth._view_texture

    def counting(owner, disps, seeds, out):
        evaluated.append(owner.size)
        view_texture(owner, disps, seeds, out)

    monkeypatch.setattr(synth, "_view_texture", counting)
    render(spec)
    assert sum(evaluated) == 2 * spec.height * spec.width


@pytest.mark.parametrize("spec", [kitti_like_scene(0),
                                  oracle_scene("overlap", 0),
                                  oracle_scene("column", 0)])
def test_render_hashes_each_lattice_point_once(spec, monkeypatch):
    h, w = spec.height, spec.width
    hashed = []
    hash_noise = synth._hash_noise

    def counting(iy, ix, seed):
        hashed.append(np.broadcast(iy, ix, seed).size)
        return hash_noise(iy, ix, seed)

    monkeypatch.setattr(synth, "_hash_noise", counting)
    render(spec)
    # the lattice a surface at disparity d needs: rows 0 .. (H-1)//5 + 1,
    # columns floor(d/5) .. floor((W-1+d)/5) + 1
    depths = [spec.background_depth] + [o.depth for o in spec.objects]
    ny = (h - 1) // 5 + 2
    for view, disp in enumerate((lambda d: 0.0, spec.disparity)):
        nx = max(math.floor((w - 1 + disp(d)) / 5) + 2
                 - math.floor(disp(d) / 5) for d in depths)
        assert hashed[view] <= len(depths) * ny * nx
    assert len(hashed) == 2
    # surface_texture hashes four points per pixel and view
    assert sum(hashed) < 4 * h * w


def test_render_peak_memory():
    spec = kitti_like_scene(0, 192, 640)
    assert traced_peak(render, spec) <= 16 * spec.height * spec.width * 8


@pytest.mark.parametrize("build", [
    lambda v: make_scene(height=v), lambda v: make_scene(width=v),
    lambda v: make_scene(background_class=v),
    lambda v: make_scene(background_texture_seed=v),
    lambda v: ObjectSpec("rect", (0, 0, 4, 4), 2.0, v, 0),
    lambda v: ObjectSpec("disk", (5, 5, 2), 2.0, 1, v),
    lambda v: CorruptionSpec(bleed_width=v),
    lambda v: CorruptionSpec(seed=v),
], ids=["height", "width", "background_class", "background_texture_seed",
        "class_id", "texture_seed", "bleed_width", "seed"])
def test_specs_require_integers(build):
    for value in (2.5, 3.0, np.float64(3.0), "3", True, None):
        with pytest.raises(SynthError, match="must be an integer"):
            build(value)
    build(3)
    build(np.int64(3))
    build(np.uint8(3))


@pytest.mark.parametrize("build", [
    lambda v: make_scene(background_class=v),
    lambda v: ObjectSpec("rect", (0, 0, 4, 4), 2.0, v, 0),
], ids=["background_class", "class_id"])
def test_class_ids_must_fit_in_int32(build):
    # the rendered labels are int32; such a class id made render raise
    # OverflowError
    for value in (3_000_000_000, 2 ** 31, -2 ** 31 - 1, np.uint64(2 ** 63)):
        with pytest.raises(SynthError, match="must fit in int32"):
            build(value)
    build(2 ** 31 - 1)
    build(np.int64(-2 ** 31))


@pytest.mark.parametrize("field, value", [
    ("baseline", float("nan")), ("baseline", float("inf")),
    ("background_depth", float("inf")), ("background_depth", float("nan")),
    # disparities fx * baseline / depth that overflow to inf
    ("baseline", 1e307),
    ("objects", (ObjectSpec("rect", (20, 50, 44, 74), 1e-307, 1, 5),)),
])
def test_scene_rejects_nonfinite_numbers(field, value):
    with pytest.raises(SynthError):
        make_scene(**{field: value})


@pytest.mark.parametrize("shape, params, depth", [
    ("rect", (0, 0, 4, 4), float("nan")),
    ("disk", (5, 5, 2), float("inf")),
    ("rect", (0, float("nan"), 4, 4), 2.0),
    ("rect", (0, 0, float("inf"), 4), 2.0),
    ("disk", (5, 5, float("nan")), 2.0),
    ("disk", (float("-inf"), 5, 2), 2.0),
    ("disk", (5, 5, -3), 2.0),
])
def test_object_rejects_nonfinite_numbers(shape, params, depth):
    with pytest.raises(SynthError):
        ObjectSpec(shape, params, depth, 1, 0)


@pytest.mark.parametrize("line, error", [
    ("baseline=nan", "'nan' is not finite"),
    ("background_depth=inf", "'inf' is not finite"),
    ("fx=inf", "'inf' is not finite"),
    ("seed=-inf", "'-inf' is not finite"),
    ("object=rect,0,0,4,4,nan,1,5", "'nan' is not finite"),
    ("object=rect,0,0,4,4,2.0,nan,5", "'nan' is not finite"),
    ("baseline=abc", "'abc' is not a number"),
    ("height=nan", "'nan' is not finite"),
])
def test_parse_scene_config_rejects_nonfinite_numbers(tmp_path, line, error):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\n" + line + "\n")
    with pytest.raises(SynthError, match=f"scene.cfg:9: {error}"):
        parse_scene_config(path)


@pytest.mark.parametrize("line", [
    "height=4.5", "width=3.9", "background_class=1.5",
    "background_texture_seed=0.1", "bleed_width=2.5", "seed=1e-3",
    "object=rect,0,0,4,4,2.0,1.9,5", "object=disk,2,2,1,2.0,1,5.5",
])
def test_parse_scene_config_rejects_fractional_integers(tmp_path, line):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\n" + line + "\n")
    with pytest.raises(SynthError, match="scene.cfg:9: .* is not an integer"):
        parse_scene_config(path)


def test_parse_scene_config_accepts_integral_floats(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4.0\nwidth=6\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\nbleed_width=2.0\n"
                    "object=rect,0,0,2,2,2.5,3.0,7\n")
    cfg = parse_scene_config(path)
    assert (cfg.scene.height, cfg.scene.width) == (4, 6)
    assert type(cfg.scene.height) is int
    assert cfg.corruption.bleed_width == 2
    obj = cfg.scene.objects[0]
    assert (obj.class_id, obj.texture_seed, obj.depth) == (3, 7, 2.5)


@pytest.mark.parametrize("depth", [
    np.zeros((0, 3)), np.zeros((3, 0)),
    np.array([[2.0, np.nan], [5.0, 5.0]]),
    np.array([[2.0, np.inf], [5.0, 5.0]]),
    np.array([[2.0, -np.inf], [5.0, 5.0]]),
])
def test_corrupt_rejects_empty_or_nonfinite_depth(depth):
    seg = np.zeros(depth.shape, np.int32)
    with pytest.raises(SynthError, match="non-empty and finite"):
        corrupt(depth, seg, CorruptionSpec(bleed_width=1))


def test_corrupt_rejects_a_shape_mismatch():
    with pytest.raises(SynthError, match="shape mismatch"):
        corrupt(np.full((4, 5), 2.0), np.zeros((5, 4), np.int32),
                CorruptionSpec(bleed_width=1))


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 3)])
def test_segmenter_rejects_nan(shape):
    img = np.full(shape, 0.5)
    img[1, 2] = np.nan
    with pytest.raises(SynthError, match="NaN"):
        intensity_segmenter()(img)


def test_segmenter_keeps_its_labels_on_finite_input():
    img = np.array([[0.0, 0.5, 0.999, 1.0, -3.0, 7.0, np.inf, -np.inf]])
    assert intensity_segmenter()(img).tolist() == [[0, 32, 63, 63, 0, 63,
                                                    63, 0]]
    assert intensity_segmenter()(np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("field, value", [
    ("baseline", 1e30),
    ("objects", (ObjectSpec("rect", (20, 50, 44, 74), 1e-38, 1, 5),)),
])
def test_scene_rejects_disparities_beyond_2_53(field, value):
    # finite, but the texture pass could not cast such columns to int64
    with pytest.raises(SynthError, match=r"below 2\*\*53"):
        make_scene(**{field: value})


@pytest.mark.parametrize("side", ["height", "width"])
def test_scene_bounds_each_side(side):
    assert getattr(make_scene(**{side: synth.MAX_SCENE_SIDE}),
                   side) == 2 ** 15
    with pytest.raises(SynthError, match="image sides must be at most 32768"):
        make_scene(**{side: synth.MAX_SCENE_SIDE + 1})


@pytest.mark.parametrize("line, error", [
    ("height=8", "repeated key 'height'"),
    ("object=rect,0,0,4,4", "malformed object"),
], ids=["repeated-key", "object-fields"])
def test_parse_scene_config_rejects_misread_lines(tmp_path, line, error):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\n" + line + "\n")
    with pytest.raises(SynthError, match=f"scene.cfg:9: {error}"):
        parse_scene_config(path)


@pytest.mark.parametrize("call, error", [
    (lambda: CorruptionSpec(bleed_width=-1), "bleed_width must be >= 0"),
    (lambda: CorruptionSpec(seg_flip_rate=1.5),
     r"seg_flip_rate must lie in \[0, 1\]"),
    (lambda: CorruptionSpec(seg_flip_rate=-0.1),
     r"seg_flip_rate must lie in \[0, 1\]"),
], ids=["negative-bleed", "flip-above-1", "flip-below-0"])
def test_corruption_rejects_invalid_settings(call, error):
    with pytest.raises(SynthError, match=error):
        call()


def test_parse_scene_config_names_a_missing_key(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\n")
    with pytest.raises(SynthError, match="scene.cfg: missing key "
                                         "background_depth"):
        parse_scene_config(path)
