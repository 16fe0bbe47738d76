import numpy as np
import pytest

from depthseg import geometry, synth
from depthseg.synth import (CorruptionSpec, ObjectSpec, SceneSpec, SynthError,
                            corrupt, intensity_segmenter, parse_scene_config,
                            render, surface_texture)


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


@pytest.mark.parametrize("name", ["overlap", "out_of_frame", "row"])
def test_render_evaluates_texture_once_per_pixel(name, monkeypatch):
    spec = oracle_scene(name, 0)
    evaluated = []

    def counting(rows, cols, surface_index, seed):
        evaluated.append(np.broadcast(rows, cols, surface_index, seed).size)
        return surface_texture(rows, cols, surface_index, seed)

    monkeypatch.setattr(synth, "surface_texture", counting)
    render(spec)
    assert sum(evaluated) == 2 * spec.height * spec.width


@pytest.mark.parametrize("field, value", [
    ("baseline", float("nan")), ("baseline", float("inf")),
    ("background_depth", float("inf")), ("background_depth", float("nan")),
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
])
def test_object_rejects_nonfinite_numbers(shape, params, depth):
    with pytest.raises(SynthError):
        ObjectSpec(shape, params, depth, 1, 0)


@pytest.mark.parametrize("line", [
    "baseline=nan", "background_depth=inf", "fx=inf",
    "object=rect,0,0,4,4,nan,1,5", "object=rect,0,0,4,4,2.0,nan,5",
    "baseline=abc", "height=nan",
])
def test_parse_scene_config_rejects_nonfinite_numbers(tmp_path, line):
    path = tmp_path / "scene.cfg"
    path.write_text("height=4\nwidth=4\nfx=1\nfy=1\ncx=1\ncy=1\n"
                    "baseline=1\nbackground_depth=5\n" + line + "\n")
    with pytest.raises(SynthError, match="scene.cfg:9: "):
        parse_scene_config(path)
