import numpy as np
import pytest

from depthseg import geometry
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
