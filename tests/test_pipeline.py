"""The mutual refinement pipeline end to end: segmentation refined by
depth, then depth refined by the refined segmentation through a warp, with
the reference simulators against the default implementation."""

import numpy as np
import pytest

from depthseg import geometry, refine, synth

H, W = 16, 48
BASELINE = 0.54


def kitti_like_frame(rng):
    """A small KITTI-like stereo frame: fx = 0.58 W, eight rect/disk
    objects at 3-30 m (fractional disparities) over six classes, depth bled
    by 4 px and two independent 10% label flips (the pseudo-label and the
    prediction)."""
    cam = geometry.Camera(0.58 * W, 1.92 * H, 0.5 * W - 0.5, 0.5 * H - 0.5)
    objects = []
    for i in range(8):
        depth = float(rng.uniform(3.0, 30.0))
        cls = i + 1 if i < 5 else int(rng.integers(1, 6))
        seed = int(rng.integers(2 ** 31))
        if rng.random() < 0.5:
            oh = int(rng.integers(H // 8, H // 2))
            ow = int(rng.integers(W // 16, W // 4))
            r0 = int(rng.integers(0, H - oh))
            c0 = int(rng.integers(0, W - ow))
            objects.append(synth.ObjectSpec(
                "rect", (r0, c0, r0 + oh, c0 + ow), depth, cls, seed))
        else:
            params = (rng.uniform(0, H), rng.uniform(0, W),
                      rng.uniform(H / 16, H / 4))
            objects.append(synth.ObjectSpec("disk", params, depth, cls, seed))
    spec = synth.SceneSpec(H, W, cam, BASELINE, 40.0, tuple(objects), 0,
                           int(rng.integers(2 ** 31)))
    left, right, depth, seg, _ = synth.render(spec)
    bad_depth, bad_seg = synth.corrupt(depth, seg, synth.CorruptionSpec(
        4, 0.1, int(rng.integers(2 ** 31))))
    _, y_hat = synth.corrupt(depth, seg, synth.CorruptionSpec(
        0, 0.1, int(rng.integers(2 ** 31))))
    return spec, left, right, bad_depth, bad_seg, y_hat


# With seed 0 the split leaves one confident depth pixel in the whole frame
# (the stripe segmenter loses most classes at fractional disparity; see
# ROADMAP item 3) and the depth pass changes nothing, so the comparison
# would be of two copies of the input.
@pytest.mark.parametrize("seed", [1, 2])
def test_mutual_refinement_reference_matches_default(seed):
    spec, left, right, bad_depth, bad_seg, y_hat = kitti_like_frame(
        np.random.default_rng(seed))
    assert any(spec.disparity(o.depth) % 1 for o in spec.objects)
    pose = geometry.Pose.stereo_baseline(BASELINE)
    segmenter = synth.intensity_segmenter(64)

    y_ref = refine.refine_segmentation_with_depth(bad_seg, y_hat, bad_depth)
    depth = refine.refine_depth_full(bad_depth, y_ref, left, right, pose,
                                     spec.camera, segmenter)
    y_oracle = refine.refine_segmentation_with_depth(
        bad_seg, y_hat, bad_depth, impl="reference")
    depth_oracle = refine.refine_depth_full(
        bad_depth, y_oracle, left, right, pose, spec.camera, segmenter,
        impl="reference")

    assert np.array_equal(y_ref, y_oracle)
    assert np.array_equal(depth, depth_oracle)
    # both passes did work, so the comparison is not of two copies of the
    # input
    assert not np.array_equal(y_ref, bad_seg)
    assert not np.array_equal(depth, bad_depth)
