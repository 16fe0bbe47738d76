"""Exact symmetries of the two refinement passes on 72x240 KITTI-like
frames. They need no per-pixel oracle: each compares a pass with itself on
transformed inputs, bit for bit.

- Doubling the depth (and, for the depth pass, the stereo baseline, so the
  disparities stay) doubles the refined depth and keeps the refined labels:
  scaling by 2 rounds nothing in binary floating point.
- Renaming the class ids by a bijection renames the refined labels and
  keeps the refined depth.
- The depth pass commutes with a vertical flip of every input when the
  camera's cy becomes H-1-cy. With cy = (H-1)/2 the row factors negate
  exactly. The seg pass breaks exact depth ties by scan order, so it is not
  flip-equivariant and is not tested here.
"""

import numpy as np
import pytest

from depthseg import geometry, synth
from depthseg.refine import (refine_depth_full,
                             refine_segmentation_with_depth)
from test_geometry import assert_bitwise

H, W = 72, 240
BASELINE = 0.54
SEEDS = [1, 2, 3]
# a bijection of the class ids 0..5 that keeps neither their order nor
# their range
RENAME = np.array([17, -3, 4, 900, 2, 11])


def kitti_frame(seed):
    """A 72x240 frame like the bench's mutual refinement: fx = 0.58 W,
    cy = (H-1)/2, eight rect/disk objects at 3-30 m over five object
    classes, depth bled by 4 px and two 10% label flips. Returns the
    camera, both views, the bled depth, the noisy labels and the
    prediction."""
    rng = np.random.default_rng(seed)
    cam = geometry.Camera(0.58 * W, 1.92 * H, (W - 1) / 2, (H - 1) / 2)
    objects = []
    for i in range(8):
        depth = float(rng.uniform(3.0, 30.0))
        cls = i + 1 if i < 5 else int(rng.integers(1, 6))
        if rng.random() < 0.5:
            oh = int(rng.integers(H // 8, H // 2))
            ow = int(rng.integers(W // 16, W // 4))
            r0 = int(rng.integers(0, H - oh))
            c0 = int(rng.integers(0, W - ow))
            shape, params = "rect", (r0, c0, r0 + oh, c0 + ow)
        else:
            shape = "disk"
            params = (rng.uniform(0, H), rng.uniform(0, W),
                      rng.uniform(H / 16, H / 4))
        objects.append(synth.ObjectSpec(shape, params, depth, cls,
                                        int(rng.integers(2 ** 31))))
    spec = synth.SceneSpec(H, W, cam, BASELINE, 40.0, tuple(objects), 0,
                           int(rng.integers(2 ** 31)))
    left, right, depth, seg, _ = synth.render(spec)
    bad_depth, bad_seg = synth.corrupt(depth, seg, synth.CorruptionSpec(
        4, 0.1, int(rng.integers(2 ** 31))))
    _, y_hat = synth.corrupt(depth, seg, synth.CorruptionSpec(
        0, 0.1, int(rng.integers(2 ** 31))))
    return cam, left, right, bad_depth, bad_seg, y_hat


def depth_pass(frame, y_ref, depth=None, baseline=BASELINE, cam=None,
               flip=False):
    """``refine_depth_full`` on a frame, with the depth, baseline or camera
    replaced, and every image and map flipped upside down on request."""
    cam0, left, right, bad_depth, _, _ = frame
    depth = bad_depth if depth is None else depth
    maps = [depth, y_ref, left, right]
    if flip:
        maps = [np.flipud(m) for m in maps]
    return refine_depth_full(*maps, geometry.Pose.stereo_baseline(baseline),
                             cam0 if cam is None else cam,
                             synth.intensity_segmenter(64))


@pytest.fixture(scope="module", params=SEEDS)
def frame(request):
    return kitti_frame(request.param)


@pytest.fixture(scope="module")
def y_ref(frame):
    _, _, _, bad_depth, bad_seg, y_hat = frame
    return refine_segmentation_with_depth(bad_seg, y_hat, bad_depth)


def test_frames_give_both_passes_work(frame, y_ref):
    # the symmetries below compare passes that change their inputs
    _, _, _, bad_depth, bad_seg, _ = frame
    assert not np.array_equal(y_ref, bad_seg)
    assert not np.array_equal(depth_pass(frame, y_ref), bad_depth)


def test_seg_pass_keeps_its_labels_when_the_depth_doubles(frame, y_ref):
    _, _, _, bad_depth, bad_seg, y_hat = frame
    assert_bitwise([refine_segmentation_with_depth(bad_seg, y_hat,
                                                   2.0 * bad_depth)], [y_ref])


def test_depth_pass_doubles_with_the_depth_and_baseline(frame, y_ref):
    _, _, _, bad_depth, _, _ = frame
    assert_bitwise([depth_pass(frame, y_ref, depth=2.0 * bad_depth,
                               baseline=2.0 * BASELINE)],
                   [2.0 * depth_pass(frame, y_ref)])


def test_seg_pass_renames_its_labels_with_the_class_ids(frame, y_ref):
    _, _, _, bad_depth, bad_seg, y_hat = frame
    assert_bitwise([refine_segmentation_with_depth(RENAME[bad_seg],
                                                   RENAME[y_hat], bad_depth)],
                   [RENAME[y_ref]])


def test_depth_pass_ignores_a_renaming_of_the_class_ids(frame, y_ref):
    assert_bitwise([depth_pass(frame, RENAME[y_ref])],
                   [depth_pass(frame, y_ref)])


def test_depth_pass_commutes_with_a_vertical_flip(frame, y_ref):
    cam = frame[0]
    flipped = geometry.Camera(cam.fx, cam.fy, cam.cx, H - 1 - cam.cy)
    assert flipped.cy == cam.cy
    assert_bitwise([np.flipud(depth_pass(frame, y_ref, cam=flipped,
                                         flip=True))],
                   [depth_pass(frame, y_ref)])
