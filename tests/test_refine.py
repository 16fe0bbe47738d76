import numpy as np
import pytest

from depthseg import geometry, refine, synth
from depthseg.refine import (RefineConfig, RefineError, RefineState,
                             refine_depth_full,
                             refine_depth_with_segmentation,
                             refine_segmentation_with_depth,
                             split_confidence_by_agreement,
                             split_confidence_by_consistency)
from test_geometry import traced_peak
from test_symmetry import BASELINE, kitti_frame


def test_config_validation():
    with pytest.raises(RefineError):
        RefineConfig(depth_threshold=0.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(RefineError, match="positive and finite"):
            RefineConfig(depth_threshold=bad)
    # the neighborhood is the 8-neighborhood; no setting changes it
    with pytest.raises(TypeError):
        RefineConfig(neighborhood_radius=1)


def test_config_max_iterations_validation():
    assert RefineConfig().max_iterations is None
    for cap in (None, 1, 700, np.int64(3)):
        assert RefineConfig(max_iterations=cap).max_iterations == cap
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(RefineError):
            RefineConfig(max_iterations=bad)


def test_split_by_agreement():
    y = np.array([[1, 2], [3, 3]])
    y_hat = np.array([[1, 0], [3, 1]])
    st = split_confidence_by_agreement(y, y_hat)
    assert st.confident.tolist() == [[True, False], [True, False]]
    assert (st.confident ^ st.unreliable).all()


@pytest.mark.parametrize("bad, error", [(np.nan, "finite"),
                                        (2.5, "whole numbers"),
                                        (3e9, "fit in int32")])
@pytest.mark.parametrize("which", [0, 1])
def test_split_by_agreement_rejects_bad_float_labels(bad, error, which):
    labels = [np.ones((2, 2)), np.ones((2, 2))]
    labels[which][0, 0] = bad
    with pytest.raises(RefineError, match=error):
        split_confidence_by_agreement(*labels)
    # the same map compared with itself
    with pytest.raises(RefineError, match=error):
        split_confidence_by_agreement(labels[which], labels[which])


@pytest.mark.parametrize("dtype", [int, np.float32])
def test_split_by_agreement_rejects_empty_label_maps(dtype):
    for shape in ((0, 3), (3, 0)):
        y = np.zeros(shape, dtype)
        with pytest.raises(RefineError, match="non-empty"):
            split_confidence_by_agreement(y, y)


def test_seg_fixture_small_threshold_keeps_label():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    depth = np.array([[1.0, 1.01, 5.0]])
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=0.005), impl)
        assert out.tolist() == [[0, 1, 0]], impl


def test_seg_fixture_large_threshold_relabels():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    depth = np.array([[1.0, 1.01, 5.0]])
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=0.1), impl)
        assert out.tolist() == [[0, 0, 0]], impl


def test_seg_relabel_takes_depth_closest_neighbor():
    # middle pixel is between two confident pixels; the right one is closer
    # in depth and must win even though the left comes first in raster order
    y = np.array([[0, 2, 1]])
    y_hat = np.array([[0, 0, 1]])
    depth = np.array([[1.0, 2.9, 3.0]])
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=10.0), impl)
        assert out[0, 1] == 1, impl


def test_seg_tie_breaks_to_earliest_raster_neighbor():
    y = np.array([[0, 2, 1]])
    y_hat = np.array([[0, 0, 1]])
    depth = np.array([[2.0, 3.0, 4.0]])  # both neighbors at distance 1.0
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=10.0), impl)
        assert out[0, 1] == 0, impl


def test_seg_wavefront_propagates_across_unreliable_region():
    # only the leftmost pixel is confident; labels sweep rightward over
    # several iterations since depth steps are below the threshold
    y = np.array([[5, 1, 2, 3]])
    y_hat = np.array([[5, 0, 0, 0]])
    depth = np.array([[1.0, 1.01, 1.02, 1.03]])
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=0.05), impl)
        assert out.tolist() == [[5, 5, 5, 5]], impl


def test_seg_unreached_pixels_keep_labels():
    y = np.array([[1, 1]])
    y_hat = np.array([[0, 0]])  # nothing is confident, nothing propagates
    depth = np.ones((1, 2))
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(depth_threshold=1.0), impl)
        assert out.tolist() == [[1, 1]], impl


def test_seg_default_threshold_is_five_percent_of_median():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    # median confident depth 3.0 -> threshold 0.15
    depth = np.array([[2.0, 2.12, 4.0]])
    depth2 = np.array([[2.0, 2.22, 4.0]])  # gaps 0.22 / 1.78 exceed 0.15
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(y, y_hat, depth, impl=impl)
        assert out[0, 1] == 0, impl
        out2 = refine_segmentation_with_depth(y, y_hat, depth2, impl=impl)
        assert out2[0, 1] == 1, impl


def test_seg_rejects_nonpositive_depth():
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError):
            refine_segmentation_with_depth(np.zeros((2, 2), int),
                                           np.zeros((2, 2), int),
                                           np.zeros((2, 2)), impl=impl)


@pytest.mark.parametrize("bad, error", [(np.nan, "finite"),
                                        (1.5, "whole numbers")])
@pytest.mark.parametrize("which", [0, 1])
def test_seg_rejects_float_labels_that_are_not_whole(bad, error, which):
    for impl in ("parallel", "reference"):
        labels = [np.zeros((2, 4)), np.zeros((2, 4))]
        labels[which][1, 1] = bad
        with pytest.raises(RefineError, match=error):
            refine_segmentation_with_depth(*labels, np.ones((2, 4)),
                                           impl=impl)
        # whole float labels keep their dtype
        labels[which][1, 1] = 1.0
        out = refine_segmentation_with_depth(*labels, np.ones((2, 4)),
                                             impl=impl)
        assert out.dtype == np.float64, impl


def test_depth_fixture_clips_into_confident_range():
    # one value above the confident range [2.0, 2.2], one below it
    depth = np.array([[2.0, 9.0, 2.2],
                      [2.0, 0.5, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]] * 2),
                     unreliable=np.array([[False, True, False]] * 2))
    for impl in ("parallel", "reference"):
        out = refine_depth_with_segmentation(depth, [st], impl=impl)
        assert np.allclose(out, [[2.0, 2.2, 2.2],
                                 [2.0, 2.0, 2.2]]), impl


def test_depth_value_inside_range_is_unchanged():
    depth = np.array([[2.0, 2.1, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]]),
                     unreliable=np.array([[False, True, False]]))
    for impl in ("parallel", "reference"):
        out = refine_depth_with_segmentation(depth, [st], impl=impl)
        assert np.allclose(out, depth), impl


def test_depth_no_new_extremes():
    rng = np.random.default_rng(7)
    depth = rng.random((16, 16)) * 5 + 1
    conf = rng.random((16, 16)) < 0.3
    st = RefineState(confident=conf, unreliable=~conf)
    lo = min(depth[conf].min(), depth.min())
    hi = max(depth[conf].max(), depth.max())
    for impl in ("parallel", "reference"):
        out = refine_depth_with_segmentation(depth, [st], impl=impl)
        assert out.min() >= lo - 1e-12 and out.max() <= hi + 1e-12, impl
        # confident pixels never change
        assert np.array_equal(out[conf], depth[conf]), impl


def test_depth_classes_do_not_interact():
    depth = np.array([[1.0, 50.0, 1.1],
                      [1.0, 50.0, 1.1]])
    seg = np.array([[0, 1, 0],
                    [0, 1, 0]])
    conf = np.array([[True, False, True],
                     [True, True, True]])
    states = []
    for k in (0, 1):
        mask = seg == k
        states.append(RefineState(confident=mask & conf,
                                  unreliable=mask & ~conf))
    for impl in ("parallel", "reference"):
        out = refine_depth_with_segmentation(depth, states, impl=impl)
        # the unreliable class-1 pixel has no confident class-1 neighbor, so
        # the surrounding class-0 values must not clip it
        assert out[0, 1] == 50.0, impl


@pytest.mark.parametrize("impl", ["parallel", "reference"])
def test_depth_seam_pixel_takes_only_its_own_class_range(impl):
    # class 0 in columns 0-2, class 1 in columns 3-4, confident at the two
    # ends. Iteration 1 confirms columns 1 and 3; in iteration 2 the column 2
    # pixels border newly confirmed pixels of both classes and must clip
    # into the class-0 range [2, 3] alone, not [2, 8]
    depth = np.array([[2.0, 5.0, 6.0, 1.0, 9.0],
                      [3.0, 0.5, 2.5, 8.0, 7.0]])
    seg = np.array([[0, 0, 0, 1, 1]] * 2)
    conf = np.array([[True, False, False, False, True]] * 2)
    states = [RefineState(confident=(seg == k) & conf,
                          unreliable=(seg == k) & ~conf) for k in (0, 1)]
    first = refine_depth_with_segmentation(
        depth, states, RefineConfig(max_iterations=1), impl)
    assert np.array_equal(first, [[2.0, 3.0, 6.0, 7.0, 9.0],
                                  [3.0, 2.0, 2.5, 8.0, 7.0]])
    out = refine_depth_with_segmentation(depth, states, impl=impl)
    assert np.array_equal(out, [[2.0, 3.0, 3.0, 7.0, 9.0],
                                [3.0, 2.0, 2.5, 8.0, 7.0]])


def test_depth_pass_from_the_open_side_matches_reference_at_every_cap():
    # 92% of the pixels confident, as in the CLI pipeline's frames: the
    # first pushers are only the confident pixels next to an open one. A
    # 6x6 open block takes the wavefront more than one iteration deep
    rng = np.random.default_rng(92)
    h, w = 20, 32
    depth = rng.random((h, w)) * 4 + 1
    conf = rng.random((h, w)) < 0.96
    conf[6:12, 10:16] = False
    assert 0.9 < conf.mean() < 0.94
    seg = np.kron(rng.integers(0, 3, (h // 2, w // 2)), np.ones((2, 2), int))
    states = [RefineState(confident=(seg == k) & conf,
                          unreliable=(seg == k) & ~conf) for k in range(3)]
    offsets = geometry._flat_offsets(w + 2)
    open_flat = refine._pad_flat(~conf, False)
    pushers = refine._first_frontier(
        open_flat, offsets, refine._pad_flat(conf, False),
        np.empty(open_flat.size, dtype=np.intp))
    assert 0 < pushers.size < conf.sum()
    full = refine_depth_with_segmentation(depth, states, impl="reference")
    n = max(_wavefront_depth(st.confident, st.unreliable) for st in states)
    assert n >= 2
    for cap in (*range(1, n + 2), None):
        cfg = RefineConfig(max_iterations=cap)
        a = refine_depth_with_segmentation(depth, states, cfg, "parallel")
        b = refine_depth_with_segmentation(depth, states, cfg, "reference")
        assert np.array_equal(a, b), cap
    assert np.array_equal(a, full) and not np.array_equal(a, depth)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_depth_rejects_nonfinite_depth(bad):
    depth = np.array([[2.0, bad, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]]),
                     unreliable=np.array([[False, True, False]]))
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError):
            refine_depth_with_segmentation(depth, [st], impl=impl)


def test_depth_rejects_overlapping_states():
    depth = np.array([[2.0, 9.0, 2.2]])
    a = RefineState(confident=np.array([[True, False, False]]),
                    unreliable=np.array([[False, True, False]]))
    b = RefineState(confident=np.array([[False, False, True]]),
                    unreliable=np.array([[False, True, False]]))
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError):
            refine_depth_with_segmentation(depth, [a, b], impl=impl)


def test_split_by_consistency_marks_invalid_warp_unreliable():
    depth = np.ones((2, 2))
    seg = np.zeros((2, 2), int)
    y_t = np.zeros((2, 2), int)
    y_st = np.zeros((2, 2), int)
    valid = np.array([[True, False], [True, True]])
    states = split_confidence_by_consistency(depth, seg, y_t, y_st, valid,
                                             (0,))
    assert states[0].unreliable[0, 1]
    assert states[0].confident.sum() == 3


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_split_by_consistency_rejects_a_warp_valid_mask_that_is_not_bool(
        dtype):
    # a uint8 mask is what ``depthseg warp --out-valid`` writes
    ones = np.ones((2, 2), int)
    with pytest.raises(RefineError, match="warp_valid must be bool, got "
                                          + np.dtype(dtype).name):
        split_confidence_by_consistency(np.ones((2, 2)), ones, ones, ones,
                                        np.ones((2, 2), dtype), (1,))


def test_split_by_consistency_rejects_unknown_class():
    depth = np.ones((2, 3))
    seg = np.array([[0, 3, 1], [0, 1, 3]])
    with pytest.raises(RefineError, match=r"classes \[1, 3\] present"):
        split_confidence_by_consistency(depth, seg, seg, seg,
                                        np.ones((2, 3), bool), (0,))


def _half_fractional_labels():
    """A (4, 6) map: 12 pixels of class 0 and 12 of the non-class 1.5."""
    seg = np.zeros((4, 6))
    seg[:, 3:] = 1.5
    return seg


def test_split_by_consistency_rejects_fractional_labels():
    # 1.5 is not class 1: the states would cover only 12 of the 24 pixels
    seg = _half_fractional_labels()
    with pytest.raises(RefineError, match=r"classes \[1\.5\] present"):
        split_confidence_by_consistency(np.ones((4, 6)), seg, seg, seg,
                                        np.ones((4, 6), bool),
                                        (0, 1))


def test_refine_depth_full_rejects_fractional_labels():
    seg = _half_fractional_labels()
    img = np.random.default_rng(2).random((4, 6))
    with pytest.raises(RefineError, match=r"classes \[1\.5\] present"):
        refine_depth_full(np.full((4, 6), 3.0), seg, img, img,
                          geometry.Pose.identity(),
                          geometry.Camera(10, 10, 2.5, 1.5),
                          lambda im: np.zeros(np.shape(im), np.int32))


@pytest.mark.parametrize("classes", [(0, 1.5), (0, "1"), (0, np.nan),
                                     (0, np.inf), (0, None)])
def test_split_by_consistency_rejects_non_integral_class_ids(classes):
    seg = np.array([[0, 1], [1, 0]])
    with pytest.raises(RefineError, match="not an integral number"):
        split_confidence_by_consistency(np.ones((2, 2)), seg, seg, seg,
                                        np.ones((2, 2), bool), classes)


def test_split_by_consistency_takes_integral_float_class_ids():
    seg = np.array([[0, 1], [1, 0]])
    for classes in ((0.0, 1.0), np.array([0.0, 1.0]), np.unique(seg)):
        states = split_confidence_by_consistency(
            np.ones((2, 2)), seg, seg, seg, np.ones((2, 2), bool), classes)
        assert [int(st.confident.sum()) for st in states] == [2, 2]


def test_refine_depth_full_rejects_nan_labels():
    seg = np.zeros((4, 6))
    seg[1, 2] = np.nan
    img = np.random.default_rng(2).random((4, 6))
    with pytest.raises(RefineError, match=r"classes \[nan\] present"):
        refine_depth_full(np.full((4, 6), 3.0), seg, img, img,
                          geometry.Pose.identity(),
                          geometry.Camera(10, 10, 2.5, 1.5),
                          lambda im: np.zeros(np.shape(im), np.int32))


def test_split_by_consistency_allows_absent_classes():
    depth = np.ones((2, 2))
    seg = np.array([[0, 2], [0, 2]])
    states = split_confidence_by_consistency(depth, seg, seg, seg,
                                             np.ones((2, 2), bool),
                                             (2, 1, 0))
    assert [int(st.confident.sum()) for st in states] == [2, 0, 2]
    assert not any(st.unreliable.any() for st in states)


def test_split_by_consistency_rejects_duplicate_classes():
    seg = np.zeros((2, 2), int)
    with pytest.raises(RefineError, match="duplicate class ids"):
        split_confidence_by_consistency(np.ones((2, 2)), seg, seg, seg,
                                        np.ones((2, 2), bool), (0, 1, 0))


def test_parallel_matches_reference():
    rng = np.random.default_rng(11)
    # 20 images up to 16x16, then 10 of 1-3 pixels a side, where nearly
    # every pixel has neighbors in the padding
    for i in range(30):
        h, w = rng.integers(2, 17, 2) if i < 20 else rng.integers(1, 4, 2)
        depth = rng.random((h, w)) * 8 + 0.5
        y = rng.integers(0, 4, (h, w))
        y_hat = rng.integers(0, 4, (h, w))
        cfg = RefineConfig(depth_threshold=float(rng.random() * 0.6 + 0.01))
        a = refine_segmentation_with_depth(y, y_hat, depth, cfg, "parallel")
        b = refine_segmentation_with_depth(y, y_hat, depth, cfg, "reference")
        assert np.array_equal(a, b)
        # depth pass: 2x2 blocks of three classes, so confident pixels of
        # different classes touch everywhere and a leak across classes shows
        seg = np.kron(rng.integers(0, 3, (h // 2 + 1, w // 2 + 1)),
                      np.ones((2, 2), int))[:h, :w]
        conf = rng.random((h, w)) < 0.3
        states = [RefineState(confident=(seg == k) & conf,
                              unreliable=(seg == k) & ~conf)
                  for k in range(3)]
        a = refine_depth_with_segmentation(depth, states, cfg, "parallel")
        b = refine_depth_with_segmentation(depth, states, cfg, "reference")
        assert np.array_equal(a, b)


# longer than 512, the cap that once applied when none was given
LONG_RUN = 700


@pytest.mark.parametrize("impl", ["parallel", "reference"])
def test_seg_long_run_reaches_fixed_point(impl):
    # only the first pixel agrees with the prediction; its label sweeps the
    # run one pixel per iteration
    y = np.arange(LONG_RUN)[None, :] % 3 + 1
    y[0, 0] = 0
    y_hat = np.zeros_like(y)
    depth = np.ones(y.shape)
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.5), impl)
    assert (out == 0).all()
    capped = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.5, max_iterations=512),
        impl)
    assert (capped != y).sum() == 512


@pytest.mark.parametrize("impl", ["parallel", "reference"])
def test_depth_long_strip_reaches_fixed_point(impl):
    depth = np.full((1, LONG_RUN), 9.0)
    depth[0, 0] = 2.0
    conf = np.zeros(depth.shape, dtype=bool)
    conf[0, 0] = True
    st = RefineState(confident=conf, unreliable=~conf)
    out = refine_depth_with_segmentation(depth, [st], RefineConfig(), impl)
    assert (out == 2.0).all()


def _dilate(mask):
    """``mask`` grown by one pixel in each of the eight directions."""
    h, w = mask.shape
    padded = np.pad(mask, 1)
    grown = np.zeros_like(mask)
    for dr in range(3):
        for dc in range(3):
            grown |= padded[dr:dr + h, dc:dc + w]
    return grown


def _wavefront_depth(confident, candidates):
    """Iterations a wavefront from ``confident`` takes to reach every
    candidate it can reach, counted by repeated 3x3 dilation."""
    reached = confident.copy()
    todo = candidates & ~confident
    iterations = 0
    while True:
        step = _dilate(reached) & todo
        if not step.any():
            return iterations
        reached |= step
        todo &= ~step
        iterations += 1


def test_parallel_matches_reference_at_every_cap():
    rng = np.random.default_rng(101)
    # 1-pixel-wide and 1-pixel-tall images, and 2x2, where the padding at
    # the image edge is next to every pixel
    for h, w in ((9, 13), (12, 7), (1, 17), (15, 1), (2, 2)):
        depth = rng.random((h, w)) * 4 + 1
        conf = rng.random((h, w)) < 0.15
        conf.flat[rng.integers(h * w)] = True

        y = rng.integers(0, 3, (h, w))
        y_hat = np.where(conf, y, y + 1)
        # classes 0-2 in 2x2 blocks; class 3 holds the last pixel and has
        # no confident pixel, so it is never reached
        seg = np.kron(rng.integers(0, 3, (h // 2 + 1, w // 2 + 1)),
                      np.ones((2, 2), int))[:h, :w]
        seg[-1, -1] = 3
        states = [RefineState(confident=(seg == k) & conf & (k != 3),
                              unreliable=(seg == k) & ~(conf & (k != 3)))
                  for k in range(4)]
        full = _check_every_cap(y, y_hat, depth, states)
        assert full[-1, -1] == depth[-1, -1]


def _check_every_cap(y, y_hat, depth, states):
    """Both passes, parallel against reference, at every cap up to one past
    the fixed point, and against the uncapped reference from the fixed
    point on; the uncapped depth."""
    base = dict(depth_threshold=1.0)
    conf = y == y_hat
    full = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(**base), "reference")
    n = _wavefront_depth(conf, ~conf)
    for cap in range(1, n + 2):
        cfg = RefineConfig(max_iterations=cap, **base)
        a = refine_segmentation_with_depth(y, y_hat, depth, cfg, "parallel")
        b = refine_segmentation_with_depth(y, y_hat, depth, cfg, "reference")
        assert np.array_equal(a, b), cap
        assert cap < n or np.array_equal(a, full), cap
    full = refine_depth_with_segmentation(
        depth, states, RefineConfig(**base), "reference")
    n = max(_wavefront_depth(st.confident, st.unreliable) for st in states)
    for cap in range(1, n + 2):
        cfg = RefineConfig(max_iterations=cap, **base)
        a = refine_depth_with_segmentation(depth, states, cfg, "parallel")
        b = refine_depth_with_segmentation(depth, states, cfg, "reference")
        assert np.array_equal(a, b), cap
        assert cap < n or np.array_equal(a, full), cap
    return full


# below one half the first frontier is found from the confident pixels,
# above it from the open ones
@pytest.mark.parametrize("share", [0.05, 0.3, 0.7, 0.95])
def test_parallel_matches_reference_at_every_confident_share(share):
    rng = np.random.default_rng(int(share * 100))
    h, w = 11, 17
    depth = rng.random((h, w)) * 4 + 1
    conf = rng.random((h, w)) < share
    conf.flat[rng.integers(h * w)] = True
    conf.flat[rng.integers(h * w)] = False
    assert (conf.sum() < (~conf).sum()) == (share < 0.5)
    y = rng.integers(0, 3, (h, w))
    y_hat = np.where(conf, y, y + 1)
    seg = np.kron(rng.integers(0, 3, (h // 2 + 1, w // 2 + 1)),
                  np.ones((2, 2), int))[:h, :w]
    states = [RefineState(confident=(seg == k) & conf,
                          unreliable=(seg == k) & ~conf) for k in range(3)]
    _check_every_cap(y, y_hat, depth, states)


@pytest.mark.parametrize("share", [0.05, 0.3, 0.7, 0.95])
def test_first_frontier_holds_every_pixel_that_can_be_confirmed(share):
    rng = np.random.default_rng(7)
    h, w = 9, 14
    conf = rng.random((h, w)) < share
    open_ = ~conf & (rng.random((h, w)) < 0.9)
    offsets = geometry._flat_offsets(w + 2)
    open_flat = refine._pad_flat(open_, False)
    slot = np.empty(open_flat.size, dtype=np.intp)
    got = refine._first_frontier(refine._pad_flat(conf, False), offsets,
                                 open_flat.copy(), slot)
    assert np.unique(got).size == got.size
    # the open pixels next to a confident one, and from the open side every
    # open pixel
    expect = open_ & _dilate(conf) if share < 0.5 else open_
    assert np.array_equal(np.sort(got),
                          np.flatnonzero(refine._pad_flat(expect, False)))
    # the depth pass's first pushers: the confident pixels next to an open
    # one, and from the confident side every confident pixel
    got = refine._first_frontier(open_flat, offsets,
                                 refine._pad_flat(conf, False), slot)
    assert np.unique(got).size == got.size
    expect = conf & _dilate(open_) if open_.sum() < conf.sum() else conf
    assert np.array_equal(np.sort(got),
                          np.flatnonzero(refine._pad_flat(expect, False)))


def _kitti_like_inputs(seed):
    """``test_symmetry.kitti_frame(seed)``'s seg pass inputs and the depth
    pass's states from its refined labels."""
    cam, left, right, bad_depth, bad_seg, y_hat = kitti_frame(seed)
    y_ref = refine_segmentation_with_depth(bad_seg, y_hat, bad_depth)
    segmenter = synth.intensity_segmenter(64)
    warped, valid = geometry.warp(right, bad_depth,
                                  geometry.Pose.stereo_baseline(BASELINE), cam)
    states = split_confidence_by_consistency(
        bad_depth, y_ref, segmenter(left), segmenter(warped), valid,
        np.unique(y_ref))
    return bad_seg, y_hat, bad_depth, states


def test_parallel_matches_reference_on_kitti_like_frame():
    y, y_hat, depth, states = _kitti_like_inputs(1)
    # most depth pixels are unreliable, so the depth pass starts from the
    # confident side; most labels agree, so the seg pass starts from the
    # open side
    confident = sum(int(st.confident.sum()) for st in states)
    assert confident < 0.2 * depth.size
    assert (y == y_hat).mean() > 0.5
    a = refine_segmentation_with_depth(y, y_hat, depth, impl="parallel")
    b = refine_segmentation_with_depth(y, y_hat, depth, impl="reference")
    assert np.array_equal(a, b) and not np.array_equal(a, y)
    # the reference takes about half a second a pass here, so two caps and
    # the fixed point
    for cap in (1, 2, None):
        cfg = RefineConfig(max_iterations=cap)
        a = refine_depth_with_segmentation(depth, states, cfg, "parallel")
        b = refine_depth_with_segmentation(depth, states, cfg, "reference")
        assert np.array_equal(a, b), cap
    assert not np.array_equal(a, depth)


def test_depth_pass_peak_memory():
    # a deterministic 72x240 frame with 85% of its pixels unreliable; a
    # first iteration over every unreliable pixel peaked at 30 H*W*8 bytes
    _, _, depth, states = _kitti_like_inputs(4)
    unreliable = sum(int(st.unreliable.sum()) for st in states)
    assert 0.8 < unreliable / depth.size < 0.9
    assert traced_peak(refine_depth_with_segmentation, depth, states) \
        <= 20 * depth.size * 8


@pytest.mark.parametrize("shape", [(12,), (3, 4, 2)])
def test_passes_reject_maps_that_are_not_2d(shape):
    depth = np.full(shape, 2.0)
    y = np.zeros(shape, int)
    conf = np.zeros(shape, bool)
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError, match="2-D"):
            refine_segmentation_with_depth(y, y, depth, impl=impl)
        with pytest.raises(RefineError, match="2-D"):
            refine_depth_with_segmentation(
                depth, [RefineState(confident=conf, unreliable=~conf)],
                impl=impl)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
def test_state_rejects_masks_that_are_not_bool(dtype):
    conf = np.array([[1, 0, 1]], dtype=dtype)
    with pytest.raises(RefineError, match="must be bool"):
        RefineState(confident=conf, unreliable=1 - conf)
    with pytest.raises(RefineError, match="must be bool"):
        RefineState(confident=conf.astype(bool), unreliable=1 - conf)


def test_state_rejects_masks_of_different_shapes():
    with pytest.raises(RefineError, match="shape mismatch"):
        RefineState(confident=np.ones((2, 3), bool),
                    unreliable=np.zeros((3, 2), bool))


@pytest.mark.parametrize("which", ["target", "source"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refine_depth_full_rejects_nonfinite_images(which, bad):
    img = np.random.default_rng(3).random((4, 6))
    broken = img.copy()
    broken[2, 3] = bad
    target, source = (broken, img) if which == "target" else (img, broken)
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError, match="finite"):
            refine_depth_full(np.full((4, 6), 3.0), np.zeros((4, 6), int),
                              target, source, geometry.Pose.identity(),
                              geometry.Camera(10, 10, 2.5, 1.5),
                              synth.intensity_segmenter(64), impl=impl)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_passes_reject_empty_depth(shape):
    depth = np.zeros(shape)
    y = np.zeros(shape, int)
    conf = np.zeros(shape, bool)
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError, match="non-empty"):
            refine_segmentation_with_depth(y, y, depth, impl=impl)
        with pytest.raises(RefineError, match="non-empty"):
            refine_depth_with_segmentation(
                depth, [RefineState(confident=conf, unreliable=~conf)],
                impl=impl)


def test_state_rejects_overlapping_sets():
    mask = np.array([[True, False]])
    with pytest.raises(RefineError, match="overlap"):
        RefineState(confident=mask, unreliable=mask)


@pytest.mark.parametrize("shape", [(4, 7), (3, 6), (4, 6, 1)])
def test_refine_depth_full_rejects_misshaped_segmenter_output(shape):
    for impl in ("parallel", "reference"):
        with pytest.raises(RefineError, match="shape mismatch"):
            refine_depth_full(np.full((4, 6), 3.0), np.zeros((4, 6), int),
                              np.ones((4, 6)), np.ones((4, 6)),
                              geometry.Pose.identity(),
                              geometry.Camera(10, 10, 2.5, 1.5),
                              lambda img: np.zeros(shape, int), impl=impl)


def test_seg_pass_without_a_confident_pixel_changes_nothing():
    # every label disagrees with the prediction, so the default threshold
    # has no confident depth to resolve from and no pixel is reached
    rng = np.random.default_rng(11)
    y = rng.integers(0, 3, (5, 7))
    y_hat = (y + 1) % 3
    depth = 1.0 + rng.random((5, 7))
    for impl in ("parallel", "reference"):
        out = refine_segmentation_with_depth(y, y_hat, depth, impl=impl)
        assert np.array_equal(out, y)


@pytest.mark.parametrize("depth", [np.full((4, 6), -1.0),
                                   np.full((4, 6), np.nan),
                                   np.full((4, 6, 1), 3.0)],
                         ids=["negative", "nan", "3-d"])
def test_refine_depth_full_rejects_bad_depth_on_entry(depth):
    img = np.random.default_rng(3).random((4, 6))
    with pytest.raises(RefineError, match="depth must be"):
        refine_depth_full(depth, np.zeros((4, 6), int), img, img,
                          geometry.Pose.identity(),
                          geometry.Camera(10, 10, 2.5, 1.5),
                          synth.intensity_segmenter(64))


@pytest.mark.parametrize("run_pass", [
    lambda impl: refine_segmentation_with_depth(
        np.zeros((2, 3), int), np.zeros((2, 3), int), np.ones((2, 3)),
        impl=impl),
    lambda impl: refine_depth_with_segmentation(
        np.ones((2, 3)), [RefineState(confident=np.ones((2, 3), bool),
                                      unreliable=np.zeros((2, 3), bool))],
        impl=impl),
], ids=["seg-pass", "depth-pass"])
def test_passes_reject_an_unknown_impl(run_pass):
    with pytest.raises(RefineError, match="unknown impl 'fast'"):
        run_pass("fast")
