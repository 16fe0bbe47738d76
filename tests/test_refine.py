import numpy as np
import pytest

from depthseg.refine import (ClassSet, RefineConfig, RefineError,
                             RefineState, refine_depth_with_segmentation,
                             refine_segmentation_with_depth,
                             split_confidence_by_agreement,
                             split_confidence_by_consistency)


def test_config_validation():
    with pytest.raises(RefineError):
        RefineConfig(depth_threshold=0.0)
    with pytest.raises(RefineError):
        RefineConfig(neighborhood_radius=0)


def test_config_max_iterations_validation():
    assert RefineConfig().max_iterations is None
    for cap in (None, 1, 700, np.int64(3)):
        assert RefineConfig(max_iterations=cap).max_iterations == cap
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(RefineError):
            RefineConfig(max_iterations=bad)


def test_config_neighborhood_radius_validation():
    for radius in (1, 3, np.int64(2)):
        assert RefineConfig(neighborhood_radius=radius).neighborhood_radius \
            == radius
    for bad in (0, -1, 1.5, 2.0, True, "2"):
        with pytest.raises(RefineError):
            RefineConfig(neighborhood_radius=bad)


def test_split_by_agreement():
    y = np.array([[1, 2], [3, 3]])
    y_hat = np.array([[1, 0], [3, 1]])
    st = split_confidence_by_agreement(y, y_hat)
    assert st.confident.tolist() == [[True, False], [True, False]]
    assert (st.confident ^ st.unreliable).all()


def test_seg_fixture_small_threshold_keeps_label():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    depth = np.array([[1.0, 1.01, 5.0]])
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.005))
    assert out.tolist() == [[0, 1, 0]]


def test_seg_fixture_large_threshold_relabels():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    depth = np.array([[1.0, 1.01, 5.0]])
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.1))
    assert out.tolist() == [[0, 0, 0]]


def test_seg_relabel_takes_depth_closest_neighbor():
    # middle pixel is between two confident pixels; the right one is closer
    # in depth and must win even though the left comes first in raster order
    y = np.array([[0, 2, 1]])
    y_hat = np.array([[0, 0, 1]])
    depth = np.array([[1.0, 2.9, 3.0]])
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=10.0))
    assert out[0, 1] == 1


def test_seg_tie_breaks_to_earliest_raster_neighbor():
    y = np.array([[0, 2, 1]])
    y_hat = np.array([[0, 0, 1]])
    depth = np.array([[2.0, 3.0, 4.0]])  # both neighbors at distance 1.0
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=10.0))
    assert out[0, 1] == 0


def test_seg_wavefront_propagates_across_unreliable_region():
    # only the leftmost pixel is confident; labels sweep rightward over
    # several iterations since depth steps are below the threshold
    y = np.array([[5, 1, 2, 3]])
    y_hat = np.array([[5, 0, 0, 0]])
    depth = np.array([[1.0, 1.01, 1.02, 1.03]])
    out = refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.05))
    assert out.tolist() == [[5, 5, 5, 5]]


def test_seg_unreached_pixels_keep_labels():
    y = np.array([[1, 1]])
    y_hat = np.array([[0, 0]])  # nothing is confident, nothing propagates
    depth = np.ones((1, 2))
    out = refine_segmentation_with_depth(y, y_hat, depth,
                                         RefineConfig(depth_threshold=1.0))
    assert out.tolist() == [[1, 1]]


def test_seg_default_threshold_is_five_percent_of_median():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    # median confident depth 3.0 -> threshold 0.15
    depth = np.array([[2.0, 2.12, 4.0]])
    out = refine_segmentation_with_depth(y, y_hat, depth, RefineConfig())
    assert out[0, 1] == 0
    depth2 = np.array([[2.0, 2.22, 4.0]])  # gaps 0.22 / 1.78 exceed 0.15
    out2 = refine_segmentation_with_depth(y, y_hat, depth2, RefineConfig())
    assert out2[0, 1] == 1


def test_seg_rejects_nonpositive_depth():
    with pytest.raises(RefineError):
        refine_segmentation_with_depth(np.zeros((2, 2), int),
                                       np.zeros((2, 2), int),
                                       np.zeros((2, 2)))


def test_depth_fixture_clips_into_confident_range():
    depth = np.array([[2.0, 9.0, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]]),
                     unreliable=np.array([[False, True, False]]))
    out = refine_depth_with_segmentation(depth, [st])
    assert np.allclose(out, [[2.0, 2.2, 2.2]])


def test_depth_value_inside_range_is_unchanged():
    depth = np.array([[2.0, 2.1, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]]),
                     unreliable=np.array([[False, True, False]]))
    out = refine_depth_with_segmentation(depth, [st])
    assert np.allclose(out, depth)


def test_depth_no_new_extremes():
    rng = np.random.default_rng(7)
    depth = rng.random((16, 16)) * 5 + 1
    conf = rng.random((16, 16)) < 0.3
    st = RefineState(confident=conf, unreliable=~conf)
    out = refine_depth_with_segmentation(depth, [st])
    lo = min(depth[conf].min(), depth.min())
    hi = max(depth[conf].max(), depth.max())
    assert out.min() >= lo - 1e-12 and out.max() <= hi + 1e-12
    # confident pixels never change
    assert np.array_equal(out[conf], depth[conf])


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
    out = refine_depth_with_segmentation(depth, states)
    # the unreliable class-1 pixel has no confident class-1 neighbor, so the
    # surrounding class-0 values must not clip it
    assert out[0, 1] == 50.0


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
                                             ClassSet((0,)))
    assert states[0].unreliable[0, 1]
    assert states[0].confident.sum() == 3


def test_split_by_consistency_rejects_unknown_class():
    depth = np.ones((2, 2))
    seg = np.array([[0, 1], [0, 1]])
    with pytest.raises(RefineError):
        split_confidence_by_consistency(depth, seg, seg, seg,
                                        np.ones((2, 2), bool), ClassSet((0,)))


@pytest.mark.parametrize("radius", [1, 2])
def test_parallel_matches_reference(radius):
    rng = np.random.default_rng(11)
    for _ in range(20):
        h, w = rng.integers(2, 17, 2)
        depth = rng.random((h, w)) * 8 + 0.5
        y = rng.integers(0, 4, (h, w))
        y_hat = rng.integers(0, 4, (h, w))
        cfg = RefineConfig(depth_threshold=float(rng.random() * 0.6 + 0.01),
                           neighborhood_radius=radius)
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


def test_radius_wider_than_image_matches_reference():
    rng = np.random.default_rng(5)
    cfg = RefineConfig(depth_threshold=0.3, neighborhood_radius=4)
    for _ in range(10):
        h, w = rng.integers(1, 4, 2)
        depth = rng.random((h, w)) + 1
        y = rng.integers(0, 3, (h, w))
        y_hat = rng.integers(0, 3, (h, w))
        a = refine_segmentation_with_depth(y, y_hat, depth, cfg, "parallel")
        b = refine_segmentation_with_depth(y, y_hat, depth, cfg, "reference")
        assert np.array_equal(a, b)
        states = split_confidence_by_consistency(
            depth, y, y, y_hat, np.ones((h, w), bool), range(3))
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


def _wavefront_depth(confident, candidates, radius):
    """Iterations a wavefront from ``confident`` takes to reach every
    candidate it can reach, counted by repeated dilation."""
    h, w = confident.shape
    reached = confident.copy()
    todo = candidates & ~confident
    iterations = 0
    while True:
        padded = np.pad(reached, radius)
        grown = np.zeros_like(reached)
        for dr in range(2 * radius + 1):
            for dc in range(2 * radius + 1):
                grown |= padded[dr:dr + h, dc:dc + w]
        step = grown & todo
        if not step.any():
            return iterations
        reached |= step
        todo &= ~step
        iterations += 1


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_parallel_matches_reference_at_every_cap(radius):
    rng = np.random.default_rng(100 + radius)
    # 1-pixel-wide images, and 2x2 where every radius is wider than the image
    for h, w in ((9, 13), (12, 7), (1, 17), (15, 1), (2, 2)):
        depth = rng.random((h, w)) * 4 + 1
        conf = rng.random((h, w)) < 0.15
        conf.flat[rng.integers(h * w)] = True

        y = rng.integers(0, 3, (h, w))
        y_hat = np.where(conf, y, y + 1)
        base = dict(depth_threshold=1.0, neighborhood_radius=radius)
        full = refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(**base), "reference")
        n = _wavefront_depth(conf, ~conf, radius)
        for cap in range(1, n + 2):
            cfg = RefineConfig(max_iterations=cap, **base)
            a = refine_segmentation_with_depth(y, y_hat, depth, cfg,
                                               "parallel")
            b = refine_segmentation_with_depth(y, y_hat, depth, cfg,
                                               "reference")
            assert np.array_equal(a, b), (h, w, cap)
            if cap >= n:
                assert np.array_equal(a, full), (h, w, cap)

        # classes 0-2 in 2x2 blocks; class 3 holds the last pixel and has
        # no confident pixel, so it is never reached
        seg = np.kron(rng.integers(0, 3, (h // 2 + 1, w // 2 + 1)),
                      np.ones((2, 2), int))[:h, :w]
        seg[-1, -1] = 3
        states = [RefineState(confident=(seg == k) & conf & (k != 3),
                              unreliable=(seg == k) & ~(conf & (k != 3)))
                  for k in range(4)]
        full = refine_depth_with_segmentation(
            depth, states, RefineConfig(**base), "reference")
        n = max(_wavefront_depth(st.confident, st.unreliable, radius)
                for st in states)
        for cap in range(1, n + 2):
            cfg = RefineConfig(max_iterations=cap, **base)
            a = refine_depth_with_segmentation(depth, states, cfg, "parallel")
            b = refine_depth_with_segmentation(depth, states, cfg,
                                               "reference")
            assert np.array_equal(a, b), (h, w, cap)
            if cap >= n:
                assert np.array_equal(a, full), (h, w, cap)
        assert full[-1, -1] == depth[-1, -1]
