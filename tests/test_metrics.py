import numpy as np
import pytest

from depthseg.metrics import (DepthEvalResult, MetricsError, evaluate_depth,
                              reprojection_error)


def test_perfect_prediction():
    gt = np.array([[1.0, 10.0], [40.0, 79.0]])
    r = evaluate_depth(gt, gt)
    assert (r.abs_rel, r.sq_rel, r.rmse, r.rmse_log) == (0.0, 0.0, 0.0, 0.0)
    assert (r.delta1, r.delta2, r.delta3) == (1.0, 1.0, 1.0)


def test_hand_computed_fixture():
    r = evaluate_depth(np.array([11.0, 18.0]), np.array([10.0, 20.0]))
    assert r.abs_rel == pytest.approx(0.1, abs=1e-12)
    assert r.sq_rel == pytest.approx(0.15, abs=1e-12)
    assert r.rmse == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert r.valid_pixel_count == 2


def test_cap_excludes_far_ground_truth():
    gt = np.array([10.0, 90.0, 200.0])
    pred = np.array([10.0, 90.0, 200.0])
    r = evaluate_depth(pred, gt, cap=80.0)
    assert r.valid_pixel_count == 1


def test_prediction_clamped_to_cap_and_floor():
    gt = np.array([79.0, 1.0])
    pred = np.array([500.0, 1e-9])
    r = evaluate_depth(pred, gt, cap=80.0)
    # clamped to 80 and 1e-3 respectively
    assert r.rmse == pytest.approx(np.sqrt(((79 - 80) ** 2
                                            + (1 - 1e-3) ** 2) / 2))


def test_gt_valid_mask_respected():
    gt = np.array([10.0, 10.0])
    pred = np.array([10.0, 99.0])
    r = evaluate_depth(pred, gt, gt_valid=np.array([True, False]))
    assert r.valid_pixel_count == 1
    assert r.abs_rel == 0.0


def test_all_invalid_rejected():
    with pytest.raises(MetricsError):
        evaluate_depth(np.ones(3), np.zeros(3))


def test_delta_monotonicity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        gt = rng.random(50) * 60 + 1
        pred = gt * np.exp(rng.normal(0, 0.3, 50))
        r = evaluate_depth(pred, gt)
        assert r.delta1 <= r.delta2 <= r.delta3


def test_csv_row_matches_header_width():
    r = evaluate_depth(np.array([2.0]), np.array([2.0]))
    assert len(r.csv_row().split(",")) == \
        len(DepthEvalResult.CSV_HEADER.split(","))


def test_reprojection_error_mean_and_std():
    tracked = np.array([[0.0, 0.0], [3.0, 4.0]])
    gt = np.array([[0.0, 0.0], [0.0, 0.0]])
    mean, std = reprojection_error(tracked, gt)
    assert mean == pytest.approx(2.5)
    assert std == pytest.approx(2.5)  # population std of [0, 5]


def test_reprojection_error_rejects_length_mismatch():
    with pytest.raises(MetricsError):
        reprojection_error(np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("side", ["tracked", "gt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reprojection_error_rejects_nonfinite_points(side, bad):
    points = {"tracked": np.array([[0.0, 0.0], [1.0, 1.0]]),
              "gt": np.array([[0.0, 0.0], [1.0, 1.0]])}
    points[side][1, 0] = bad
    with pytest.raises(MetricsError, match="points must be finite"):
        reprojection_error(points["tracked"], points["gt"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_prediction_rejected(bad):
    gt = np.full((4, 4), 5.0)
    pred = gt.copy()
    pred[1, 2] = bad
    with pytest.raises(MetricsError, match="predictions must be finite"):
        evaluate_depth(pred, gt)


def test_empty_inputs_have_no_valid_pixels():
    with pytest.raises(MetricsError, match="no valid ground-truth pixels"):
        evaluate_depth(np.zeros((0, 4)), np.zeros((0, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_ground_truth_is_not_valid(bad):
    gt = np.full((4, 4), 5.0)
    gt[0, 0] = bad
    pred = np.full((4, 4), 4.0)
    r = evaluate_depth(pred, gt)
    assert r.valid_pixel_count == 15
    assert r.abs_rel == pytest.approx(0.2)
    assert np.isfinite([r.sq_rel, r.rmse, r.rmse_log]).all()


@pytest.mark.parametrize("cap", [np.inf, np.nan])
def test_nonfinite_cap_rejected(cap):
    with pytest.raises(MetricsError):
        evaluate_depth(np.full((2, 2), 5.0), np.full((2, 2), 5.0), cap=cap)


@pytest.mark.parametrize("cap", [1e-3, 1e-4, 0.0, -1.0])
def test_cap_at_or_below_the_prediction_floor_rejected(cap):
    # predictions are clamped to [1e-3, cap], so every one would be the cap
    with pytest.raises(MetricsError, match="cap must be finite and above"):
        evaluate_depth(np.array([1.0, 2.0]), np.array([5e-5, 8e-5]), cap=cap)


@pytest.mark.parametrize("pred, gt", [
    (np.ones((2, 3)), np.ones((3, 2))),
    (np.ones((2, 3)), np.ones(6)),
])
def test_evaluate_depth_rejects_a_shape_mismatch(pred, gt):
    with pytest.raises(MetricsError, match="shape mismatch"):
        evaluate_depth(pred, gt)


@pytest.mark.parametrize("mask_shape", [(4,), (3, 1), (2, 4), (1, 4),
                                        (3, 4, 1)])
def test_evaluate_depth_rejects_a_mask_of_another_shape(mask_shape):
    # a mask that numpy would broadcast, or fail to, is not the map's
    gt = np.full((3, 4), 10.0)
    with pytest.raises(MetricsError, match="shape mismatch"):
        evaluate_depth(gt, gt, gt_valid=np.ones(mask_shape, bool))


def test_evaluate_depth_without_a_mask_equals_an_all_true_mask():
    rng = np.random.default_rng(5)
    gt = rng.uniform(-5.0, 100.0, (6, 7))
    pred = rng.uniform(0.0, 90.0, (6, 7))
    assert (evaluate_depth(pred, gt)
            == evaluate_depth(pred, gt, gt_valid=np.ones((6, 7), bool)))


@pytest.mark.parametrize("tracked, gt, error", [
    ([], [], "empty point lists"),
    (np.zeros((0, 2)), np.zeros((0, 2)), "empty point lists"),
    ([[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], "shape mismatch"),
    # 3-D points: neither may be read as a list of 2-D points
    (np.zeros((4, 3)), np.ones((4, 3)), r"must be \(N, 2\)"),
    (np.zeros((3, 3)), np.ones((3, 3)), r"must be \(N, 2\)"),
])
def test_reprojection_error_rejects_empty_or_unequal_lists(tracked, gt,
                                                          error):
    with pytest.raises(MetricsError, match=error):
        reprojection_error(tracked, gt)


def expression_evaluate_depth(pred, gt, valid, cap):
    """The seven metrics as direct expressions: the error squared where
    each metric uses it and each accuracy as the mean of a boolean map."""
    g = gt[valid]
    p = np.clip(pred[valid], 1e-3, cap)
    ratio = np.maximum(g / p, p / g)
    err = g - p
    return DepthEvalResult(
        float(np.mean(np.abs(err) / g)), float(np.mean(err ** 2 / g)),
        float(np.sqrt(np.mean(err ** 2))),
        float(np.sqrt(np.mean((np.log(g) - np.log(p)) ** 2))),
        float(np.mean(ratio < 1.25)), float(np.mean(ratio < 1.25 ** 2)),
        float(np.mean(ratio < 1.25 ** 3)), int(valid.sum()))


def test_evaluate_depth_matches_expression_form_bitwise():
    # random maps and masks of many sizes, so that the accuracies take
    # many counts over many pixel numbers
    rng = np.random.default_rng(6)
    for _ in range(300):
        shape = tuple(rng.integers(1, 40, 2))
        gt = rng.uniform(-5.0, 100.0, shape)
        pred = gt * rng.uniform(0.5, 2.0, shape)
        pred[rng.random(shape) < 0.2] = rng.uniform(-1.0, 120.0)
        mask = rng.random(shape) < rng.random()
        cap = rng.choice([80.0, 50.0])
        valid = mask & (gt > 0) & (gt <= cap)
        if not valid.any():
            continue
        got = evaluate_depth(pred, gt, mask, cap)
        want = expression_evaluate_depth(pred, gt, valid, cap)
        for name in DepthEvalResult.__dataclass_fields__:
            g, e = getattr(got, name), getattr(want, name)
            assert type(g) is type(e)
            assert np.float64(g).tobytes() == np.float64(e).tobytes()
