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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_prediction_rejected(bad):
    gt = np.full((4, 4), 5.0)
    pred = gt.copy()
    pred[1, 2] = bad
    with pytest.raises(MetricsError):
        evaluate_depth(pred, gt)


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
