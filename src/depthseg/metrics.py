"""Depth-evaluation metrics and the point-tracking reprojection error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

MIN_PRED_DEPTH = 1e-3
DEFAULT_DEPTH_CAP = 80.0


class MetricsError(ValueError):
    """Invalid evaluation inputs."""


@dataclass(frozen=True)
class DepthEvalResult:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float
    valid_pixel_count: int

    def csv_row(self) -> str:
        return ",".join([
            f"{self.abs_rel:.6f}", f"{self.sq_rel:.6f}", f"{self.rmse:.6f}",
            f"{self.rmse_log:.6f}", f"{self.delta1:.6f}",
            f"{self.delta2:.6f}", f"{self.delta3:.6f}",
            str(self.valid_pixel_count),
        ])

    CSV_HEADER = "abs_rel,sq_rel,rmse,rmse_log,a1,a2,a3,n_valid"


def evaluate_depth(pred, gt, gt_valid=None,
                   cap: float = DEFAULT_DEPTH_CAP) -> DepthEvalResult:
    """The standard seven error/accuracy metrics over pixels with valid
    ground truth below the cap; predictions are clamped to [1e-3, cap].

    A NaN or infinite prediction anywhere, or a cap that is not finite and
    above the 1e-3 floor, raises ``MetricsError``. Non-finite ground truth
    needs no check: NaN and -inf fail ``gt > 0`` and +inf fails
    ``gt <= cap``, so such pixels are never valid.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    geometry._same_shape(MetricsError, pred, gt)
    # an empty map fails below, as having no valid ground-truth pixels
    if pred.size:
        geometry._check_map(pred, MetricsError, "predictions must be finite")
    if not MIN_PRED_DEPTH < cap < np.inf:
        raise MetricsError("cap must be finite and above 1e-3")
    valid = (gt > 0) & (gt <= cap)
    if gt_valid is not None:
        geometry._same_shape(MetricsError, gt, gt_valid)
        valid &= np.asarray(gt_valid, dtype=bool)
    n = int(valid.sum())
    if n == 0:
        raise MetricsError("no valid ground-truth pixels")
    g = gt[valid]
    p = np.clip(pred[valid], MIN_PRED_DEPTH, cap)
    ratio = np.maximum(g / p, p / g)
    err = g - p
    return DepthEvalResult(
        abs_rel=float(np.mean(np.abs(err) / g)),
        sq_rel=float(np.mean(err ** 2 / g)),
        rmse=float(np.sqrt(np.mean(err ** 2))),
        rmse_log=float(np.sqrt(np.mean((np.log(g) - np.log(p)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
        valid_pixel_count=n,
    )


def reprojection_error(tracked, gt) -> tuple[float, float]:
    """Mean and population standard deviation of the Euclidean distances
    between tracked 2D points and their ground-truth positions, two (N, 2)
    lists. A NaN or infinite coordinate in either list raises
    ``MetricsError``."""
    tracked = np.asarray(tracked, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    geometry._same_shape(MetricsError, tracked, gt)
    if tracked.size == 0:
        raise MetricsError("empty point lists")
    if tracked.ndim != 2 or tracked.shape[1] != 2:
        raise MetricsError(f"point lists must be (N, 2), got {tracked.shape}")
    for points in (tracked, gt):
        geometry._check_map(points, MetricsError, "points must be finite")
    dist = np.linalg.norm(tracked - gt, axis=1)
    return float(dist.mean()), float(dist.std())
