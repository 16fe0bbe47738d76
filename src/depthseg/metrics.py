"""Depth-evaluation metrics and the point-tracking reprojection error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    A NaN or infinite prediction anywhere, or a cap that is not finite,
    raises ``MetricsError``. Non-finite ground truth needs no check: NaN and
    -inf fail ``gt > 0`` and +inf fails ``gt <= cap``, so such pixels are
    never valid.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricsError("shape mismatch")
    if not np.all(np.isfinite(pred)):
        raise MetricsError("predictions must be finite")
    if not np.isfinite(cap):
        raise MetricsError("cap must be finite")
    if gt_valid is None:
        gt_valid = np.ones(gt.shape, dtype=bool)
    valid = np.asarray(gt_valid, dtype=bool) & (gt > 0) & (gt <= cap)
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
    between tracked 2D points and their ground-truth positions."""
    tracked = np.asarray(tracked, dtype=np.float64).reshape(-1, 2)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    if tracked.shape != gt.shape:
        raise MetricsError("point lists must have equal length")
    if tracked.shape[0] == 0:
        raise MetricsError("empty point lists")
    dist = np.linalg.norm(tracked - gt, axis=1)
    return float(dist.mean()), float(dist.std())
