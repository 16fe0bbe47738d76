"""Mutual refinement of segmentation and depth maps.

Both refinement passes share the same propagation scheme: a per-pixel
partition into a confident set and an unreliable set, and synchronous
wavefront iterations in which every unreliable pixel that sees at least one
confident neighbor (8-neighborhood of the previous iteration's confident
set) is updated and becomes confident itself.

A pass runs until an iteration confirms no pixel, or for at most
``RefineConfig.max_iterations`` iterations when that is set.

Each pass has two interchangeable implementations:

* a vectorized frontier wavefront (``impl="parallel"``, the default). Each
  input is padded once and flattened, and neighbors are read through flat
  index lists (``geometry._flat_offsets``). Every iteration reads only the
  neighbors of its frontier: the open pixels next to a confident one. The
  first frontier is found from whichever set is smaller, the confident
  pixels or the open ones; each later one from the pixels the previous
  iteration confirmed, since the confident set only grows. Every value is
  gathered before any is written. The depth pass runs one wavefront for
  all classes over a per-pixel class-index map;
* a plain per-pixel simulator (``impl="reference"``) used as the equivalence
  oracle in tests; it runs the depth pass one class at a time.

Outputs of the two are bitwise identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry


class RefineError(ValueError):
    """Invalid refinement inputs."""


@dataclass(frozen=True)
class RefineConfig:
    """Propagation parameters.

    ``depth_threshold`` of None resolves to 5% of the median confident depth
    at call time. ``max_iterations`` of None runs each pass to its fixed
    point; an integer stops it after that many wavefront iterations.
    """

    depth_threshold: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.depth_threshold is not None and not self.depth_threshold > 0:
            raise RefineError("depth_threshold must be positive")
        cap = self.max_iterations
        if cap is not None and not (isinstance(cap, (int, np.integer))
                                    and not isinstance(cap, bool)
                                    and cap >= 1):
            raise RefineError("max_iterations must be None or an int >= 1")


@dataclass
class RefineState:
    """Confident/unreliable partition of the pixels a pass refines."""

    confident: np.ndarray
    unreliable: np.ndarray

    def __post_init__(self):
        self.confident = np.asarray(self.confident)
        self.unreliable = np.asarray(self.unreliable)
        if self.confident.dtype != bool or self.unreliable.dtype != bool:
            raise RefineError("confident and unreliable masks must be bool, "
                              f"got {self.confident.dtype} and "
                              f"{self.unreliable.dtype}")
        _check_same_shape(self.confident, self.unreliable)
        if (self.confident & self.unreliable).any():
            raise RefineError("confident and unreliable sets overlap")


def _check_same_shape(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise RefineError(f"shape mismatch: {sorted(shapes)}")


def _check_depth(depth: np.ndarray):
    if depth.ndim != 2:
        raise RefineError(f"maps must be 2-D (H, W), got shape {depth.shape}")
    if depth.size == 0:
        raise RefineError("empty image")
    geometry._check_map(depth, RefineError,
                        "depth must be finite and positive", low=0.0)


def split_confidence_by_agreement(y: np.ndarray,
                                  y_hat: np.ndarray) -> RefineState:
    """Partition pseudo-label pixels by agreement with the prediction."""
    y = np.asarray(y)
    y_hat = np.asarray(y_hat)
    _check_same_shape(y, y_hat)
    agree = y == y_hat
    return RefineState(confident=agree, unreliable=~agree)


def _resolve_threshold(cfg: RefineConfig, depth: np.ndarray,
                       confident: np.ndarray) -> float:
    if cfg.depth_threshold is not None:
        return float(cfg.depth_threshold)
    if not confident.any():
        return 0.0
    return 0.05 * float(np.median(depth[confident]))


def refine_segmentation_with_depth(y: np.ndarray, y_hat: np.ndarray,
                                   depth: np.ndarray,
                                   cfg: RefineConfig = RefineConfig(),
                                   impl: str = "parallel") -> np.ndarray:
    """Relabel pixels that disagree with the prediction using the label of
    the depth-closest confident neighbor, when that depth gap is below the
    threshold. Every reached pixel becomes confident regardless."""
    y = np.asarray(y)
    depth = np.asarray(depth, dtype=np.float64)
    _check_same_shape(y, np.asarray(y_hat), depth)
    _check_depth(depth)
    state = split_confidence_by_agreement(y, y_hat)
    threshold = _resolve_threshold(cfg, depth, state.confident)
    if impl == "parallel":
        return _refine_seg_parallel(y, state.confident, depth, threshold, cfg)
    if impl == "reference":
        return _refine_seg_reference(y, state.confident, depth, threshold, cfg)
    raise RefineError(f"unknown impl {impl!r}")


def _iterations(cfg: RefineConfig):
    """The iteration counter of a pass: up to the cap, or unbounded. Every
    iteration that does not stop the pass confirms at least one pixel, so an
    uncapped pass stops at its fixed point."""
    if cfg.max_iterations is None:
        return itertools.count()
    return range(cfg.max_iterations)


def _pad_flat(arr: np.ndarray, fill=0) -> np.ndarray:
    """``arr`` padded by one pixel of ``fill`` on every side, flattened."""
    h, w = arr.shape
    out = np.full((h + 2, w + 2), fill, dtype=arr.dtype)
    out[1:-1, 1:-1] = arr
    return out.ravel()


def _next_frontier(new: np.ndarray, offsets: np.ndarray, open_: np.ndarray,
                   slot: np.ndarray) -> np.ndarray:
    """Close the pixels ``new`` that an iteration confirmed, and return the
    open pixels next to them, each once. The confident set only grows, so
    no other pixel can gain a confident neighbor in the next iteration.
    ``slot`` is scratch space as large as ``open_``."""
    open_[new] = False
    nb = (offsets[:, None] + new).ravel()
    nb = nb[open_[nb]]
    # each pixel keeps the one position that its slot ends up holding
    pos = np.arange(nb.size)
    slot[nb] = pos
    return nb[slot[nb] == pos]


def _first_frontier(confident: np.ndarray, offsets: np.ndarray,
                    open_: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The first iteration's frontier. Only an open pixel next to a
    ``confident`` one can be confirmed. When the confident pixels are fewer,
    the frontier is their open neighbors, each once. Otherwise it is every
    open pixel: the extra ones confirm nothing, and listing them costs less
    than visiting the confident pixels' neighborhoods."""
    if np.count_nonzero(confident) < np.count_nonzero(open_):
        return _next_frontier(np.flatnonzero(confident), offsets, open_, slot)
    return np.flatnonzero(open_)


def _unpad(flat: np.ndarray, shape: tuple[int, int]):
    h, w = shape
    return flat.reshape(h + 2, w + 2)[1:-1, 1:-1].copy()


def _refine_seg_parallel(y, confident, depth, threshold, cfg):
    offsets = geometry._flat_offsets(depth.shape[1] + 2)
    labels = _pad_flat(y)
    dep = _pad_flat(depth, np.inf)
    open_ = _pad_flat(~confident, False)
    # depth of the confident pixels and +inf elsewhere: the gap to a pixel
    # that is not confident is +inf, so it is never the closest
    conf_dep = np.where(open_, np.inf, dep)
    slot = np.empty(open_.size, dtype=np.intp)
    cand = _first_frontier(_pad_flat(confident, False), offsets, open_, slot)
    for _ in _iterations(cfg):
        if not cand.size:
            break
        # one offset at a time over candidate-sized arrays: the first
        # frontier (usually every disagreeing pixel, since most labels
        # agree) is most of this pass's work, and arrays this size stay in
        # cache where an (offsets, candidates) block would not
        cand_dep = dep[cand]
        best_gap = np.full(cand.size, np.inf)
        best_nb = np.zeros_like(cand)
        for off in offsets:
            nb = cand + off
            gap = np.abs(conf_dep[nb] - cand_dep)
            closer = gap < best_gap  # strict: earliest raster offset wins ties
            np.copyto(best_gap, gap, where=closer)
            np.copyto(best_nb, nb, where=closer)
        new = cand[best_gap < np.inf]
        if not new.size:
            break
        relabel = best_gap < threshold
        # gather every new label before writing any
        labels[cand[relabel]] = labels[best_nb[relabel]]
        conf_dep[new] = dep[new]
        cand = _next_frontier(new, offsets, open_, slot)
    return _unpad(labels, depth.shape)


def _refine_seg_reference(y, confident, depth, threshold, cfg):
    labels = y.copy()
    conf = confident.copy()
    h, w = depth.shape
    for _ in _iterations(cfg):
        prev_labels = labels.copy()
        prev_conf = conf.copy()
        changed = False
        for i in range(h):
            for j in range(w):
                if prev_conf[i, j]:
                    continue
                best_diff = np.inf
                best_label = None
                for dr, dc in geometry._NEIGHBOR_OFFSETS:
                    ni, nj = i + dr, j + dc
                    if not (0 <= ni < h and 0 <= nj < w):
                        continue
                    if not prev_conf[ni, nj]:
                        continue
                    diff = abs(depth[i, j] - depth[ni, nj])
                    if diff < best_diff:
                        best_diff = diff
                        best_label = prev_labels[ni, nj]
                if best_label is None:
                    continue
                if best_diff < threshold:
                    labels[i, j] = best_label
                conf[i, j] = True
                changed = True
        if not changed or conf.all():
            break
    return labels


def split_confidence_by_consistency(depth: np.ndarray, y_refined: np.ndarray,
                                    y_t: np.ndarray, y_st: np.ndarray,
                                    warp_valid: np.ndarray,
                                    classes: Sequence[int]
                                    ) -> list[RefineState]:
    """Per-class partition of depth pixels by cross-view label consistency,
    one state per class id in ``classes`` order; the ids must be distinct.

    A pixel of class k is confident iff the target-view and warped-view
    labels agree and the warp sample was valid; warp-invalid pixels are
    always unreliable (they carry no photometric evidence).
    """
    depth = np.asarray(depth, dtype=np.float64)
    y_refined = np.asarray(y_refined)
    _check_same_shape(depth, y_refined, np.asarray(y_t), np.asarray(y_st),
                      np.asarray(warp_valid))
    classes = [int(c) for c in classes]
    if len(set(classes)) != len(classes):
        raise RefineError("duplicate class ids")
    consistent = (np.asarray(y_t) == np.asarray(y_st)) & np.asarray(warp_valid)
    states = []
    covered = 0
    for k in classes:
        mask = y_refined == k
        covered += np.count_nonzero(mask)
        states.append(RefineState(confident=mask & consistent,
                                  unreliable=mask & ~consistent))
    # the class ids are distinct, so the masks are disjoint and cover the
    # image iff their counts add up to its size; an uncovered pixel holds a
    # value equal to no class id, fractional values included
    if covered != y_refined.size:
        present = np.unique(y_refined)
        missing = present[~np.isin(present, classes)]
        raise RefineError(f"classes {missing.tolist()} present in the "
                          "refined segmentation but absent from the class "
                          "set")
    return states


def refine_depth_with_segmentation(depth: np.ndarray,
                                   states: Sequence[RefineState],
                                   cfg: RefineConfig = RefineConfig(),
                                   impl: str = "parallel") -> np.ndarray:
    """Clip each unreliable depth into the range spanned by its confident
    same-class neighbors; ``states`` holds one partition per class, and the
    classes' pixel sets must not overlap. All classes propagate in one
    wavefront, so a cap of N iterations caps every class at N."""
    depth = np.asarray(depth, dtype=np.float64)
    _check_depth(depth)
    # per-pixel index of the state whose class holds it, -1 for none, and
    # the confident pixels of every class
    owner = np.full(depth.shape, -1, dtype=np.intp)
    confident = np.zeros(depth.shape, dtype=bool)
    for i, st in enumerate(states):
        _check_same_shape(depth, st.confident, st.unreliable)
        mask = st.confident | st.unreliable
        if (mask & (owner >= 0)).any():
            raise RefineError("class states overlap")
        owner[mask] = i
        confident |= st.confident
    if impl == "parallel":
        return _refine_depth_parallel(depth, owner, confident, cfg)
    if impl == "reference":
        out = depth.copy()
        for st in states:
            vals, mask = _refine_depth_class_reference(depth, st, cfg)
            out[mask] = vals[mask]
        return out
    raise RefineError(f"unknown impl {impl!r}")


def _refine_depth_parallel(depth, owner, confident, cfg):
    # class index of each confident pixel, -1 elsewhere: a neighbor counts
    # iff its entry equals the pixel's own class index
    conf_owner = np.where(confident, owner, -1)
    unrel = (owner >= 0) & ~confident
    offsets = geometry._flat_offsets(depth.shape[1] + 2)
    vals = _pad_flat(depth)
    owner = _pad_flat(owner, -1)
    conf_owner = _pad_flat(conf_owner, -1)
    open_ = _pad_flat(unrel, False)
    slot = np.empty(open_.size, dtype=np.intp)
    cand = _first_frontier(conf_owner >= 0, offsets, open_, slot)
    for _ in _iterations(cfg):
        if not cand.size:
            break
        # all offsets in one (offsets, candidates) block: this wavefront runs
        # deep over small frontiers, where fewer numpy calls per iteration
        # are what counts
        nb = offsets[:, None] + cand
        same = conf_owner[nb] == owner[cand]
        confirmed = same.any(axis=0)
        new = cand[confirmed]
        if not new.size:
            break
        nb_vals = vals[nb]
        c_min = np.where(same, nb_vals, np.inf).min(axis=0)
        c_max = np.where(same, nb_vals, -np.inf).max(axis=0)
        vals[new] = np.maximum(np.minimum(vals[new], c_max[confirmed]),
                               c_min[confirmed])
        conf_owner[new] = owner[new]
        cand = _next_frontier(new, offsets, open_, slot)
    return _unpad(vals, depth.shape)


def _refine_depth_class_reference(depth, st, cfg):
    vals = depth.copy()
    conf = st.confident.copy()
    unrel = st.unreliable.copy()
    class_mask = st.confident | st.unreliable
    h, w = depth.shape
    for _ in _iterations(cfg):
        prev_vals = vals.copy()
        prev_conf = conf.copy()
        changed = False
        for i in range(h):
            for j in range(w):
                if not unrel[i, j]:
                    continue
                c_min = np.inf
                c_max = -np.inf
                for dr, dc in geometry._NEIGHBOR_OFFSETS:
                    ni, nj = i + dr, j + dc
                    if not (0 <= ni < h and 0 <= nj < w):
                        continue
                    if not prev_conf[ni, nj]:
                        continue
                    c_min = min(c_min, prev_vals[ni, nj])
                    c_max = max(c_max, prev_vals[ni, nj])
                if not np.isfinite(c_min):
                    continue
                vals[i, j] = max(min(vals[i, j], c_max), c_min)
                conf[i, j] = True
                unrel[i, j] = False
                changed = True
        if not changed:
            break
    return vals, class_mask


Segmenter = Callable[[np.ndarray], np.ndarray]


def refine_depth_full(depth: np.ndarray, y_refined: np.ndarray,
                      img_target: np.ndarray, img_source: np.ndarray,
                      pose: geometry.Pose, cam: geometry.Camera,
                      segmenter: Segmenter,
                      cfg: RefineConfig = RefineConfig(),
                      impl: str = "parallel") -> np.ndarray:
    """Full depth refinement pass: warp the source view, segment both views,
    split by consistency, then propagate confident depth within each
    class."""
    depth = np.asarray(depth, dtype=np.float64)
    for img in (img_target, img_source):
        geometry._check_map(np.asarray(img), RefineError,
                            "images must be non-empty and finite")
    warped, valid = geometry.warp(img_source, depth, pose, cam)
    y_t = np.asarray(segmenter(img_target))
    y_st = np.asarray(segmenter(warped))
    if y_t.shape != depth.shape or y_st.shape != depth.shape:
        raise RefineError("segmenter output shape mismatch")
    states = split_confidence_by_consistency(depth, y_refined, y_t, y_st,
                                             valid, np.unique(y_refined))
    return refine_depth_with_segmentation(depth, states, cfg, impl=impl)
