"""Mutual refinement of segmentation and depth maps.

Both refinement passes share the same propagation scheme: a per-pixel
partition into a confident set and an unreliable set, and synchronous
wavefront iterations in which every unreliable pixel that sees at least one
confident neighbor (Chebyshev neighborhood of the previous iteration's
confident set) is updated and becomes confident itself.

A pass runs until an iteration confirms no pixel, or for at most
``RefineConfig.max_iterations`` iterations when that is set.

Each pass has two interchangeable implementations:

* a vectorized frontier wavefront (``impl="parallel"``, the default). Each
  input is padded once and flattened, and neighbors are read through flat
  index lists (``geometry._flat_offsets``). The first iteration reads the
  neighbors of every pixel that could change; each later one reads only
  those of the still-open pixels next to a pixel the previous iteration
  confirmed, since the confident set only grows. Every value is gathered
  before any is written. The depth pass runs one wavefront for all classes
  over a per-pixel class-index map;
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
    neighborhood_radius: int = 1
    max_iterations: int | None = None

    def __post_init__(self):
        if self.depth_threshold is not None and not self.depth_threshold > 0:
            raise RefineError("depth_threshold must be positive")
        if not _is_count(self.neighborhood_radius):
            raise RefineError("neighborhood_radius must be an int >= 1")
        cap = self.max_iterations
        if cap is not None and not _is_count(cap):
            raise RefineError("max_iterations must be None or an int >= 1")


def _is_count(value) -> bool:
    """An int (not a bool) >= 1."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 1)


@dataclass
class RefineState:
    """Confident/unreliable partition of the pixels a pass refines."""

    confident: np.ndarray
    unreliable: np.ndarray

    def __post_init__(self):
        if (self.confident & self.unreliable).any():
            raise RefineError("confident and unreliable sets overlap")


@dataclass(frozen=True)
class ClassSet:
    classes: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int(c) for c in self.classes)
        if len(set(ids)) != len(ids):
            raise RefineError("duplicate class ids")
        object.__setattr__(self, "classes", ids)


def _check_same_shape(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise RefineError(f"shape mismatch: {sorted(shapes)}")


def _check_depth(depth: np.ndarray):
    if depth.size == 0:
        raise RefineError("empty image")
    if not np.all(np.isfinite(depth)) or depth.min() <= 0:
        raise RefineError("depth must be finite and positive")


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


def _pad_flat(arr: np.ndarray, radius: int, fill=0) -> np.ndarray:
    """``arr`` padded by ``radius`` with ``fill`` on every side, flattened."""
    h, w = arr.shape
    out = np.full((h + 2 * radius, w + 2 * radius), fill, dtype=arr.dtype)
    out[radius:radius + h, radius:radius + w] = arr
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


def _unpad(flat: np.ndarray, shape: tuple[int, int], radius: int):
    h, w = shape
    padded = flat.reshape(h + 2 * radius, w + 2 * radius)
    return padded[radius:radius + h, radius:radius + w].copy()


def _refine_seg_parallel(y, confident, depth, threshold, cfg):
    r = cfg.neighborhood_radius
    offsets = geometry._flat_offsets(r, depth.shape[1] + 2 * r)
    labels = _pad_flat(y, r)
    dep = _pad_flat(depth, r, np.inf)
    open_ = _pad_flat(~confident, r, False)
    # depth of the confident pixels and +inf elsewhere: the gap to a pixel
    # that is not confident is +inf, so it is never the closest
    conf_dep = np.where(open_, np.inf, dep)
    slot = np.empty(open_.size, dtype=np.intp)
    cand = np.flatnonzero(open_)
    for _ in _iterations(cfg):
        if not cand.size:
            break
        # one offset at a time over candidate-sized arrays: the first
        # frontier (every disagreeing pixel) is most of this pass's work, and
        # arrays this size stay in cache where an (offsets, candidates)
        # block would not
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
    return _unpad(labels, depth.shape, r)


def _refine_seg_reference(y, confident, depth, threshold, cfg):
    labels = y.copy()
    conf = confident.copy()
    h, w = depth.shape
    r = cfg.neighborhood_radius
    offsets = geometry._neighbor_offsets(r)
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
                for dr, dc in offsets:
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
                                    classes: ClassSet | Sequence[int]
                                    ) -> list[RefineState]:
    """Per-class partition of depth pixels by cross-view label consistency,
    one state per class in ``classes`` order.

    A pixel of class k is confident iff the target-view and warped-view
    labels agree and the warp sample was valid; warp-invalid pixels are
    always unreliable (they carry no photometric evidence).
    """
    depth = np.asarray(depth, dtype=np.float64)
    y_refined = np.asarray(y_refined)
    _check_same_shape(depth, y_refined, np.asarray(y_t), np.asarray(y_st),
                      np.asarray(warp_valid))
    if not isinstance(classes, ClassSet):
        classes = ClassSet(tuple(int(c) for c in classes))
    present = set(int(v) for v in np.unique(y_refined))
    missing = present - set(classes.classes)
    if missing:
        raise RefineError(f"classes {sorted(missing)} present in the refined "
                          "segmentation but absent from the class set")
    consistent = (np.asarray(y_t) == np.asarray(y_st)) & np.asarray(warp_valid)
    states = []
    for k in classes.classes:
        mask = y_refined == k
        states.append(RefineState(confident=mask & consistent,
                                  unreliable=mask & ~consistent))
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
    # per-pixel index of the state whose class holds it, -1 for none
    owner = np.full(depth.shape, -1, dtype=np.intp)
    for i, st in enumerate(states):
        _check_same_shape(depth, st.confident, st.unreliable)
        mask = st.confident | st.unreliable
        if (mask & (owner >= 0)).any():
            raise RefineError("class states overlap")
        owner[mask] = i
    if impl == "parallel":
        return _refine_depth_parallel(depth, states, owner, cfg)
    if impl == "reference":
        out = depth.copy()
        for st in states:
            vals, mask = _refine_depth_class_reference(depth, st, cfg)
            out[mask] = vals[mask]
        return out
    raise RefineError(f"unknown impl {impl!r}")


def _refine_depth_parallel(depth, states, owner, cfg):
    unrel = np.zeros(depth.shape, dtype=bool)
    # class index of each confident pixel, -1 elsewhere: a neighbor counts
    # iff its entry equals the pixel's own class index
    conf_owner = np.full(depth.shape, -1, dtype=np.intp)
    for i, st in enumerate(states):
        unrel |= st.unreliable
        conf_owner[st.confident] = i
    r = cfg.neighborhood_radius
    offsets = geometry._flat_offsets(r, depth.shape[1] + 2 * r)
    vals = _pad_flat(depth, r)
    owner = _pad_flat(owner, r, -1)
    conf_owner = _pad_flat(conf_owner, r, -1)
    open_ = _pad_flat(unrel, r, False)
    slot = np.empty(open_.size, dtype=np.intp)
    cand = np.flatnonzero(open_)
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
    return _unpad(vals, depth.shape, r)


def _refine_depth_class_reference(depth, st, cfg):
    vals = depth.copy()
    conf = st.confident.copy()
    unrel = st.unreliable.copy()
    class_mask = st.confident | st.unreliable
    h, w = depth.shape
    offsets = geometry._neighbor_offsets(cfg.neighborhood_radius)
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
                for dr, dc in offsets:
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
                      classes: ClassSet | Sequence[int] | None = None,
                      impl: str = "parallel") -> np.ndarray:
    """Full depth refinement pass: warp the source view, segment both views,
    split by consistency, then propagate confident depth within each
    class."""
    depth = np.asarray(depth, dtype=np.float64)
    warped, valid = geometry.warp(img_source, depth, pose, cam)
    y_t = np.asarray(segmenter(img_target))
    y_st = np.asarray(segmenter(warped))
    if y_t.shape != depth.shape or y_st.shape != depth.shape:
        raise RefineError("segmenter output shape mismatch")
    if classes is None:
        classes = ClassSet(tuple(int(c) for c in np.unique(y_refined)))
    states = split_confidence_by_consistency(depth, y_refined, y_t, y_st,
                                             valid, classes)
    return refine_depth_with_segmentation(depth, states, cfg, impl=impl)
