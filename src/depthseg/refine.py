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
  index lists (``geometry._flat_offsets``). Each iteration reads only the
  neighborhoods of a frontier, and the first frontier is found from
  whichever set is smaller, the confident pixels or the open ones. The
  segmentation pass pulls: its frontier is the open pixels next to a
  confident one, each reads its neighbors, and later frontiers are the open
  neighbors of the pixels the previous iteration confirmed. The depth pass
  pushes: its frontier is the pixels the previous iteration confirmed (at
  first the confident pixels next to an open one), each sends its value to
  its open same-class neighbors, and the pixels reached are the ones
  confirmed. A pixel confirmed in an iteration has no confident same-class
  neighbor older than the previous iteration, or it would have been
  confirmed earlier, so the pushers that reach it are exactly the neighbors
  a pull would read. Every value is read before any is written. The
  depth pass runs one wavefront for all classes over a per-pixel
  class-index map;
* a plain per-pixel simulator (``impl="reference"``) used as the equivalence
  oracle in tests. Both passes run the one simulator (``_simulate``), which
  owns the iteration cap, the previous-state snapshot, the neighbor test
  and the stopping rule; each pass gives it only its update rule. The
  segmentation rule takes the label of the depth-closest confident
  neighbor (the earliest offset on a tie) when that gap is below the
  threshold, and keeps the pixel's own label otherwise. The depth rule
  clips the pixel into its confident neighbors' range, one class at a
  time.

Outputs of the two are bitwise identical.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    at call time; a given one must be positive and finite.
    ``max_iterations`` of None runs each pass to its fixed point; an integer
    stops it after that many wavefront iterations.
    """

    depth_threshold: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        th = self.depth_threshold
        if th is not None and not (th > 0 and math.isfinite(th)):
            raise RefineError("depth_threshold must be positive and finite")
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
        geometry._same_shape(RefineError, self.confident, self.unreliable)
        if (self.confident & self.unreliable).any():
            raise RefineError("confident and unreliable sets overlap")


def split_confidence_by_agreement(y: np.ndarray,
                                  y_hat: np.ndarray) -> RefineState:
    """Partition pseudo-label pixels by agreement with the prediction.
    Float labels must be finite whole numbers that fit in int32."""
    y = np.asarray(y)
    y_hat = np.asarray(y_hat)
    geometry._same_shape(RefineError, y, y_hat)
    if y.size == 0:
        raise RefineError("label maps must be non-empty")
    for labels in (y, y_hat):
        # only float labels need the check; its cast copy is dropped, so
        # integer labels cost nothing
        if labels.dtype.kind == "f":
            geometry._as_labels(labels, RefineError)
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
    y_hat = np.asarray(y_hat)
    geometry._same_shape(RefineError, y, y_hat, depth)
    depth = geometry._as_depth(depth, RefineError)
    # the split checks the labels; refined labels keep y's dtype
    state = split_confidence_by_agreement(y, y_hat)
    threshold = _resolve_threshold(cfg, depth, state.confident)
    if impl == "parallel":
        return _refine_seg_parallel(y, state.confident, depth, threshold, cfg)
    if impl == "reference":
        def closest(labels, p, nbs):
            # the depth-closest neighbor, the earliest offset on a tie
            q = min(nbs, key=lambda q: abs(depth[p] - depth[q]))
            return labels[q if abs(depth[p] - depth[q]) < threshold else p]
        return _simulate(y, state.confident, state.unreliable, cfg, closest)
    raise RefineError(f"unknown impl {impl!r}")


def _iterations(cfg: RefineConfig):
    """The iteration counter of a pass: up to the cap, or unbounded. Every
    iteration that does not stop the pass confirms at least one pixel, so an
    uncapped pass stops at its fixed point."""
    if cfg.max_iterations is None:
        return itertools.count()
    return range(cfg.max_iterations)


def _simulate(values, confident, open_, cfg, update):
    """The plain per-pixel oracle of both passes. Each iteration visits, in
    raster order, every ``open_`` pixel not yet confident that has a
    confident neighbor in the previous iteration's state. The pixel takes
    ``update(prev, pixel, neighbors)``, with ``prev`` the previous
    iteration's values and ``neighbors`` its confident neighbors in
    ``geometry._NEIGHBOR_OFFSETS`` order, and becomes confident."""
    values = values.copy()
    conf = confident.copy()
    h, w = values.shape
    for _ in _iterations(cfg):
        prev, prev_conf = values.copy(), conf.copy()
        for i, j in np.argwhere(open_ & ~prev_conf).tolist():
            nbs = [(i + dr, j + dc) for dr, dc in geometry._NEIGHBOR_OFFSETS
                   if 0 <= i + dr < h and 0 <= j + dc < w
                   and prev_conf[i + dr, j + dc]]
            if nbs:
                values[i, j] = update(prev, (i, j), nbs)
                conf[i, j] = True
        if np.array_equal(conf, prev_conf):
            break
    return values


def _clip(vals, p, nbs):
    """The depth pass's rule: ``vals[p]`` clipped into the range of its
    confident neighbors' values."""
    nb_vals = [vals[q] for q in nbs]
    return max(min(vals[p], max(nb_vals)), min(nb_vals))


def _pad_flat(arr: np.ndarray, fill=0) -> np.ndarray:
    """``arr`` padded by one pixel of ``fill`` on every side, flattened."""
    h, w = arr.shape
    out = np.full((h + 2, w + 2), fill, dtype=arr.dtype)
    out[1:-1, 1:-1] = arr
    return out.ravel()


def _dedup(idx: np.ndarray, slot: np.ndarray):
    """For each entry of ``idx``, the position of the one entry of the same
    pixel that stands for it, and whether it is that entry. ``slot`` is
    scratch space with one entry per pixel."""
    # each pixel keeps the one position that its slot ends up holding
    pos = np.arange(idx.size)
    slot[idx] = pos
    rep = slot[idx]
    return rep, rep == pos


def _neighbors_in(src: np.ndarray, offsets: np.ndarray, mask: np.ndarray,
                  slot: np.ndarray) -> np.ndarray:
    """The pixels of ``mask`` next to one of the pixels ``src``, each once."""
    # here and in both passes, ``compress`` selects by a mask: on masks
    # of a few thousand entries it measured about three times faster than
    # a boolean index
    nb = (offsets[:, None] + src).ravel()
    nb = nb.compress(mask[nb])
    return nb.compress(_dedup(nb, slot)[1])


def _first_frontier(sources: np.ndarray, offsets: np.ndarray,
                    targets: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The ``targets`` pixels the first iteration starts from; only those
    next to a ``sources`` pixel take part. When the sources are fewer, these
    are the targets next to them, each once. Otherwise they are all the
    targets: the extra ones take part in nothing, and listing them costs
    less than visiting the sources' neighborhoods. The segmentation pass
    starts from the open pixels next to a confident one, the depth pass
    from the confident pixels next to an open one."""
    if np.count_nonzero(sources) < np.count_nonzero(targets):
        return _neighbors_in(np.flatnonzero(sources), offsets, targets, slot)
    return np.flatnonzero(targets)


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
        new = cand.compress(best_gap < np.inf)
        relabel = best_gap < threshold
        # gather every new label before writing any
        labels[cand.compress(relabel)] = labels[best_nb.compress(relabel)]
        conf_dep[new] = dep[new]
        # the confident set only grows, so only the open neighbors of the
        # pixels just confirmed can be confirmed next
        open_[new] = False
        cand = _neighbors_in(new, offsets, open_, slot)
    return _unpad(labels, depth.shape)


def split_confidence_by_consistency(depth: np.ndarray, y_refined: np.ndarray,
                                    y_t: np.ndarray, y_st: np.ndarray,
                                    warp_valid: np.ndarray,
                                    classes: Sequence[int]
                                    ) -> list[RefineState]:
    """Per-class partition of depth pixels by cross-view label consistency,
    one state per class id in ``classes`` order; the ids must be distinct
    integral numbers (``1.0`` is class 1).

    A pixel of class k is confident iff the target-view and warped-view
    labels agree and the warp sample was valid; warp-invalid pixels are
    always unreliable (they carry no photometric evidence).
    """
    y_refined = np.asarray(y_refined)
    geometry._same_shape(RefineError, depth, y_refined, y_t, y_st, warp_valid)
    warp_valid = np.asarray(warp_valid)
    if warp_valid.dtype != bool:
        raise RefineError(f"warp_valid must be bool, got {warp_valid.dtype}")
    for c in classes:
        if not (isinstance(c, numbers.Integral)
                or isinstance(c, numbers.Real) and float(c).is_integer()):
            raise RefineError(f"class id {c!r} is not an integral number")
    classes = [int(c) for c in classes]
    if len(set(classes)) != len(classes):
        raise RefineError("duplicate class ids")
    consistent = (np.asarray(y_t) == np.asarray(y_st)) & warp_valid
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
    depth = geometry._as_depth(depth, RefineError)
    # per-pixel index of the state whose class holds it, -1 for none, in the
    # smallest integer type that holds every index, and the confident pixels
    # of every class
    owner = np.full(depth.shape, -1,
                    dtype=np.min_scalar_type(-max(len(states), 1)))
    confident = np.zeros(depth.shape, dtype=bool)
    for i, st in enumerate(states):
        geometry._same_shape(RefineError, depth, st.confident, st.unreliable)
        mask = st.confident | st.unreliable
        if (mask & (owner >= 0)).any():
            raise RefineError("class states overlap")
        owner[mask] = i
        confident |= st.confident
    if impl == "parallel":
        return _refine_depth_parallel(depth, owner, confident, cfg)
    if impl == "reference":
        # a class reads only its own confident pixels and writes only its
        # own unreliable ones, so the classes run in turn on one array
        out = depth.copy()
        for st in states:
            out = _simulate(out, st.confident, st.unreliable, cfg, _clip)
        return out
    raise RefineError(f"unknown impl {impl!r}")


def _refine_depth_parallel(depth, owner, confident, cfg):
    offsets = geometry._flat_offsets(depth.shape[1] + 2)
    vals = _pad_flat(depth)
    owner = _pad_flat(owner, -1)
    confident = _pad_flat(confident, False)
    # class index of each open pixel, -1 elsewhere: a pusher reaches a
    # neighbor iff its entry equals the pusher's own class index
    open_owner = np.where(confident, -1, owner)
    slot = np.empty(vals.size, dtype=np.intp)
    pushers = _first_frontier(open_owner >= 0, offsets, confident, slot)
    for _ in _iterations(cfg):
        # all offsets in one (offsets, pushers) block: this wavefront runs
        # deep over small frontiers, where fewer numpy calls per iteration
        # are what counts
        nb = offsets[:, None] + pushers
        reached = (open_owner[nb] == owner[pushers]).ravel()
        targets = nb.compress(reached)
        if not targets.size:
            break
        # each pusher's value once per offset, then the reached ones
        pushed = vals[pushers][None].repeat(len(offsets), 0).compress(reached)
        # the min and max pushed to each pixel, at the entry that stands for
        # it, in buffers of the targets' size: a full-frame scratch array
        # is fresh heap, and so page faults, on every call
        rep, keep = _dedup(targets, slot)
        lo = np.full_like(pushed, np.inf)
        hi = np.full_like(pushed, -np.inf)
        np.minimum.at(lo, rep, pushed)
        np.maximum.at(hi, rep, pushed)
        # the pixels reached are confirmed now and push next
        pushers = targets.compress(keep)
        vals[pushers] = np.maximum(
            np.minimum(vals[pushers], hi.compress(keep)), lo.compress(keep))
        open_owner[pushers] = -1
    return _unpad(vals, depth.shape)


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
    depth = geometry._as_depth(depth, RefineError)
    for img in (img_target, img_source):
        img, _, _ = geometry._as_float_image(img, RefineError, "images")
        if img.shape[:2] != depth.shape:
            raise RefineError(f"images are {img.shape[:2]}, not the "
                              f"depth's {depth.shape}")
    warped, valid = geometry.warp(img_source, depth, pose, cam)
    y_t = np.asarray(segmenter(img_target))
    y_st = np.asarray(segmenter(warped))
    geometry._same_shape(RefineError, depth, y_t, y_st)
    # a fractional label is no class id: the split names it as present in
    # the labels but absent from the classes
    classes = [c for c in np.unique(y_refined).tolist()
               if float(c).is_integer()]
    states = split_confidence_by_consistency(depth, y_refined, y_t, y_st,
                                             valid, classes)
    return refine_depth_with_segmentation(depth, states, cfg, impl=impl)
