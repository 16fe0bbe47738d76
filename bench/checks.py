"""Output checks and work counts computed from outside the library.

Nothing here is timed. The checks feed the run's ``correct`` flag; the counts
are reported as per-layer metrics of the traced run.
"""

from __future__ import annotations

import numpy as np

from depthseg import geometry, losses, refine

from spans import Tracer

SPLITS = {"seg": "refine.split_confidence_by_agreement",
          "depth": "refine.split_confidence_by_consistency"}


def dilate(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Chebyshev dilation: True where any pixel within ``radius`` is True."""
    h, w = mask.shape
    padded = np.pad(mask, radius)
    out = np.zeros_like(mask)
    for dr in range(2 * radius + 1):
        for dc in range(2 * radius + 1):
            out |= padded[dr:dr + h, dc:dc + w]
    return out


def wavefront(confident: np.ndarray, unreliable: np.ndarray,
              radius: int = 1) -> tuple[int, int]:
    """(iterations, reached pixels) of one synchronous wavefront.

    Each iteration confirms the unreliable pixels that have a confident pixel
    within the Chebyshev radius; it stops when an iteration confirms nothing.
    """
    conf = confident.copy()
    todo = unreliable & ~confident
    iterations = 0
    while todo.any():
        grown = dilate(conf, radius) & todo
        if not grown.any():
            break
        conf |= grown
        todo &= ~grown
        iterations += 1
    return iterations, int(unreliable.sum() - todo.sum())


def refine_counts(kept: dict, frames: int) -> dict:
    """Wavefront work of both passes per frame, over the masks that the
    traced ``split_confidence_by_*`` calls returned (``Tracer.kept``)."""
    out = {}
    reached_all = work = 0
    for name, split in SPLITS.items():
        iters = unreliable = never = classes = 0
        for call in kept.get(split, []):
            for confident, unrel in call:
                n, reached = wavefront(confident, unrel)
                iters += n
                unreliable += int(unrel.sum())
                never += int(unrel.sum()) - reached
                classes += 1
                if name == "depth":
                    reached_all += reached
                    work += n * unrel.size
        out[f"refine.{name}.wavefront_iters"] = iters / frames
        out[f"refine.{name}.unreliable_px"] = unreliable / frames
        out[f"refine.{name}.never_reached_px"] = never / frames
        if name == "depth":
            out["refine.depth.classes"] = classes / frames
    out["refine.depth.useful_ratio"] = reached_all / work if work else 0.0
    return out


def _wavefront_cap(tracer: Tracer, split: str) -> int | None:
    """The iterations the last traced call of ``split`` needs: the deepest
    wavefront over its classes, and at least 1. None if it was not called."""
    if not tracer.kept[split]:
        return None
    return max([1] + [wavefront(c, u)[0] for c, u in tracer.kept[split][-1]])


def cap_failures(label: str, split: str, run,
                  must_differ: bool = False) -> list[str]:
    """``run(cfg)`` capped at the iteration count computed from its split
    masks must equal the uncapped pass. With ``must_differ``, for inputs
    whose last iteration is known to change a pixel, the pass capped one
    iteration lower must differ from it."""
    tracer = Tracer()
    tracer.frame, tracer.keep = 0, True  # keep the split masks
    with tracer.installed([refine]):
        full = run(refine.RefineConfig())
    cap = _wavefront_cap(tracer, split)
    if cap is None:
        return [f"{label}: the pass never called {split}"]
    failures = []
    if not np.array_equal(run(refine.RefineConfig(max_iterations=cap)), full):
        failures.append(f"{label}: capped at its {cap} computed iterations, "
                        "the pass gave another output")
    if must_differ and (cap < 2 or np.array_equal(
            run(refine.RefineConfig(max_iterations=cap - 1)), full)):
        failures.append(f"{label}: capped one iteration below its {cap} "
                        "computed iterations, the pass gave the uncapped "
                        "output")
    return failures


def edge_strip_instance(h: int = 4, w: int = 24) -> tuple:
    """Inputs of ``refine_depth_full`` whose refinement is known.

    Depth is 10 m everywhere but a 2 m strip at the left edge. The strip's
    disparity (20 px) puts its warp samples outside the source image, so it
    is unreliable, and the segmenter labels every pixel 0, so every other
    pixel is confident. The wavefront clips the strip to 10 m column by
    column, and the edge column changes in the last iteration. Returns
    (depth, labels, target, source, pose, camera, segmenter).
    """
    depth = np.full((h, w), 10.0)
    depth[:, :4] = 2.0
    image = np.random.default_rng(0).random((h, w, 3))
    return (depth, np.zeros((h, w), dtype=np.int64), image, image,
            geometry.Pose.stereo_baseline(0.2),
            geometry.Camera(200.0, 200.0, (w - 1) / 2, (h - 1) / 2),
            lambda img: np.zeros(img.shape[:2], dtype=np.int64))


def refinement_failures(frames) -> list[str]:
    """Checks that fail when refinement is skipped or wrong in shared code.

    ``frames`` holds small (y, y_hat, depth, left, right, pose, camera,
    segmenter) inputs of the mutual refinement. On each, the full public
    path (``refine_segmentation_with_depth``, then ``refine_depth_full`` on
    its labels) with ``impl="reference"`` must equal the default bitwise,
    and each pass capped at its computed iteration count must equal the
    uncapped pass. On two inputs whose last iteration is known to change a
    pixel, one per pass, the pass capped one iteration lower must differ,
    which a pass that returns its input fails.
    """
    failures = []
    for i, (y, y_hat, depth, left, right, pose, cam, seg) in enumerate(frames):
        size = "x".join(map(str, depth.shape))
        outs = {}
        for impl in ("parallel", "reference"):
            y_ref = refine.refine_segmentation_with_depth(y, y_hat, depth,
                                                          impl=impl)
            outs[impl] = (y_ref, refine.refine_depth_full(
                depth, y_ref, left, right, pose, cam, seg, impl=impl))
        for k, name in enumerate(SPLITS):
            if not np.array_equal(outs["parallel"][k], outs["reference"][k]):
                failures.append(f"frame {i} ({size}): the {name} path's "
                                "reference and default outputs diverged")
        y_ref = outs["parallel"][0]
        failures += cap_failures(
            f"frame {i} seg pass", SPLITS["seg"],
            lambda cfg: refine.refine_segmentation_with_depth(y, y_hat, depth,
                                                              cfg))
        failures += cap_failures(
            f"frame {i} depth pass", SPLITS["depth"],
            lambda cfg: refine.refine_depth_full(depth, y_ref, left, right,
                                                 pose, cam, seg, cfg))
    # one label run that the wavefront relabels from its left end
    y, y_hat = np.array([[0, 1, 1, 1, 1]]), np.zeros((1, 5), dtype=np.int64)
    failures += cap_failures(
        "label run", SPLITS["seg"],
        lambda cfg: refine.refine_segmentation_with_depth(
            y, y_hat, np.ones(y.shape), cfg), must_differ=True)
    strip = edge_strip_instance()
    failures += cap_failures(
        "edge strip", SPLITS["depth"],
        lambda cfg: refine.refine_depth_full(*strip, cfg), must_differ=True)
    return failures


def oracle_failures(rng: np.random.Generator, instances: int = 4) -> list[str]:
    """Both passes, impl="parallel" against impl="reference", bitwise."""
    failures = []
    for i in range(instances):
        h, w = (int(v) for v in rng.integers(4, 17, 2))
        k = int(rng.integers(2, 6))
        depth = rng.random((h, w)) * 10 + 0.5
        y = rng.integers(0, k, (h, w))
        y_hat = rng.integers(0, k, (h, w))
        out = [refine.refine_segmentation_with_depth(y, y_hat, depth,
                                                     impl=impl)
               for impl in ("parallel", "reference")]
        if not np.array_equal(*out):
            failures.append(f"seg oracle instance {i} ({h}x{w}) diverged")
        states = refine.split_confidence_by_consistency(
            depth, y, y_hat, rng.integers(0, k, (h, w)),
            rng.random((h, w)) < 0.9, range(k))
        out = [refine.refine_depth_with_segmentation(depth, states, impl=impl)
               for impl in ("parallel", "reference")]
        if not np.array_equal(*out):
            failures.append(f"depth oracle instance {i} ({h}x{w}) diverged")
    return failures


def _central_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    num = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        num[idx] = (f(xp) - f(xm)) / (2 * eps)
    return num


def gradient_failures(rng: np.random.Generator, size: int = 6,
                      tolerance: float = 1e-4) -> list[str]:
    """Analytic loss gradients against central differences on a patch."""
    img = rng.random((size, size, 3))
    warped = rng.random((size, size, 3))
    pred = rng.random((size, size)) + 0.5
    target = rng.random((size, size)) + 0.5
    disp = rng.random((size, size)) + 0.1
    logits = rng.random((size, size, 4)) + 0.1
    probs = logits / logits.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 4, (size, size))
    cases = {
        "photometric": (losses.photometric_loss_grad(img, warped),
                        lambda x: losses.photometric_loss(img, x), warped),
        "hint": (losses.hint_loss_grad(pred, target),
                 lambda x: losses.hint_loss(x, target), pred),
        "smoothness": (losses.smoothness_loss_grad(disp, img),
                       lambda x: losses.smoothness_loss(x, img), disp),
        "cross_entropy": (losses.cross_entropy_grad(labels, probs),
                          lambda x: losses.cross_entropy(labels, x), probs),
    }
    failures = []
    for name, (grad, f, x) in cases.items():
        num = _central_difference(f, x)
        err = np.abs(grad - num).max() / max(np.abs(num).max(), 1e-8)
        if not err < tolerance:
            failures.append(f"{name} gradient relative error {err:.2e}")
    return failures
