"""depthseg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mutual_refine --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the workload untraced and reports the
end-to-end metrics; with ``--trace 1`` it measures the same frames untraced
and then traced, and reports the per-layer breakdown. Every metric is printed
by name with its unit, the full result (environment, seed, frame times,
checks) is written under ``.bench_out/``, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The run exits 1 when any output check fails, and 2 without a result when the
depthseg sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
HELD_OUT_SEED = 20230331
WORKLOAD_NAMES = ("mutual_refine", "loss_suite", "cli_pipeline")

END_TO_END = [
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-function time per frame, from the traced run
FUNCTION_MS = [
    "refine.refine_depth_full",
    "refine.refine_depth_with_segmentation",
    "refine.split_confidence_by_consistency",
    "refine.refine_segmentation_with_depth",
    "refine.split_confidence_by_agreement",
    "geometry.warp",
    "geometry.project",
    "geometry.bilinear_sample",
    "geometry.upsample_bilinear",
    "losses.multiscale_photometric",
    "losses.ssim_map",
    "losses.photometric_loss",
    "losses.photometric_loss_grad",
    "losses.hint_loss",
    "losses.hint_loss_grad",
    "losses.smoothness_loss",
    "losses.smoothness_loss_grad",
    "losses.cross_entropy",
    "losses.cross_entropy_grad",
    "metrics.evaluate_depth",
    "synth.render",
    "synth.corrupt",
    "synth.segmenter",
    "tensorio.save_tensor",
    "tensorio.load_tensor",
    "cli.synth",
    "cli.refine_depth",
    "cli.refine_seg",
    "cli.eval",
]

COUNTED = [
    ("refine.depth.ms_per_iter", "ms", "lower"),
    ("refine.depth.useful_ratio", "ratio", "higher"),
    ("refine.depth.wavefront_iters", "count", "lower"),
    ("refine.depth.unreliable_px", "count", "lower"),
    ("refine.depth.never_reached_px", "count", "lower"),
    ("refine.depth.changed_px", "count", "lower"),
    ("refine.depth.classes", "count", "lower"),
    ("refine.seg.wavefront_iters", "count", "lower"),
    ("refine.seg.unreliable_px", "count", "lower"),
    ("refine.seg.never_reached_px", "count", "lower"),
    ("refine.seg.relabeled_px", "count", "lower"),
    ("geometry.warp.calls", "count", "lower"),
    ("geometry.warp.valid_frac", "ratio", "higher"),
    ("synth.render.useful_ratio", "ratio", "higher"),
    ("tensorio.bytes_written", "B", "lower"),
    ("tensorio.bytes_read", "B", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("harness.uncovered_frac", "ratio", "lower"),
    ("trace.frames_per_s", "1/s", "higher"),
    ("trace.frames_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("quality.depth_abs_rel", "ratio", "lower"),
    ("quality.depth_worsened_frac", "ratio", "lower"),
    ("quality.seg_err_frac", "ratio", "lower"),
]


def per_layer_spec(layers) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(f"{name}.ms", "ms", "lower") for name in FUNCTION_MS]
            + [(f"layer.{m}.self_ms", "ms", "lower") for m in layers]
            + COUNTED)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(),
            "blas_threads_env": {k: os.environ.get(k) for k in blas},
            "git_revision": git_revision()}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload, seconds, tracer=None, cycles=None):
    """Cycle the pool whole times: ``cycles`` if given, else until ``seconds``
    have passed (stopping early rather than overshooting by more than half a
    cycle) and at least ``min_frames`` frames ran."""
    times, failures, outputs = [], [], {}
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for i in range(workload.pool_size):
            frame_id = len(times)
            if tracer is not None:
                tracer.frame, tracer.keep = frame_id, done == 0
            t0 = time.perf_counter()
            try:
                out = workload.frame(i, tracer)
                error = None
            except Exception:  # a failed frame is counted, not fatal
                out = None
                error = traceback.format_exc().strip().splitlines()[-1]
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.frame = None
            problems = [error] if error else workload.check(i, out)
            if problems:
                failures.append({"frame": frame_id, "scene": i,
                                 "problems": problems})
            elif done == 0:
                outputs[i] = out
        done += 1
        now = time.perf_counter()
        if cycles is not None:
            if done >= cycles:
                break
        elif (len(times) >= workload.min_frames
              and now - start >= seconds - (now - cycle_start) / 2):
            break
    times = np.array(times)
    return {"times": times, "cycles": done, "failures": failures,
            "outputs": outputs, "frames_per_s": len(times) / times.sum()}


def frame_stats(times, min_frames) -> dict:
    q = 100.0 * (1 - 10 / min_frames)
    return {"frame_ms_p50": float(np.percentile(times, 50) * 1e3),
            "frame_ms_tail": float(np.percentile(times, q) * 1e3),
            "tail_percentile": q, "frames": len(times),
            "frames_beyond_tail": int((times > np.percentile(times, q)).sum())}


def layer_metrics(tracer, layers, frame_times, setup_inputs, counts) -> dict:
    """Per-frame times and counts from the spans of a traced pass.

    A function's time is per frame. For a function that only set-up calls,
    such as ``synth.render`` on the workloads that render their pool, the
    time of one pool build is charged once per pool input, as each input is
    one frame of a cycle: ``setup_inputs`` is the pool size times the number
    of builds.
    """
    frames = len(frame_times)
    fn_frame, fn_self, fn_setup, calls = (defaultdict(float),
                                          defaultdict(float),
                                          defaultdict(float), defaultdict(int))
    top = 0.0
    for (name, start, end, parent, frame), own in zip(
            tracer.spans, self_times(tracer.spans)):
        if frame is None:
            fn_setup[name] += end - start
            continue
        fn_frame[name] += end - start
        fn_self[name] += own
        calls[name] += 1
        if parent < 0:
            top += end - start
    out = {f"{name}.ms": 1e3 * (fn_frame[name] / frames if name in fn_frame
                                else fn_setup[name] / setup_inputs)
           for name in FUNCTION_MS}
    for m in layers:
        own = sum(v for k, v in fn_self.items() if k.startswith(m + "."))
        out[f"layer.{m}.self_ms"] = 1e3 * own / frames
    warp = tracer.counts.get("geometry.warp", {})
    changed = {name: tracer.counts.get(f"refine.{fn}", {}).get(
        "changed_px", 0) / frames for name, fn in (
            ("seg.relabeled_px", "refine_segmentation_with_depth"),
            ("depth.changed_px", "refine_depth_with_segmentation"))}
    iters = counts.get("refine.depth.wavefront_iters", 0)
    out.update({
        "refine.depth.ms_per_iter": (
            out["refine.refine_depth_with_segmentation.ms"] / iters
            if iters else 0.0),
        "geometry.warp.calls": calls["geometry.warp"] / frames,
        "geometry.warp.valid_frac": (warp["valid_px"] / warp["px"]
                                     if warp else 0.0),
        "tensorio.bytes_written": tracer.counts.get(
            "tensorio.save_tensor", {}).get("bytes", 0) / frames,
        "tensorio.bytes_read": tracer.counts.get(
            "tensorio.load_tensor", {}).get("bytes", 0) / frames,
        "harness.uncovered_frac": 1 - top / float(frame_times.sum()),
    })
    out.update({f"refine.{name}": v for name, v in changed.items()})
    return out


def run(args) -> int:
    # these import depthseg, which main() has put on the path
    import checks
    from workloads import SETUP_REPEATS, WORKLOADS, check_frames

    modules = [importlib.import_module(f"depthseg.{m}") for m in LAYERS]
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        with (tracer.installed(modules) if tracer
              else contextlib.nullcontext()):
            setup_s = workload.setup()
        # one untimed frame first touches every code path and file
        warm_up = [f"warm-up frame: {p}"
                   for p in workload.check(0, workload.frame(0, None))]
        run_seconds = args.seconds / 2 if tracer else args.seconds
        plain = measure(workload, run_seconds)
        # the high-water mark of the measured frames, before the checks
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        traced = None
        if tracer is not None:
            with tracer.installed(modules):
                traced = measure(workload, run_seconds, tracer,
                                 cycles=plain["cycles"])
        quality = workload.quality(plain["outputs"])
        counts = {}
        if tracer is not None:
            counts.update(workload.counts())
            counts.update(checks.refine_counts(tracer.kept,
                                               workload.pool_size))
        check_rng = np.random.default_rng(args.seed)
        run_checks = (warm_up + checks.oracle_failures(check_rng)
                      + checks.gradient_failures(check_rng)
                      + checks.refinement_failures(check_frames(check_rng)))
    finally:
        workload.close()

    passes = [plain] + ([traced] if traced else [])
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures)
    correct = failed == 0 and not run_checks

    stats = frame_stats(plain["times"], workload.min_frames)
    end_to_end = {"frames_per_s": plain["frames_per_s"],
                  "frame_ms_p50": stats["frame_ms_p50"],
                  "frame_ms_tail": stats["frame_ms_tail"],
                  "setup_s": setup_s, "peak_rss_mb": usage / 1024}
    units = dict(END_TO_END)
    if tracer is None:
        reported = {name: (end_to_end[name], units[name])
                    for name, _ in END_TO_END}
    else:
        values = layer_metrics(tracer, LAYERS, traced["times"],
                               workload.pool_size * SETUP_REPEATS, counts)
        values.update(counts)
        values.update(quality)
        values["trace.frames_per_s"] = traced["frames_per_s"]
        values["trace.frames_per_s_untraced"] = plain["frames_per_s"]
        values["trace.overhead_frac"] = (plain["frames_per_s"]
                                         / traced["frames_per_s"] - 1)
        reported = {name: (values.get(name, 0.0), unit)
                    for name, unit, _ in per_layer_spec(LAYERS)}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}

    print(f"depthseg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if tracer else 'untraced'}")
    print(f"  frames {stats['frames']} ({plain['cycles']} cycle(s) of "
          f"{workload.pool_size}), tail = p{stats['tail_percentile']:.1f} "
          f"with {stats['frames_beyond_tail']} frames beyond it")
    print(f"  error_rate = {failed / attempted:.4f} "
          f"({failed} of {attempted} frames failed)")
    if tracer is None:
        for name, value in quality.items():
            print(f"  {name} = {value:.6g} ratio")
    for name, (value, unit) in reported.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in run_checks:
        print(f"  CHECK FAILED: {problem}")
    for failure in failures[:5]:
        print(f"  FRAME FAILED: {failure}")

    result = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "frames": stats["frames"], "cycles": plain["cycles"],
        "pool_size": workload.pool_size, "min_frames": workload.min_frames,
        "tail_percentile": stats["tail_percentile"],
        "frames_beyond_tail": stats["frames_beyond_tail"],
        "error_rate": failed / attempted, "attempted": attempted,
        "failed": failed, "run_checks_failed": run_checks,
        "frame_failures": failures, "end_to_end": end_to_end,
        "quality": quality, "metrics": metrics,
        "frame_ms": [round(t * 1e3, 4) for t in plain["times"]],
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"  result file: {path.relative_to(ROOT)}")
    if tracer is not None:
        # [name, start, end, parent, frame] per span, frame None in set-up
        spans = path.with_name(path.stem + "-spans.json")
        spans.write_text(json.dumps(tracer.spans))
        print(f"  spans file: {spans.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "depthseg" / "__init__.py").is_file():
        print(f"error: no depthseg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import depthseg
    if Path(depthseg.__file__).resolve().parent != SRC / "depthseg":
        print(f"error: imported depthseg from {depthseg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
