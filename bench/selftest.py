"""Tests of the benchmark itself, through depthseg's public API only.

    python3 bench/selftest.py
    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

They are kept out of the repository's tier-1 suite (the file name does not
match ``test_*.py``): they belong to the benchmark, and they run the 72x240
refinement passes and the command line in child processes.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from depthseg import geometry, refine, synth  # noqa: E402
from depthseg.refine import RefineConfig  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, CliPipeline, MutualRefine,  # noqa: E402
                       check_frames)


def test_wavefront_count_caps_both_passes_exactly():
    """On pool frames, capping each pass at the iteration count computed
    from its traced split masks changes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        w = MutualRefine(seed=5, workdir=Path(tmp))
        w.pool_size = 2
        w.build(np.random.default_rng(5))
        for i, s in enumerate(w.scenes):
            y_ref, _, _ = w.frame(i, None)
            assert checks.cap_failures(
                "seg", checks.SPLITS["seg"],
                lambda cfg: refine.refine_segmentation_with_depth(
                    s.bad_seg, w.y_hat[i], s.bad_depth, cfg)) == []
            assert checks.cap_failures(
                "depth", checks.SPLITS["depth"],
                lambda cfg: refine.refine_depth_full(
                    s.bad_depth, y_ref, s.left, s.right, w.pose,
                    s.spec.camera, w.segmenter, cfg)) == []


def test_refinement_checks_catch_a_pass_that_does_nothing():
    frames = check_frames(np.random.default_rng(5))
    assert checks.refinement_failures(frames) == []
    no_ops = {
        "refine_segmentation_with_depth": lambda y, *a, **k: np.asarray(y),
        "refine_depth_full": lambda depth, *a, **k: np.asarray(depth, float),
        "refine_depth_with_segmentation":
            lambda depth, *a, **k: np.asarray(depth, float),
    }
    for name, no_op in no_ops.items():
        original = getattr(refine, name)
        setattr(refine, name, no_op)
        try:
            assert checks.refinement_failures(frames), name
        finally:
            setattr(refine, name, original)


def test_cli_frame_writes_what_the_command_line_writes():
    """An in-process frame gives the files that one process per command
    gives."""
    with tempfile.TemporaryDirectory() as tmp:
        w = CliPipeline(seed=3, workdir=Path(tmp))
        w.pool_size = 1
        w.setup()
        try:
            assert all(r.returncode == 0 for r in w.frame(0, None).values())
            env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
            p = w.paths("cmd")
            for argv in w.argvs(w.configs[0], p).values():
                subprocess.run([sys.executable, "-m", "depthseg.cli", *argv],
                               env=env, check=True, capture_output=True)
            for key in ("fixed", "seg_out"):
                assert (Path(w.paths(0)[key]).read_bytes()
                        == Path(p[key]).read_bytes()), key
        finally:
            w.close()


def test_wavefront_count_is_the_minimum_on_a_line():
    y = np.array([[0, 1, 1, 1, 1]])
    y_hat = np.zeros_like(y)
    depth = np.ones(y.shape)
    st = refine.split_confidence_by_agreement(y, y_hat)
    assert checks.wavefront(st.confident, st.unreliable) == (4, 4)
    full = refine.refine_segmentation_with_depth(y, y_hat, depth)
    assert full.tolist() == [[0, 0, 0, 0, 0]]
    for cap, same in ((3, False), (4, True)):
        out = refine.refine_segmentation_with_depth(
            y, y_hat, depth, RefineConfig(max_iterations=cap))
        assert np.array_equal(out, full) == same


def test_never_reached_pixels_are_counted():
    conf = np.array([[True, False, False, False]])
    unrel = np.array([[False, True, False, True]])
    assert checks.wavefront(conf, unrel) == (1, 1)


def test_tracer_records_cross_module_calls_as_children():
    cam = geometry.Camera(200.0, 200.0, 15.5, 7.5)
    spec = synth.SceneSpec(16, 32, cam, 0.2, 10.0, (
        synth.ObjectSpec("rect", (4, 10, 12, 20), 2.0, 1, 7),))
    left, right, depth, seg, _ = synth.render(spec)
    original = refine.refine_depth_full
    tracer = Tracer()
    tracer.frame, tracer.keep = 0, True
    with tracer.installed([refine, geometry]):
        refine.refine_depth_full(depth, seg, left, right,
                                 geometry.Pose.stereo_baseline(0.2), cam,
                                 synth.intensity_segmenter(64))
    assert refine.refine_depth_full is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "refine.refine_depth_full"
    for child in ("geometry.warp", "refine.split_confidence_by_consistency",
                  "refine.refine_depth_with_segmentation"):
        parent = tracer.spans[names.index(child)][3]
        assert names[parent] == "refine.refine_depth_full", child
    assert tracer.counts["geometry.warp"]["px"] == 16 * 32
    assert len(tracer.kept["refine.split_confidence_by_consistency"]) == 1
    assert all(not n.split(".")[1].startswith("_") for n in names)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_spec(LAYERS)


def test_checks_pass_on_this_code():
    rng = np.random.default_rng(0)
    assert checks.oracle_failures(rng) == []
    assert checks.gradient_failures(rng) == []


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e!r}")
    sys.exit(1 if failed else 0)
