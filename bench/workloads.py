"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the run seed in ``setup`` and then runs
one frame (one unit of user work) per call of ``frame``. The library only
ever sees the generated arrays or files. Library calls go through module
attributes (``refine.refine_depth_full``, not an imported name) so that a
traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from depthseg import cli, geometry, losses, metrics, refine, synth, tensorio

# KITTI-like frames as in Monodepth2 (arXiv 1806.01260)
KITTI_H, KITTI_W = 192, 640
# mutual_refine uses 3/8 of that size. A 192x640 frame takes about 1 s, so a
# run held 24 frames, and over ten seeds their median and tail spread by up
# to 0.25 and 0.33. At 96x320 (a 14 s cycle of the pool) runs still spread by
# up to 0.36 on a busy host. At 72x240 a cycle takes about 4 s; run over the
# same minutes as 96x320, 30 s windows varied about a third as much
MUTUAL_H, MUTUAL_W = 72, 240
# the size of the frames that the run checks refine with both impls
CHECK_H, CHECK_W = 16, 48
# set-up builds the whole pool this many times; setup_s is the median
SETUP_REPEATS = 3
KITTI_BASELINE = 0.54
KITTI_BACKGROUND = 40.0
KITTI_OBJECTS = 8
KITTI_OBJECT_CLASSES = 5          # plus the background class 0
BLEED_WIDTH = 4
FLIP_RATE = 0.1
SEGMENTER_LEVELS = 64

# mutual_refine renders a fixed scene set from this seed, as an evaluation
# split is fixed, and the run seed draws the label noise. A frame's cost
# follows how deep each class's wavefront runs. Over random scenes one
# frame's time varies with a coefficient of variation of about 0.46; with
# fixed layouts and seeded textures, about 0.27; with fixed scenes the label
# noise alone still moves it by about 0.2 (a stray confident label next to
# an object decides whether its wavefront runs deep).
MUTUAL_SCENE_SEED = 1806_01260

# sigmoid disparity -> depth with Monodepth2's 0.1 m .. 100 m range
DEPTH_PARAMS = geometry.DepthParams(c1=1 / 0.1 - 1 / 100.0, c2=1 / 100.0)

_SEED_RANGE = 2 ** 31


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, _SEED_RANGE))


def kitti_camera(h: int, w: int) -> geometry.Camera:
    return geometry.Camera(0.58 * w, 1.92 * h, 0.5 * w - 0.5, 0.5 * h - 0.5)


def kitti_layout(rng: np.random.Generator, h: int, w: int) -> list[tuple]:
    """Eight rect/disk objects at depths uniform in 3-30 m (fractional
    disparities); every object class appears at least once."""
    layout = []
    for i in range(KITTI_OBJECTS):
        depth = float(rng.uniform(3.0, 30.0))
        cls = (i + 1 if i < KITTI_OBJECT_CLASSES
               else int(rng.integers(1, KITTI_OBJECT_CLASSES + 1)))
        if rng.random() < 0.5:
            oh = int(rng.integers(h // 8, h // 2))
            ow = int(rng.integers(w // 16, w // 4))
            r0 = int(rng.integers(0, h - oh))
            c0 = int(rng.integers(0, w - ow))
            layout.append(("rect", (r0, c0, r0 + oh, c0 + ow), depth, cls))
        else:
            params = (rng.uniform(0, h), rng.uniform(0, w),
                      rng.uniform(h / 16, h / 4))
            layout.append(("disk", params, depth, cls))
    return layout


def kitti_scene(layout, rng: np.random.Generator, h: int,
                w: int) -> synth.SceneSpec:
    """The layout with surface textures drawn from ``rng``."""
    objects = tuple(
        synth.ObjectSpec(shape, tuple(float(p) for p in params), depth, cls,
                         _draw_seed(rng))
        for shape, params, depth, cls in layout)
    return synth.SceneSpec(h, w, kitti_camera(h, w), KITTI_BASELINE,
                           KITTI_BACKGROUND, objects, 0, _draw_seed(rng))


def render_useful_ratio(specs) -> float:
    """Covered / evaluated surface pixels of ``synth.render`` over scenes.

    Render evaluates every surface's texture over the whole image in both
    views; only the pixels inside the surface's footprint can be used.
    """
    covered = evaluated = 0
    for spec in specs:
        h, w = spec.height, spec.width
        covered += 2 * h * w  # the background covers every pixel
        for obj in spec.objects:
            for shift in (0.0, spec.disparity(obj.depth)):
                covered += int(obj.mask(h, w, col_shift=shift).sum())
        evaluated += 2 * (1 + len(spec.objects)) * h * w
    return covered / evaluated


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


@dataclass
class KittiFrame:
    spec: synth.SceneSpec
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    seg: np.ndarray
    bad_depth: np.ndarray
    bad_seg: np.ndarray


def build_kitti_frame(spec: synth.SceneSpec,
                      rng: np.random.Generator) -> KittiFrame:
    left, right, depth, seg, _ = synth.render(spec)
    bad_depth, bad_seg = synth.corrupt(
        depth, seg, synth.CorruptionSpec(BLEED_WIDTH, FLIP_RATE,
                                         _draw_seed(rng)))
    return KittiFrame(spec, left, right, depth, seg, bad_depth, bad_seg)


def prediction(scene: KittiFrame, rng: np.random.Generator) -> np.ndarray:
    """The predicted labels: a second label flip, independent of the
    pseudo-label's."""
    return synth.corrupt(scene.depth, scene.seg, synth.CorruptionSpec(
        0, FLIP_RATE, _draw_seed(rng)))[1]


def check_frames(rng: np.random.Generator, count: int = 2) -> list[tuple]:
    """Small KITTI-like inputs of the mutual refinement for
    ``checks.refinement_failures``: (y, y_hat, depth, left, right, pose,
    camera, segmenter)."""
    pose = geometry.Pose.stereo_baseline(KITTI_BASELINE)
    segmenter = synth.intensity_segmenter(SEGMENTER_LEVELS)
    frames = []
    for _ in range(count):
        spec = kitti_scene(kitti_layout(rng, CHECK_H, CHECK_W), rng, CHECK_H,
                           CHECK_W)
        scene = build_kitti_frame(spec, rng)
        frames.append((scene.bad_seg, prediction(scene, rng), scene.bad_depth,
                       scene.left, scene.right, pose, spec.camera, segmenter))
    return frames


def quality_metrics(frames) -> dict:
    """Refinement quality against ground truth over (abs_rel, refined depth,
    corrupted depth, true depth, refined labels, true labels) per frame."""
    abs_rel, worse, seg_err, px = [], 0, 0, 0
    for rel, depth, bad_depth, gt_depth, seg, gt_seg in frames:
        abs_rel.append(rel)
        worse += int((np.abs(depth - gt_depth)
                      > np.abs(bad_depth - gt_depth)).sum())
        seg_err += int((seg != gt_seg).sum())
        px += gt_depth.size
    if not px:
        return {}
    return {"quality.depth_abs_rel": float(np.mean(abs_rel)),
            "quality.depth_worsened_frac": worse / px,
            "quality.seg_err_frac": seg_err / px}


class Workload:
    """One workload: ``pool_size`` inputs cycled a whole number of times."""

    name: str
    pool_size: int
    # the fixed frame count: the tail percentile leaves 10 of these beyond it
    min_frames: int

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> float:
        """Build the pool ``SETUP_REPEATS`` times from the seed, the same
        each time; returns the median build time in seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.build(np.random.default_rng(self.seed))
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def build(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def frame(self, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def quality(self, outputs: dict) -> dict:
        """Quality against ground truth of one cycle's correct frames."""
        return {}

    def counts(self) -> dict:
        """Per-layer counts computed from the pool, outside the frames."""
        return {}

    def close(self) -> None:
        pass


class MutualRefine(Workload):
    """Segmentation refined by depth, then depth refined by segmentation."""

    name = "mutual_refine"
    # measured at 96x320: over ten seeds, the wavefront iterations at the
    # tail frame spread by 0.155 (quartiles over median) with 32 scenes and
    # by 0.03 with 64
    pool_size = 64
    min_frames = 192

    def build(self, rng):
        scenes = np.random.default_rng(MUTUAL_SCENE_SEED)
        self.pose = geometry.Pose.stereo_baseline(KITTI_BASELINE)
        self.segmenter = synth.intensity_segmenter(SEGMENTER_LEVELS)
        self.scenes = []
        self.y_hat = []
        for _ in range(self.pool_size):
            spec = kitti_scene(kitti_layout(scenes, MUTUAL_H, MUTUAL_W),
                               scenes, MUTUAL_H, MUTUAL_W)
            scene = build_kitti_frame(spec, rng)
            self.scenes.append(scene)
            self.y_hat.append(prediction(scene, rng))

    def frame(self, i, tracer):
        s = self.scenes[i]
        segmenter = (self.segmenter if tracer is None
                     else tracer.wrap("synth.segmenter", self.segmenter))
        y_ref = refine.refine_segmentation_with_depth(s.bad_seg, self.y_hat[i],
                                                      s.bad_depth)
        depth = refine.refine_depth_full(s.bad_depth, y_ref, s.left, s.right,
                                         self.pose, s.spec.camera, segmenter)
        result = metrics.evaluate_depth(depth, s.depth)
        return y_ref, depth, result

    def check(self, i, out):
        s = self.scenes[i]
        y_ref, depth, result = out
        problems = []
        if y_ref.shape != s.seg.shape or depth.shape != s.depth.shape:
            problems.append("output shape")
        elif not _finite(depth, [result.abs_rel, result.rmse]):
            problems.append("non-finite output")
        elif (depth.min() < s.bad_depth.min()
              or depth.max() > s.bad_depth.max()):
            problems.append("refined depth outside the input range")
        elif not np.isin(y_ref, s.bad_seg).all():
            problems.append("refined labels outside the input labels")
        return problems

    def quality(self, outputs):
        return quality_metrics(
            (result.abs_rel, depth, self.scenes[i].bad_depth,
             self.scenes[i].depth, y_ref, self.scenes[i].seg)
            for i, (y_ref, depth, result) in outputs.items())

    def counts(self):
        return {"synth.render.useful_ratio": render_useful_ratio(
            s.spec for s in self.scenes)}


class LossSuite(Workload):
    """The self-supervised loss terms of one training step, with gradients."""

    name = "loss_suite"
    pool_size = 6
    min_frames = 80
    classes = 1 + KITTI_OBJECT_CLASSES

    def build(self, rng):
        self.pose = geometry.Pose.stereo_baseline(KITTI_BASELINE)
        self.scenes = []
        self.pyramids = []
        self.probs = []
        for _ in range(self.pool_size):
            spec = kitti_scene(kitti_layout(rng, KITTI_H, KITTI_W), rng,
                               KITTI_H, KITTI_W)
            scene = build_kitti_frame(spec, rng)
            # the predicted disparity is the bleeding depth as a sigmoid
            # disparity at 1, 1/2, 1/4 and 1/8 resolution
            sigma = np.clip((1 / scene.bad_depth - DEPTH_PARAMS.c2)
                            / DEPTH_PARAMS.c1, 0.0, 1.0)
            pyramid = [sigma]
            for _ in range(3):
                pyramid.append(geometry.downsample2x_area(pyramid[-1]))
            logits = (2.0 * np.eye(self.classes)[scene.bad_seg]
                      + rng.normal(0.0, 0.5, scene.seg.shape
                                   + (self.classes,)))
            probs = np.exp(logits - logits.max(axis=2, keepdims=True))
            probs /= probs.sum(axis=2, keepdims=True)
            self.scenes.append(scene)
            self.pyramids.append(pyramid)
            self.probs.append(probs)

    def frame(self, i, tracer):
        s = self.scenes[i]
        cam = s.spec.camera
        disp = self.pyramids[i]
        pe = losses.multiscale_photometric(disp, s.left, s.right, self.pose,
                                           cam, DEPTH_PARAMS)
        warped, valid = geometry.warp(s.right, s.depth, self.pose, cam)
        g_pe = losses.photometric_loss_grad(s.left, warped, valid)
        hint = losses.hint_loss(s.bad_depth, s.depth)
        g_hint = losses.hint_loss_grad(s.bad_depth, s.depth)
        smooth = losses.smoothness_loss(disp[0], s.left)
        g_smooth = losses.smoothness_loss_grad(disp[0], s.left)
        ce = losses.cross_entropy(s.seg, self.probs[i])
        g_ce = losses.cross_entropy_grad(s.seg, self.probs[i])
        g_shared = losses.combine_shared_gradients(g_hint + g_smooth,
                                                   g_ce.sum(axis=2), 0.5)
        total = losses.total_loss(losses.total_depth_loss(pe, hint, 0.0,
                                                          smooth),
                                  losses.total_seg_loss(ce, 0.0))
        return (pe, hint, smooth, ce, total), (g_pe, g_hint, g_smooth, g_ce,
                                                g_shared)

    def check(self, i, out):
        values, grads = out
        h, w = KITTI_H, KITTI_W
        shapes = [(h, w, 1), (h, w), (h, w), (h, w, self.classes), (h, w)]
        if [g.shape for g in grads] != shapes:
            return ["gradient shape"]
        if not _finite(values, *grads):
            return ["non-finite loss or gradient"]
        return []

    def counts(self):
        return {"synth.render.useful_ratio": render_useful_ratio(
            s.spec for s in self.scenes)}


CLI_H, CLI_W = 128, 256
# fx * baseline = 40, so every depth below gives an integral disparity
CLI_CAMERA = "200 200 127.5 63.5  1 0 0 -0.2  0 1 0 0  0 0 1 0\n"
CLI_DEPTHS = (2.0, 2.5, 4.0, 5.0, 8.0)
CLI_OBJECTS = 3


def cli_scene_config(rng: np.random.Generator) -> str:
    """A scene file like the acceptance scene: 10 m background, objects at
    integral disparities, bleed 4 and label flip 0.1."""
    height, width = CLI_H, CLI_W
    lines = [f"height={height}", f"width={width}", "fx=200", "fy=200",
             f"cx={(width - 1) / 2}", f"cy={(height - 1) / 2}",
             "baseline=0.2", "background_depth=10",
             f"background_texture_seed={_draw_seed(rng)}",
             f"bleed_width={BLEED_WIDTH}", f"seg_flip_rate={FLIP_RATE}",
             f"seed={_draw_seed(rng)}"]
    for k in range(CLI_OBJECTS):
        depth = CLI_DEPTHS[int(rng.integers(len(CLI_DEPTHS)))]
        if rng.random() < 0.5:
            oh = int(rng.integers(height // 8, height // 2))
            ow = int(rng.integers(width // 8, width // 3))
            r0 = int(rng.integers(0, height - oh))
            c0 = int(rng.integers(0, width - ow))
            shape = f"rect,{r0},{c0},{r0 + oh},{c0 + ow}"
        else:
            radius = int(rng.integers(height // 12, height // 4))
            shape = (f"disk,{int(rng.integers(0, height))},"
                     f"{int(rng.integers(0, width))},{radius}")
        lines.append(f"object={shape},{depth},{k + 1},{_draw_seed(rng)}")
    return "\n".join(lines) + "\n"


class StageResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


class CliPipeline(Workload):
    """The README pipeline synth -> refine-depth -> refine-seg -> eval, one
    command after another through the CLI entry point ``cli.main``."""

    name = "cli_pipeline"
    pool_size = 96
    min_frames = 100
    stages = ("synth", "refine_depth", "refine_seg", "eval")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))

    def build(self, rng):
        self.camera = self.tmp / "camera.txt"
        self.camera.write_text(CLI_CAMERA)
        self.configs = []
        for i in range(self.pool_size):
            path = self.tmp / f"scene{i}.cfg"
            path.write_text(cli_scene_config(rng))
            self.configs.append(path)
        # the ground truth that the checks and the quality metrics compare
        # the command line's files with, rendered in memory from the files
        self.truth = []
        for path in self.configs:
            scene = synth.parse_scene_config(path).scene
            _, _, depth, seg, _ = synth.render(scene)
            self.truth.append((scene, depth.astype(np.float32),
                               seg.astype(np.int32)))

    def paths(self, name) -> dict:
        p = str(self.tmp / f"s{name}")
        return {"prefix": p, "left": p + "_left.stn",
                "right": p + "_right.stn", "depth": p + "_depth.stn",
                "seg": p + "_seg.stn", "bad_depth": p + "_depth_corrupt.stn",
                "bad_seg": p + "_seg_corrupt.stn", "fixed": p + "_fixed.stn",
                "seg_out": p + "_seg_refined.stn"}

    def argvs(self, config, p) -> dict:
        return {
            "synth": ["synth", "--config", str(config),
                      "--out-prefix", p["prefix"]],
            "refine_depth": ["refine-depth", "--depth", p["bad_depth"],
                             "--y", p["seg"], "--target", p["left"],
                             "--src", p["right"], "--camera",
                             str(self.camera), "--out", p["fixed"]],
            "refine_seg": ["refine-seg", "--y", p["bad_seg"], "--yhat",
                           p["seg"], "--depth", p["fixed"],
                           "--out", p["seg_out"]],
            "eval": ["eval", "--pred", p["fixed"], "--gt", p["depth"]],
        }

    def run_stages(self, argvs, tracer) -> dict:
        results = {}
        for stage in self.stages:
            span = None if tracer is None else tracer.open(f"cli.{stage}")
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = cli.main(argvs[stage])
            if tracer is not None:
                tracer.close(span)
            results[stage] = StageResult(code, out.getvalue(), err.getvalue())
            if code != 0:
                break
        return results

    def frame(self, i, tracer):
        return self.run_stages(self.argvs(self.configs[i], self.paths(i)),
                               tracer)

    def check(self, i, out):
        for stage, proc in out.items():
            if proc.returncode != 0:
                return [f"{stage} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}"]
        try:
            t = self.load(i)
        except (OSError, tensorio.TensorError) as e:
            return [f"unloadable output: {e}"]
        if {a.shape for a in t.values()} != {(CLI_H, CLI_W)}:
            return ["output shape"]
        if not _finite(t["fixed"]):
            return ["non-finite refined depth"]
        _, depth, seg = self.truth[i]
        if not (np.array_equal(t["depth"], depth)
                and np.array_equal(t["seg"], seg)):
            return ["synth wrote another depth or segmentation than render"]
        row = self.eval_row(out)
        if row is None:
            return ["unparseable eval CSV"]
        expected = metrics.evaluate_depth(t["fixed"], t["depth"]).abs_rel
        if abs(row["abs_rel"] - expected) > 1e-6:
            return [f"eval abs_rel {row['abs_rel']} != library {expected}"]
        return []

    @staticmethod
    def eval_row(out):
        lines = out["eval"].stdout.strip().splitlines()
        header = metrics.DepthEvalResult.CSV_HEADER.split(",")
        if len(lines) < 2 or lines[-2].split(",") != header:
            return None
        fields = lines[-1].split(",")
        if len(fields) != len(header):
            return None
        try:
            return {k: float(v) for k, v in zip(header, fields)}
        except ValueError:
            return None

    def load(self, i) -> dict:
        """Every tensor file of frame i, as 2-D arrays."""
        return {k: tensorio.load_tensor(path).data[:, :, 0]
                for k, path in self.paths(i).items() if k != "prefix"}

    def quality(self, outputs):
        def frames():  # one frame's files in memory at a time
            for i, out in outputs.items():
                t = self.load(i)
                _, depth, seg = self.truth[i]
                yield (self.eval_row(out)["abs_rel"], t["fixed"],
                       t["bad_depth"], depth, t["seg_out"], seg)
        return quality_metrics(frames())

    def counts(self):
        return {"synth.render.useful_ratio": render_useful_ratio(
                    scene for scene, _, _ in self.truth),
                "cli.startup_ms": self.startup_ms()}

    def startup_ms(self, frames: int = 3) -> float:
        """Process start and imports per frame, had each command run as its
        own process: the child's wall time minus its ``cli.main`` call."""
        root = Path(__file__).resolve().parent.parent
        seconds_file = self.tmp / "cli_main_s.txt"
        total = 0.0
        for i in range(frames):
            for argv in self.argvs(self.configs[i], self.paths(i)).values():
                start = time.perf_counter()
                subprocess.run([sys.executable, str(Path(__file__).with_name(
                    "cli_stage.py")), str(seconds_file), *argv], cwd=root,
                    capture_output=True, check=True, timeout=120)
                wall = time.perf_counter() - start
                total += wall - float(seconds_file.read_text())
        return 1e3 * total / frames

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MutualRefine, LossSuite, CliPipeline)}
