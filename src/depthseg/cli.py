"""Command-line front end.

Each subcommand wraps exactly one library operation; commands communicate
through STN1 tensor files (plus PGM/PPM for preview images), so pipelines can
be replayed and every intermediate inspected. Exit codes: 0 success, 1 usage
error, 2 malformed or missing data. Output files are written atomically, so a
failing command never leaves a partial artifact behind.

Cost model. ``main`` builds the argparse tree once per process, on its first
call, and every later call reuses it. On a 2-core Xeon host the tree takes
1.1 ms to build in a tight loop and about 2.5 ms between the commands of a
pipeline, about as long as a whole ``refine-seg`` or ``eval`` command takes
without it. The cost is in argparse itself: it makes a help formatter for
every argument, each of which reads the terminal size and ``os.environ``,
and it looks up gettext strings, so trimming arguments would not remove it.
Parsing keeps no state in the parser: each call gets a fresh namespace, and
usage and help text are formatted when they are printed. A one-shot
``depthseg`` process does the same work as before, and an in-process caller
of ``main`` pays for the tree once. ``build_parser`` still returns a new
tree on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import arch, geometry, losses, metrics, refine, synth, tensorio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the subcommand parsers by name; set on the root parser only
    commands: dict[str, "_Parser"]

    # argparse exits with status 2 on usage errors; remap to our convention
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _load(path) -> tensorio.Tensor2D:
    try:
        return tensorio.load_tensor(path)
    except OSError as e:
        raise tensorio.TensorError(f"{path}: {e.strerror or e}") from None


def _plane(t: tensorio.Tensor2D, dtype=np.float64) -> np.ndarray:
    """Single-channel tensor as a 2-D array."""
    if t.channels != 1:
        raise tensorio.TensorError("expected a single-channel tensor")
    return t.data[:, :, 0].astype(dtype)


def _save(arr: np.ndarray, dtype_name: str, path) -> None:
    tensorio.save_tensor(tensorio.Tensor2D(
        np.asarray(arr).astype(tensorio.DTYPE_NAMES[dtype_name])), path)


def cmd_synth(args) -> int:
    config = synth.parse_scene_config(args.config)
    img_l, img_r, depth, seg, occ = synth.render(config.scene)
    _save(img_l, "f32", args.out_prefix + "_left.stn")
    _save(img_r, "f32", args.out_prefix + "_right.stn")
    _save(depth, "f32", args.out_prefix + "_depth.stn")
    _save(seg, "i32", args.out_prefix + "_seg.stn")
    _save(occ.astype(np.uint8), "u8", args.out_prefix + "_occ.stn")
    spec = config.corruption
    if spec.bleed_width or spec.seg_flip_rate:
        bad_depth, bad_seg = synth.corrupt(depth, seg, spec)
        _save(bad_depth, "f32", args.out_prefix + "_depth_corrupt.stn")
        _save(bad_seg, "i32", args.out_prefix + "_seg_corrupt.stn")
    if args.preview:
        tensorio.write_pgm_ppm(tensorio.to_u8(tensorio.Tensor2D(img_l)),
                               args.out_prefix + "_left.pgm")
    print(f"rendered {config.scene.height}x{config.scene.width} scene with "
          f"{len(config.scene.objects)} objects; "
          f"{int(occ.sum())} occluded pixels")
    return EXIT_OK


def cmd_warp(args) -> int:
    src = tensorio.to_float(_load(args.src)).data
    depth = _plane(_load(args.depth))
    cam, pose = geometry.load_camera_pose(args.camera)
    warped, valid = geometry.warp(src, depth, pose, cam)
    _save(warped, "f32", args.out)
    _save(valid.astype(np.uint8), "u8", args.out_valid)
    print(f"warped {valid.size} pixels, {int(valid.sum())} valid")
    return EXIT_OK


def cmd_refine_seg(args) -> int:
    y = _plane(_load(args.y), np.int32)
    y_hat = _plane(_load(args.yhat), np.int32)
    depth = _plane(_load(args.depth))
    cfg = refine.RefineConfig(depth_threshold=args.th)
    refined = refine.refine_segmentation_with_depth(y, y_hat, depth, cfg)
    _save(refined, "i32", args.out)
    print(f"relabeled {int((refined != y).sum())} pixels")
    return EXIT_OK


def cmd_refine_depth(args) -> int:
    depth = _plane(_load(args.depth))
    y = _plane(_load(args.y), np.int32)
    img_t = tensorio.to_float(_load(args.target)).data
    img_s = tensorio.to_float(_load(args.src)).data
    cam, pose = geometry.load_camera_pose(args.camera)
    refined = refine.refine_depth_full(depth, y, img_t, img_s, pose, cam,
                                       synth.intensity_segmenter())
    _save(refined, "f32", args.out)
    print(f"adjusted {int((refined != depth).sum())} pixels")
    return EXIT_OK


def cmd_loss(args) -> int:
    w = losses.LossWeights(gamma=args.gamma)
    if args.kind == "photometric":
        a = tensorio.to_float(_load(args.a)).data
        b = tensorio.to_float(_load(args.b)).data
        value = losses.photometric_loss(a, b, w=w)
    elif args.kind == "hint":
        a = _plane(_load(args.a))
        b = _plane(_load(args.b))
        value = losses.hint_loss(a, b)
    elif args.kind == "smoothness":
        a = _plane(_load(args.a))
        b = tensorio.to_float(_load(args.b)).data
        value = losses.smoothness_loss(a, b)
    else:  # cross-entropy
        a = _load(args.a)
        target = (a.data[:, :, 0].astype(np.int64) if a.dtype_name == "i32"
                  else a.data.astype(np.float64))
        probs = _load(args.b).data.astype(np.float64)
        value = losses.cross_entropy(target, probs)
    print(f"{args.kind} {value:.9f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = _plane(_load(args.pred))
    gt = _plane(_load(args.gt))
    result = metrics.evaluate_depth(pred, gt, cap=args.cap)
    print(metrics.DepthEvalResult.CSV_HEADER)
    print(result.csv_row())
    return EXIT_OK


def cmd_pp(args) -> int:
    d = _plane(_load(args.pred))
    d_flipped = _plane(_load(args.pred_flipped))
    _save(geometry.flip_postprocess(d, d_flipped), "f32", args.out)
    print(f"blended {d.size} pixels")
    return EXIT_OK


def cmd_arch(args) -> int:
    tables = arch.load_tables(num_classes=args.classes)
    print(arch.report(tables, args.level, args.encoder,
                      (args.height, args.width)))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="depthseg",
                     description="Stereo depth + segmentation refinement "
                                 "toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("synth", help="render a synthetic stereo scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--preview", action="store_true",
                   help="also write a PGM preview of the left image")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("warp", help="warp a source image into the target "
                                    "view")
    p.add_argument("--src", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--camera", required=True,
                   help="text file: fx fy cx cy + row-major R|t")
    p.add_argument("--out", required=True)
    p.add_argument("--out-valid", required=True)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("refine-seg",
                       help="refine segmentation labels with depth")
    p.add_argument("--y", required=True)
    p.add_argument("--yhat", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--th", type=float, default=None,
                   help="depth-difference threshold "
                        "(default: 5%% of median confident depth)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine_seg)

    p = sub.add_parser("refine-depth",
                       help="refine depth with cross-view label consistency")
    p.add_argument("--depth", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine_depth)

    p = sub.add_parser("loss", help="evaluate a loss term on two tensors")
    p.add_argument("kind", choices=("photometric", "hint", "smoothness",
                                    "cross-entropy"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--gamma", type=float, default=0.85)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("eval", help="depth error metrics as a CSV row")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--cap", type=float, default=metrics.DEFAULT_DEPTH_CAP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pp", help="mirror-blend post-processing")
    p.add_argument("--pred", required=True)
    p.add_argument("--pred-flipped", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pp)

    p = sub.add_parser("arch", help="decoder shape/parameter report")
    p.add_argument("--level", choices=arch.LEVELS, default="l4")
    p.add_argument("--encoder", choices=arch.ENCODERS, default="resnet50")
    p.add_argument("--height", type=int, default=192)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_arch)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``main`` uses, built on the first call."""
    return build_parser()


_DATA_ERRORS = (tensorio.TensorError, geometry.GeometryError,
                refine.RefineError, losses.LossError, metrics.MetricsError,
                synth.SynthError, arch.ArchError, FileNotFoundError,
                IsADirectoryError, PermissionError)


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # reported with the usage of the command that did not take them
            parser.commands[args.command].error(
                f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
