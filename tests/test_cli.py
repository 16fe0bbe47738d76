from pathlib import Path

import numpy as np
import pytest

from depthseg import cli, geometry, metrics, refine, tensorio
from depthseg.tensorio import Tensor2D


SCENE_CFG = """
height=64
width=128
fx=100
fy=100
cx=63.5
cy=31.5
baseline=0.4
background_depth=10
object=rect,20,50,44,74,2.0,1,5
bleed_width=4
"""

CAMERA_TXT = "100 100 63.5 31.5  1 0 0 -0.4  0 1 0 0  0 0 1 0\n"


def run(args):
    return cli.main(args)


def write_scene(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE_CFG)
    assert run(["synth", "--config", str(cfg),
                "--out-prefix", str(tmp_path / "s")]) == 0
    return tmp_path / "s"


def test_usage_error_exit_code_1(capsys):
    assert run(["refine-seg", "--y", "a.stn"]) == 1
    assert run(["no-such-command"]) == 1


def test_missing_input_exit_code_2(tmp_path, capsys):
    out = tmp_path / "out.stn"
    code = run(["eval", "--pred", str(tmp_path / "missing.stn"),
                "--gt", str(tmp_path / "missing.stn")])
    assert code == 2
    assert not out.exists()


def test_synth_writes_artifacts(tmp_path):
    prefix = write_scene(tmp_path)
    for suffix in ("_left", "_right", "_depth", "_seg", "_occ",
                   "_depth_corrupt", "_seg_corrupt"):
        assert (tmp_path / (prefix.name + suffix + ".stn")).exists()
    depth = tensorio.load_tensor(str(prefix) + "_depth.stn")
    assert depth.data.shape == (64, 128, 1)


@pytest.mark.parametrize("old, new", [
    ("baseline=0.4", "baseline=nan"),
    ("object=rect,20,50,44,74,2.0,1,5", "object=rect,20,50,44,74,nan,1,5"),
    ("background_depth=10", "background_depth=inf"),
    ("object=rect,20,50,44,74,2.0,1,5", "object=rect,20,nan,44,74,2.0,1,5"),
])
def test_synth_nonfinite_scene_exit_code_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE_CFG.replace(old, new))
    assert run(["synth", "--config", str(cfg),
                "--out-prefix", str(tmp_path / "s")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("old, new", [
    ("height=64", "height=16.7"),
    ("width=128", "width=127.5"),
    ("object=rect,20,50,44,74,2.0,1,5", "object=rect,20,50,44,74,2.0,1.9,5"),
    ("object=rect,20,50,44,74,2.0,1,5", "object=rect,20,50,44,74,2.0,1,5.5"),
    ("bleed_width=4", "bleed_width=2.5"),
])
def test_synth_fractional_integer_exit_code_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE_CFG.replace(old, new))
    assert run(["synth", "--config", str(cfg),
                "--out-prefix", str(tmp_path / "s")]) == 2
    assert "is not an integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_synth_preview_writes_left_pgm(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(SCENE_CFG)
    prefix = tmp_path / "s"
    assert run(["synth", "--config", str(cfg), "--out-prefix", str(prefix),
                "--preview"]) == 0
    left = tensorio.load_tensor(str(prefix) + "_left.stn")
    preview = tensorio.read_pgm_ppm(str(prefix) + "_left.pgm")
    assert np.array_equal(preview.data, tensorio.to_u8(left).data)


def test_synth_idempotent(tmp_path):
    prefix = write_scene(tmp_path)
    first = (str(prefix) + "_left.stn", )
    payload = Path(first[0]).read_bytes()
    cfg = tmp_path / "scene.cfg"
    assert run(["synth", "--config", str(cfg),
                "--out-prefix", str(prefix)]) == 0
    assert Path(first[0]).read_bytes() == payload


def test_warp_matches_library(tmp_path, capsys):
    prefix = write_scene(tmp_path)
    cam_file = tmp_path / "cam.txt"
    cam_file.write_text(CAMERA_TXT)
    out = tmp_path / "warped.stn"
    out_valid = tmp_path / "valid.stn"
    assert run(["warp", "--src", str(prefix) + "_right.stn",
                "--depth", str(prefix) + "_depth.stn",
                "--camera", str(cam_file),
                "--out", str(out), "--out-valid", str(out_valid)]) == 0
    warped = tensorio.load_tensor(out).data[:, :, 0]
    img_r = tensorio.load_tensor(str(prefix) + "_right.stn").data[:, :, 0]
    depth = tensorio.load_tensor(str(prefix) + "_depth.stn").data[:, :, 0]
    expect, _ = geometry.warp(img_r.astype(np.float64),
                              depth.astype(np.float64),
                              geometry.Pose.stereo_baseline(0.4),
                              geometry.Camera(100, 100, 63.5, 31.5))
    assert np.allclose(warped, expect, atol=1e-6)


def test_warp_source_of_another_size_exit_code_2(tmp_path, capsys):
    tensorio.save_tensor(Tensor2D(np.zeros((8, 16), np.float32)),
                         tmp_path / "src.stn")
    tensorio.save_tensor(Tensor2D(np.full((8, 8), 3.0, np.float32)),
                         tmp_path / "depth.stn")
    cam_file = tmp_path / "cam.txt"
    cam_file.write_text(CAMERA_TXT)
    out, out_valid = tmp_path / "warped.stn", tmp_path / "valid.stn"
    assert run(["warp", "--src", str(tmp_path / "src.stn"),
                "--depth", str(tmp_path / "depth.stn"),
                "--camera", str(cam_file),
                "--out", str(out), "--out-valid", str(out_valid)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not the depth's (8, 8)" in captured.err
    assert not out.exists() and not out_valid.exists()


def refine_seg_inputs(tmp_path):
    """Random 16x16 refine-seg inputs written to tmp_path: the command line
    without --th and --out, and the arrays."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, (16, 16)).astype(np.int32)
    y_hat = rng.integers(0, 3, (16, 16)).astype(np.int32)
    depth = (rng.random((16, 16)) * 4 + 1).astype(np.float32)
    for name, arr in (("y", y), ("yhat", y_hat), ("depth", depth)):
        tensorio.save_tensor(Tensor2D(arr), tmp_path / f"{name}.stn")
    argv = ["refine-seg", "--y", str(tmp_path / "y.stn"),
            "--yhat", str(tmp_path / "yhat.stn"),
            "--depth", str(tmp_path / "depth.stn")]
    return argv, y, y_hat, depth


def test_refine_seg_matches_library(tmp_path, capsys):
    argv, y, y_hat, depth = refine_seg_inputs(tmp_path)
    out = tmp_path / "refined.stn"
    assert run(argv + ["--th", "0.2", "--out", str(out)]) == 0
    got = tensorio.load_tensor(out).data[:, :, 0]
    expect = refine.refine_segmentation_with_depth(
        y, y_hat, depth.astype(np.float64),
        refine.RefineConfig(depth_threshold=0.2))
    assert np.array_equal(got, expect)
    printed = capsys.readouterr().out
    assert str(int((expect != y).sum())) in printed


def test_refine_depth_restores_bleed(tmp_path):
    prefix = write_scene(tmp_path)
    cam_file = tmp_path / "cam.txt"
    cam_file.write_text(CAMERA_TXT)
    out = tmp_path / "fixed.stn"
    assert run(["refine-depth",
                "--depth", str(prefix) + "_depth_corrupt.stn",
                "--y", str(prefix) + "_seg.stn",
                "--target", str(prefix) + "_left.stn",
                "--src", str(prefix) + "_right.stn",
                "--camera", str(cam_file), "--out", str(out)]) == 0
    fixed = tensorio.load_tensor(out).data[:, :, 0].astype(np.float64)
    depth = tensorio.load_tensor(str(prefix) + "_depth.stn").data[:, :, 0]
    bad = tensorio.load_tensor(str(prefix) + "_depth_corrupt.stn")
    band = bad.data[:, :, 0] != depth
    assert np.abs(fixed[band] - 10.0).max() < 0.5


def test_refine_depth_nonfinite_depth_exit_code_2(tmp_path, capsys):
    prefix = write_scene(tmp_path)
    cam_file = tmp_path / "cam.txt"
    cam_file.write_text(CAMERA_TXT)
    depth = tensorio.load_tensor(str(prefix) + "_depth.stn").data.copy()
    depth[3, 5, 0] = np.nan
    tensorio.save_tensor(Tensor2D(depth), tmp_path / "nan.stn")
    out = tmp_path / "fixed.stn"
    assert run(["refine-depth", "--depth", str(tmp_path / "nan.stn"),
                "--y", str(prefix) + "_seg.stn",
                "--target", str(prefix) + "_left.stn",
                "--src", str(prefix) + "_right.stn",
                "--camera", str(cam_file), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("image", ["_left", "_right"])
def test_refine_depth_nonfinite_image_exit_code_2(tmp_path, capsys, image):
    prefix = write_scene(tmp_path)
    cam_file = tmp_path / "cam.txt"
    cam_file.write_text(CAMERA_TXT)
    img = tensorio.load_tensor(str(prefix) + image + ".stn").data.copy()
    img[3, 5, 0] = np.nan
    tensorio.save_tensor(Tensor2D(img), tmp_path / "nan.stn")
    paths = {"_left": str(prefix) + "_left.stn",
             "_right": str(prefix) + "_right.stn"}
    paths[image] = str(tmp_path / "nan.stn")
    out = tmp_path / "fixed.stn"
    assert run(["refine-depth",
                "--depth", str(prefix) + "_depth_corrupt.stn",
                "--y", str(prefix) + "_seg.stn",
                "--target", paths["_left"], "--src", paths["_right"],
                "--camera", str(cam_file), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_loss_command_prints_value(tmp_path, capsys):
    a = np.zeros((8, 8), dtype=np.float32)
    b = np.full((8, 8), 0.5, dtype=np.float32)
    tensorio.save_tensor(Tensor2D(a), tmp_path / "a.stn")
    tensorio.save_tensor(Tensor2D(b), tmp_path / "b.stn")
    assert run(["loss", "photometric", "--a", str(tmp_path / "a.stn"),
                "--b", str(tmp_path / "b.stn"), "--gamma", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split()[-1]) == pytest.approx(0.5)


def test_removed_options_are_usage_errors(tmp_path, capsys):
    # the loss command computes no total and no gradient mix, the
    # refine-depth segmenter's 64 buckets match the texture's stripe bands,
    # the depth pass reads no threshold, and both refinements use the
    # 8-neighborhood
    prefix = write_scene(tmp_path)
    capsys.readouterr()
    loss = ["loss", "photometric", "--a", str(prefix) + "_left.stn",
            "--b", str(prefix) + "_right.stn"]
    refine_seg = ["refine-seg", "--y", str(prefix) + "_seg_corrupt.stn",
                  "--yhat", str(prefix) + "_seg.stn",
                  "--depth", str(prefix) + "_depth.stn",
                  "--out", str(tmp_path / "fixed.stn")]
    refine_depth = ["refine-depth", "--depth", str(prefix) + "_depth.stn",
                    "--y", str(prefix) + "_seg.stn",
                    "--target", str(prefix) + "_left.stn",
                    "--src", str(prefix) + "_right.stn",
                    "--camera", str(tmp_path / "cam.txt"),
                    "--out", str(tmp_path / "fixed.stn")]
    for argv, option in ((loss, ["--alpha", "0.3"]),
                         (loss, ["--beta1", "7"]),
                         (loss, ["--beta2", "7"]),
                         (refine_depth, ["--seg-levels", "32"]),
                         (refine_seg, ["--radius", "2"]),
                         (refine_depth, ["--radius", "2"]),
                         (refine_depth, ["--th", "0.1"])):
        assert run(argv + option) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the usage shown is that of the command given the option
        assert captured.err.startswith(f"usage: depthseg {argv[0]} ")
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err
    assert not (tmp_path / "fixed.stn").exists()


def test_loss_hint_nonfinite_depth_exit_code_2(tmp_path, capsys):
    pred = np.full((4, 4), 5.0, dtype=np.float32)
    pred[1, 2] = np.nan
    target = np.full((4, 4), 5.0, dtype=np.float32)
    tensorio.save_tensor(Tensor2D(pred), tmp_path / "p.stn")
    tensorio.save_tensor(Tensor2D(target), tmp_path / "t.stn")
    assert run(["loss", "hint", "--a", str(tmp_path / "p.stn"),
                "--b", str(tmp_path / "t.stn")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def _nan_at(arr, index):
    arr[index] = np.nan
    return arr


@pytest.mark.parametrize("kind, a, b, error", [
    ("photometric", np.zeros((8, 8), np.float32),
     _nan_at(np.full((8, 8), 0.5, np.float32), (3, 4)), "finite"),
    ("photometric", _nan_at(np.zeros((8, 8, 3), np.float32), (0, 0, 2)),
     np.zeros((8, 8, 3), np.float32), "finite"),
    ("smoothness", _nan_at(np.full((4, 4), 0.5, np.float32), (1, 2)),
     np.zeros((4, 4), np.float32), "finite"),
    ("cross-entropy", np.zeros((4, 4), np.int32),
     _nan_at(np.full((4, 4, 2), 0.5, np.float32), (1, 2, 0)), "sum to 1"),
    ("cross-entropy", _nan_at(np.full((4, 4, 2), 0.5, np.float32), (1, 2, 0)),
     np.full((4, 4, 2), 0.5, np.float32), "soft target must be finite"),
], ids=["photometric-b", "photometric-a", "smoothness", "cross-entropy",
        "cross-entropy-soft-target"])
def test_loss_nonfinite_input_exit_code_2(tmp_path, capsys, kind, a, b,
                                          error):
    tensorio.save_tensor(Tensor2D(a), tmp_path / "a.stn")
    tensorio.save_tensor(Tensor2D(b), tmp_path / "b.stn")
    assert run(["loss", kind, "--a", str(tmp_path / "a.stn"),
                "--b", str(tmp_path / "b.stn")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_eval_command_csv(tmp_path, capsys):
    pred = np.array([[11.0, 18.0]], dtype=np.float32)
    gt = np.array([[10.0, 20.0]], dtype=np.float32)
    tensorio.save_tensor(Tensor2D(pred), tmp_path / "p.stn")
    tensorio.save_tensor(Tensor2D(gt), tmp_path / "g.stn")
    assert run(["eval", "--pred", str(tmp_path / "p.stn"),
                "--gt", str(tmp_path / "g.stn")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == metrics.DepthEvalResult.CSV_HEADER
    assert lines[1].startswith("0.100000,0.150000,")


def test_eval_nonfinite_prediction_exit_code_2(tmp_path, capsys):
    pred = np.full((4, 4), 5.0, dtype=np.float32)
    pred[2, 1] = np.nan
    gt = np.full((4, 4), 5.0, dtype=np.float32)
    tensorio.save_tensor(Tensor2D(pred), tmp_path / "p.stn")
    tensorio.save_tensor(Tensor2D(gt), tmp_path / "g.stn")
    assert run(["eval", "--pred", str(tmp_path / "p.stn"),
                "--gt", str(tmp_path / "g.stn")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_pp_command(tmp_path):
    d = np.full((4, 100), 2.0, dtype=np.float32)
    m = np.full((4, 100), 4.0, dtype=np.float32)
    tensorio.save_tensor(Tensor2D(d), tmp_path / "d.stn")
    tensorio.save_tensor(Tensor2D(m), tmp_path / "m.stn")
    out = tmp_path / "pp.stn"
    assert run(["pp", "--pred", str(tmp_path / "d.stn"),
                "--pred-flipped", str(tmp_path / "m.stn"),
                "--out", str(out)]) == 0
    blended = tensorio.load_tensor(out).data[:, :, 0]
    assert blended[0, 50] == pytest.approx(3.0)


def test_arch_command(capsys):
    assert run(["arch", "--level", "l4", "--encoder", "resnet50",
                "--classes", "19"]) == 0
    out = capsys.readouterr().out
    assert "seg-specific params" in out


@pytest.mark.parametrize("height, width", [(-32, 64), (0, 64), (64, -32)])
def test_arch_nonpositive_size_exit_code_2(capsys, height, width):
    assert run(["arch", "--height", str(height), "--width", str(width)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive" in captured.err


def test_corrupt_data_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.stn"
    bad.write_bytes(b"garbage")
    assert run(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2


def test_main_builds_at_most_one_parser(tmp_path, monkeypatch, capsys):
    roots = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        # the subcommand parsers are _Parser too, with "depthseg <command>"
        roots.append(kwargs.get("prog") == "depthseg")
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    prefix = write_scene(tmp_path)
    seg = refine_seg_inputs(tmp_path)[0]
    for argv in (seg + ["--out", str(tmp_path / "r.stn")],
                 ["eval", "--pred", str(prefix) + "_depth.stn",
                  "--gt", str(prefix) + "_depth.stn"],
                 ["pp", "--pred", str(prefix) + "_depth.stn",
                  "--pred-flipped", str(prefix) + "_depth.stn",
                  "--out", str(tmp_path / "pp.stn")],
                 ["loss", "hint", "--a", str(prefix) + "_depth.stn",
                  "--b", str(prefix) + "_depth.stn"],
                 ["arch", "--classes", "19"],
                 ["arch", "--height", "0"],
                 ["eval", "--pred", str(tmp_path / "missing.stn"),
                  "--gt", str(tmp_path / "missing.stn")],
                 ["refine-seg", "--y", "a.stn"],
                 ["no-such-command"]):
        assert run(argv) in (0, 1, 2)
    assert sum(roots) <= 1


def test_default_threshold_after_explicit_threshold(tmp_path, capsys):
    seg = refine_seg_inputs(tmp_path)[0]
    explicit, default = tmp_path / "th.stn", tmp_path / "default.stn"
    assert run(seg + ["--th", "0.5", "--out", str(explicit)]) == 0
    assert run(seg + ["--out", str(default)]) == 0
    # through a fresh parser, as main ran before it shared one
    fresh = tmp_path / "fresh.stn"
    args = cli.build_parser().parse_args(seg + ["--out", str(fresh)])
    assert args.th is None
    assert args.func(args) == 0
    assert default.read_bytes() == fresh.read_bytes()
    assert default.read_bytes() != explicit.read_bytes()


def test_usage_error_leaves_later_commands_unchanged(tmp_path, capsys):
    seg = refine_seg_inputs(tmp_path)[0]
    out = tmp_path / "r.stn"
    assert run(seg + ["--out", str(out)]) == 0
    first = capsys.readouterr()
    payload = out.read_bytes()
    # --th parses before the missing --out fails the call
    assert run(seg + ["--th", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: depthseg refine-seg ")
    assert "error: the following arguments are required: --out" in err
    assert run(seg + ["--out", str(out)]) == 0
    assert capsys.readouterr() == first
    assert out.read_bytes() == payload


ROOT_HELP = """\
usage: depthseg [-h]
                {synth,warp,refine-seg,refine-depth,loss,eval,pp,arch} ...

Stereo depth + segmentation refinement toolbox

positional arguments:
  {synth,warp,refine-seg,refine-depth,loss,eval,pp,arch}
    synth               render a synthetic stereo scene
    warp                warp a source image into the target view
    refine-seg          refine segmentation labels with depth
    refine-depth        refine depth with cross-view label consistency
    loss                evaluate a loss term on two tensors
    eval                depth error metrics as a CSV row
    pp                  mirror-blend post-processing
    arch                decoder shape/parameter report

options:
  -h, --help            show this help message and exit
"""

REFINE_SEG_HELP = """\
usage: depthseg refine-seg [-h] --y Y --yhat YHAT --depth DEPTH [--th TH]
                           --out OUT

options:
  -h, --help     show this help message and exit
  --y Y
  --yhat YHAT
  --depth DEPTH
  --th TH        depth-difference threshold (default: 5% of median confident
                 depth)
  --out OUT
"""


REFINE_DEPTH_HELP = """\
usage: depthseg refine-depth [-h] --depth DEPTH --y Y --target TARGET --src
                             SRC --camera CAMERA --out OUT

options:
  -h, --help       show this help message and exit
  --depth DEPTH
  --y Y
  --target TARGET
  --src SRC
  --camera CAMERA
  --out OUT
"""

LOSS_HELP = """\
usage: depthseg loss [-h] --a A --b B [--gamma GAMMA]
                     {photometric,hint,smoothness,cross-entropy}

positional arguments:
  {photometric,hint,smoothness,cross-entropy}

options:
  -h, --help            show this help message and exit
  --a A
  --b B
  --gamma GAMMA
"""


@pytest.mark.parametrize("argv, text", [
    (["--help"], ROOT_HELP),
    (["refine-seg", "--help"], REFINE_SEG_HELP),
    (["refine-depth", "--help"], REFINE_DEPTH_HELP),
    (["loss", "--help"], LOSS_HELP),
], ids=["root", "refine-seg", "refine-depth", "loss"])
def test_help_text(monkeypatch, capsys, argv, text):
    # help is laid out for the terminal width when it is printed
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (text, "")
