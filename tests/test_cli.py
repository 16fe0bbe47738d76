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


def test_synth_idempotent(tmp_path):
    prefix = write_scene(tmp_path)
    first = (str(prefix) + "_left.stn", )
    payload = open(first[0], "rb").read()
    cfg = tmp_path / "scene.cfg"
    assert run(["synth", "--config", str(cfg),
                "--out-prefix", str(prefix)]) == 0
    assert open(first[0], "rb").read() == payload


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


def test_refine_seg_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, (16, 16)).astype(np.int32)
    y_hat = rng.integers(0, 3, (16, 16)).astype(np.int32)
    depth = (rng.random((16, 16)) * 4 + 1).astype(np.float32)
    for name, arr in (("y", y), ("yhat", y_hat), ("depth", depth)):
        tensorio.save_tensor(Tensor2D(arr), tmp_path / f"{name}.stn")
    out = tmp_path / "refined.stn"
    assert run(["refine-seg", "--y", str(tmp_path / "y.stn"),
                "--yhat", str(tmp_path / "yhat.stn"),
                "--depth", str(tmp_path / "depth.stn"),
                "--th", "0.2", "--out", str(out)]) == 0
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


def test_loss_command_prints_value(tmp_path, capsys):
    a = np.zeros((8, 8), dtype=np.float32)
    b = np.full((8, 8), 0.5, dtype=np.float32)
    tensorio.save_tensor(Tensor2D(a), tmp_path / "a.stn")
    tensorio.save_tensor(Tensor2D(b), tmp_path / "b.stn")
    assert run(["loss", "photometric", "--a", str(tmp_path / "a.stn"),
                "--b", str(tmp_path / "b.stn"), "--gamma", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split()[-1]) == pytest.approx(0.5)


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


def test_corrupt_data_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.stn"
    bad.write_bytes(b"garbage")
    assert run(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2
