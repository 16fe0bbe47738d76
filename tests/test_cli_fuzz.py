"""Input-fuzz matrix through ``cli.main``.

Every data-taking command runs on small valid inputs with one input file
replaced by a variant: a non-finite, huge or tiny value at one pixel, all
zeros, all values negated, two or three channels, another dtype or another
shape. Each command also runs with all of its array inputs cut to 1x1, 1xW
and Hx1, with an input path under a regular file, and with an output path
under a regular file.

Every case must exit 0, 1 or 2, with no exception or warning escaping
``main`` (the suite turns warnings into errors). On exit 2 it writes no
output file and nothing to stdout, and one stderr line that starts with
``error: ``; on exit 0 every output file and every printed number is
finite. A non-finite value in any input exits 2 with a line that names
the rule, except in ``eval --gt``: the valid mask drops such ground-truth
pixels, so that run exits 0. Float labels with a half added exit 2 as
not whole numbers, and probabilities with a half added as not summing to
1; the same variant of any other input exits 0.
"""

import re

import numpy as np
import pytest

from depthseg import cli, tensorio
from depthseg.tensorio import Tensor2D

H, W = 6, 10

_rng = np.random.default_rng(7)
_depth = 2.0 + 3.0 * _rng.random((H, W))
_probs = 0.1 + _rng.random((H, W, 3))
_probs /= _probs.sum(axis=2, keepdims=True)
_labels = _rng.integers(0, 3, (H, W)).astype(np.int32)
_labels2 = _labels.copy()
_labels2[_rng.random((H, W)) < 0.3] = 2

ARRAYS = {
    "img": _rng.random((H, W)).astype(np.float32),
    "img2": _rng.random((H, W)).astype(np.float32),
    "depth": _depth.astype(np.float32),
    "depth2": (_depth * (0.9 + 0.2 * _rng.random((H, W)))).astype(np.float32),
    "labels": _labels,
    "labels2": _labels2,
    "probs": _probs.astype(np.float32),
}

CAMERA = "10 10 4.5 2.5  1 0 0 -0.1  0 1 0 0  0 0 1 0"

CONFIG = {
    "height": "6", "width": "10", "fx": "10", "fy": "10", "cx": "4.5",
    "cy": "2.5", "baseline": "0.1", "background_depth": "5",
    "object": "rect,1,2,4,6,2.0,1,5", "bleed_width": "1",
    "seg_flip_rate": "0.1",
}

# command name: (argv head, {input flag: input}, output flags)
COMMANDS = {
    "warp": (["warp"], {"--src": "img", "--depth": "depth",
                        "--camera": "camera"}, ["--out", "--out-valid"]),
    "refine-seg": (["refine-seg"], {"--y": "labels", "--yhat": "labels2",
                                    "--depth": "depth"}, ["--out"]),
    "refine-depth": (["refine-depth"], {
        "--depth": "depth", "--y": "labels", "--target": "img",
        "--src": "img2", "--camera": "camera"}, ["--out"]),
    "loss-photometric": (["loss", "photometric"],
                         {"--a": "img", "--b": "img2"}, []),
    "loss-hint": (["loss", "hint"], {"--a": "depth", "--b": "depth2"}, []),
    "loss-smoothness": (["loss", "smoothness"],
                        {"--a": "depth", "--b": "img"}, []),
    "loss-cross-entropy": (["loss", "cross-entropy"],
                           {"--a": "labels", "--b": "probs"}, []),
    "eval": (["eval"], {"--pred": "depth", "--gt": "depth2"}, []),
    "pp": (["pp"], {"--pred": "depth", "--pred-flipped": "depth2"},
           ["--out"]),
    "synth": (["synth"], {"--config": "config"}, ["--out-prefix"]),
}

NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
VALUES = {**NONFINITE, "1e30": 1e30, "1e-38": 1e-38}


def _at_one_pixel(value):
    def vary(a):
        a = a.astype(np.float32)
        a[H // 2, W // 2] = value
        return a
    return vary


def _channels(n):
    def vary(a):
        return np.repeat(a.reshape(H, W, -1)[:, :, :1], n, axis=2)
    return vary


ARRAY_VARIANTS = {
    **{name: _at_one_pixel(v) for name, v in VALUES.items()},
    "zeros": np.zeros_like,
    "negatives": np.negative,
    "2ch": _channels(2),
    "3ch": _channels(3),
    "f32": lambda a: a.astype(np.float32),
    "u8": lambda a: a.astype(np.uint8),
    "i32": lambda a: a.astype(np.int32),
    "mismatch": lambda a: a[:-1],
    "half": lambda a: a.astype(np.float32) + 0.5,
}

CROPS = {"1x1": (1, 1), "1xW": (1, W), "Hx1": (H, 1)}


def _camera_variant(variant):
    """The camera file's numbers under ``variant``, or None when it has
    none: a value replaces fx and then the x translation, zeros and
    negatives apply to every number."""
    tokens = CAMERA.split()
    if variant in VALUES:
        return [" ".join(tokens[:i] + [variant] + tokens[i + 1:])
                for i in (0, 7)]
    if variant == "zeros":
        return [" ".join("0" for _ in tokens)]
    if variant == "negatives":
        return [" ".join(str(-float(t)) for t in tokens)]
    return None


def _config_variant(variant):
    """Scene files under ``variant``, or None when it has none: a value
    replaces each real-valued key in turn, the huge one also each class id
    as 3e9 (too large for the int32 labels), zeros and negatives the size,
    and the crops set the size."""
    if variant in VALUES:
        keys = ("fx", "baseline", "background_depth")
        configs = [{**CONFIG, key: variant} for key in keys] + [
            {**CONFIG, "object": CONFIG["object"].replace("2.0", variant)}]
        if variant == "1e30":
            configs += [
                {**CONFIG, "background_class": "3000000000"},
                {**CONFIG, "object": CONFIG["object"].replace(
                    ",1,5", ",3000000000,5")}]
        return configs
    if variant in ("zeros", "negatives"):
        size = "0" if variant == "zeros" else "-6"
        return [{**CONFIG, "height": size}, {**CONFIG, "width": size}]
    if variant in CROPS:
        h, w = CROPS[variant]
        return [{**CONFIG, "height": str(h), "width": str(w)}]
    return None


def _config_text(config):
    return "".join(f"{k}={v}\n" for k, v in config.items())


def _write_inputs(tmp_path, inputs, crop=(H, W)):
    """Each input of a command written under ``tmp_path``; the path of
    each, by flag."""
    paths = {}
    for flag, kind in inputs.items():
        path = tmp_path / f"in{flag}"
        if kind == "camera":
            path.write_text(CAMERA + "\n")
        elif kind == "config":
            path.write_text(_config_text(CONFIG))
        else:
            h, w = crop
            tensorio.save_tensor(Tensor2D(ARRAYS[kind][:h, :w]), path)
        paths[flag] = str(path)
    return paths


def _run(tmp_path, capsys, command, paths, out_paths=None):
    """Run ``command`` on the inputs at ``paths``, with its outputs in
    ``tmp_path / "out"`` unless ``out_paths`` names another path for one;
    the exit code and the captured stdout and stderr."""
    head, _, outputs = COMMANDS[command]
    out_dir = tmp_path / "out"
    out_dir.mkdir(exist_ok=True)
    argv = list(head)
    for flag, path in paths.items():
        argv += [flag, path]
    for i, flag in enumerate(outputs):
        argv += [flag, (out_paths or {}).get(flag, str(out_dir / f"out{i}"))]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_outcome(code, out, err, out_dir):
    assert code in (0, 1, 2)
    written = sorted(out_dir.iterdir())
    if code != 0:
        assert written == []
        if code == 2:
            assert out == "" and re.fullmatch("error: .+\n", err), (out, err)
        return
    assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    for path in written:
        if path.suffix == ".pgm":
            data = tensorio.read_pgm_ppm(path).data
        else:
            data = tensorio.load_tensor(path).data
        assert np.isfinite(data).all(), path.name


def _cases():
    for command, (_, inputs, _) in COMMANDS.items():
        for flag, kind in inputs.items():
            for variant in ARRAY_VARIANTS:
                if kind == "camera":
                    texts = _camera_variant(variant)
                elif kind == "config":
                    texts = _config_variant(variant)
                else:
                    texts = [None]
                for i in range(len(texts or ())):
                    yield pytest.param(command, flag, variant, i,
                                       id=f"{command}{flag}={variant}#{i}")


@pytest.mark.parametrize("command, flag, variant, index", _cases())
def test_input_variant(tmp_path, capsys, command, flag, variant, index):
    _, inputs, _ = COMMANDS[command]
    paths = _write_inputs(tmp_path, inputs)
    kind = inputs[flag]
    path = tmp_path / f"in{flag}"
    if kind == "camera":
        path.write_text(_camera_variant(variant)[index] + "\n")
    elif kind == "config":
        path.write_text(_config_text(_config_variant(variant)[index]))
    else:
        tensorio.save_tensor(Tensor2D(ARRAY_VARIANTS[variant](ARRAYS[kind])),
                             path)
    code, out, err = _run(tmp_path, capsys, command, paths)
    _check_outcome(code, out, err, tmp_path / "out")
    rule = None
    if variant in NONFINITE and (command, flag) != ("eval", "--gt"):
        rule = "finite"
    elif variant == "half" and kind.startswith("labels"):
        rule = "labels must be whole numbers"
    elif variant == "half" and kind == "probs":
        rule = "sum to 1"
    if variant in (*NONFINITE, "half"):
        assert code == (0 if rule is None else 2), err
        assert rule is None or re.match(f"error: .*{rule}", err), err


@pytest.mark.parametrize("crop", CROPS)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_array_input_cropped(tmp_path, capsys, command, crop):
    _, inputs, _ = COMMANDS[command]
    paths = _write_inputs(tmp_path, inputs, CROPS[crop])
    if command == "synth":
        h, w = CROPS[crop]
        (tmp_path / "in--config").write_text(
            _config_text({**CONFIG, "height": str(h), "width": str(w)}))
    code, out, err = _run(tmp_path, capsys, command, paths)
    _check_outcome(code, out, err, tmp_path / "out")


def _path_cases():
    for command, (_, inputs, outputs) in COMMANDS.items():
        for flag in [*inputs, *outputs]:
            yield pytest.param(command, flag, id=f"{command}{flag}")


@pytest.mark.parametrize("command, flag", _path_cases())
def test_path_under_a_regular_file(tmp_path, capsys, command, flag):
    _, inputs, _ = COMMANDS[command]
    paths = _write_inputs(tmp_path, inputs)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out_paths = {}
    if flag in inputs:
        paths[flag] = str(blocker / "x")
    else:
        out_paths[flag] = str(blocker / "x")
    code, out, err = _run(tmp_path, capsys, command, paths, out_paths)
    assert code == 2
    _check_outcome(code, out, err, tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["afile", "out", *(f"in{f}" for f in inputs)])


def test_synth_with_a_height_of_1e30(tmp_path, capsys):
    (tmp_path / "in--config").write_text(
        _config_text({**CONFIG, "height": "1e30"}))
    code, out, err = _run(tmp_path, capsys, "synth",
                          {"--config": str(tmp_path / "in--config")})
    _check_outcome(code, out, err, tmp_path / "out")
