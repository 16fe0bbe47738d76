import numpy as np
import pytest

from depthseg import tensorio
from depthseg.tensorio import Tensor2D, TensorError


def test_hw_input_expands_to_hwc():
    t = Tensor2D(np.zeros((4, 5), dtype=np.float32))
    assert t.data.shape == (4, 5, 1)
    assert (t.height, t.width, t.channels) == (4, 5, 1)


def test_rejects_zero_sized_dims():
    with pytest.raises(TensorError):
        Tensor2D(np.zeros((0, 5), dtype=np.float32))
    with pytest.raises(TensorError):
        Tensor2D(np.zeros((4, 5, 0), dtype=np.float32))


def test_rejects_unsupported_dtype():
    with pytest.raises(TensorError):
        Tensor2D(np.zeros((2, 2), dtype=np.float64))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((6, 7, 3)).astype(np.float32)
    path = tmp_path / "t.stn"
    tensorio.save_tensor(Tensor2D(arr), path)
    back = tensorio.load_tensor(path)
    assert back == Tensor2D(arr)
    assert back.data.tobytes() == arr.tobytes()


def test_header_format(tmp_path):
    path = tmp_path / "t.stn"
    tensorio.save_tensor(Tensor2D(np.zeros((2, 3), dtype=np.int32)), path)
    with open(path, "rb") as f:
        assert f.readline() == b"STN1 i32 2 3 1\n"


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.stn"
    tensorio.save_tensor(Tensor2D(np.zeros((4, 4), dtype=np.uint8)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(TensorError):
        tensorio.load_tensor(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.stn"
    path.write_bytes(b"NOPE u8 1 1 1\n\x00")
    with pytest.raises(TensorError):
        tensorio.load_tensor(path)


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "missing-dir" / "t.stn"
    with pytest.raises(OSError):
        tensorio.save_tensor(Tensor2D(np.zeros((2, 2), dtype=np.uint8)), path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 256, (5, 9), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    tensorio.write_pgm_ppm(Tensor2D(arr), path)
    back = tensorio.read_pgm_ppm(path)
    assert back == Tensor2D(arr)
    # comments between the numbers, one directly after a number too
    for header in (b"P5\n# written by hand\n9 5\n255\n",
                   b"P5#comment\n9\t5 # size\n# maxval\n255\r",
                   b"P5 9#c\n 5\n255 "):
        path.write_bytes(header + arr.tobytes())
        assert tensorio.read_pgm_ppm(path) == Tensor2D(arr)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 256, (5, 9, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    tensorio.write_pgm_ppm(Tensor2D(arr), path)
    assert tensorio.read_pgm_ppm(path) == Tensor2D(arr)
    path.write_bytes(b"P6\n# written by hand\n9 5 #\n255\n" + arr.tobytes())
    assert tensorio.read_pgm_ppm(path) == Tensor2D(arr)


@pytest.mark.parametrize("raw", [
    b"P5\n2",                  # truncated header
    b"P5\n2 2\n255",           # no whitespace byte after maxval
    b"P6 2 2 #unterminated",
    b"P5 2 x 255\n" + b"\0" * 4,
    b"P5 0 2 255\n",
    b"P6 1 1 255\n\0\0",       # short payload
])
def test_pnm_rejects_malformed_header_or_payload(tmp_path, raw):
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    with pytest.raises(TensorError):
        tensorio.read_pgm_ppm(path)


def test_ascii_pnm_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(TensorError):
        tensorio.read_pgm_ppm(path)


def test_pnm_requires_maxval_255(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(TensorError):
        tensorio.read_pgm_ppm(path)


def test_to_float_and_back():
    arr = np.array([[0, 128, 255]], dtype=np.uint8)
    f = tensorio.to_float(Tensor2D(arr))
    assert f.dtype_name == "f32"
    assert f.data.max() == pytest.approx(1.0)
    u = tensorio.to_u8(f)
    assert np.array_equal(u.data[:, :, 0], arr)
