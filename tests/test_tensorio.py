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


@pytest.mark.parametrize("shape", [(5,), (2, 3, 1, 1)])
def test_tensor_rejects_1d_and_4d_arrays(shape):
    with pytest.raises(TensorError, match="expected 2D or 3D array"):
        Tensor2D(np.zeros(shape, np.float32))


def test_to_float_rejects_i32():
    with pytest.raises(TensorError, match="u8 or f32"):
        tensorio.to_float(Tensor2D(np.zeros((2, 2), np.int32)))


@pytest.mark.parametrize("header, error", [
    (b"STN1 f64 2 2 1\n", "unsupported dtype 'f64'"),
    (b"STN1 f32 2 2.5 1\n", "malformed header: invalid literal"),
], ids=["dtype", "shape"])
def test_load_rejects_bad_header_fields(tmp_path, header, error):
    path = tmp_path / "t.stn"
    path.write_bytes(header + bytes(16))
    with pytest.raises(TensorError, match=error):
        tensorio.load_tensor(path)


@pytest.mark.parametrize("arr, error", [
    (np.zeros((2, 2), np.float32), "PGM/PPM export requires u8 data"),
    (np.zeros((2, 2, 2), np.uint8), "PGM/PPM supports 1 or 3 channels, got 2"),
    (np.zeros((2, 2, 4), np.uint8), "PGM/PPM supports 1 or 3 channels, got 4"),
], ids=["f32", "2-channels", "4-channels"])
def test_pgm_ppm_export_rejects_unsupported_data(tmp_path, arr, error):
    path = tmp_path / "x.pgm"
    with pytest.raises(TensorError, match=error):
        tensorio.write_pgm_ppm(Tensor2D(arr), path)
    assert not path.exists()


def test_read_pgm_ppm_rejects_other_files(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"STN1 u8 1 1 1\n\x00")
    with pytest.raises(TensorError, match="not a PGM/PPM file"):
        tensorio.read_pgm_ppm(path)
