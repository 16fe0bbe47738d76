import numpy as np
import pytest

from depthseg import geometry
from depthseg.geometry import (Camera, DepthParams, GeometryError, Pose,
                               bilinear_sample, disparity_to_depth,
                               flip_postprocess, project, warp)


def test_camera_rejects_nonpositive_focal():
    with pytest.raises(GeometryError):
        Camera(0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("values", [
    (float("inf"), 1.0, 0.0, 0.0), (1.0, float("nan"), 0.0, 0.0),
    (1.0, 1.0, float("nan"), 0.0), (1.0, 1.0, 0.0, float("-inf")),
])
def test_camera_rejects_nonfinite_intrinsics(values):
    with pytest.raises(GeometryError):
        Camera(*values)


def test_pose_rejects_non_orthonormal_rotation():
    with pytest.raises(GeometryError):
        Pose(np.eye(3) * 2.0, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_rejects_nonfinite_translation(bad):
    with pytest.raises(GeometryError):
        Pose(np.eye(3), np.array([bad, 0.0, 0.0]))


def test_pose_rejects_reflection():
    r = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(GeometryError):
        Pose(r, np.zeros(3))


def test_disparity_to_depth_endpoints():
    p = DepthParams(c1=0.1, c2=100.0)
    d = disparity_to_depth(np.array([0.0, 1.0]), p)
    assert d[0] == pytest.approx(1.0 / 100.0)
    assert d[1] == pytest.approx(1.0 / 100.1)


def test_disparity_out_of_range_rejected():
    with pytest.raises(GeometryError):
        disparity_to_depth(np.array([1.5]), DepthParams(0.1, 100.0))


def test_load_camera_pose(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text("100 100 32 24\n"
                    "1 0 0 -0.5\n0 1 0 0\n0 0 1 0\n")
    cam, pose = geometry.load_camera_pose(path)
    assert cam == Camera(100.0, 100.0, 32.0, 24.0)
    assert np.allclose(pose.translation, [-0.5, 0, 0])


@pytest.mark.parametrize("first_line", ["100 100 32 abc", "100 100 32 nan"])
def test_load_camera_pose_rejects_bad_numbers(tmp_path, first_line):
    path = tmp_path / "cam.txt"
    path.write_text(first_line + "\n1 0 0 -0.5\n0 1 0 0\n0 0 1 0\n")
    with pytest.raises(GeometryError):
        geometry.load_camera_pose(path)


def test_identity_projection_is_pixel_grid():
    cam = Camera(50.0, 50.0, 15.5, 7.5)
    depth = np.full((16, 32), 4.0)
    coords, valid = project(depth, Pose.identity(), cam)
    assert valid.all()
    uu, vv = np.meshgrid(np.arange(32.0), np.arange(16.0))
    assert np.allclose(coords[..., 0], uu, atol=1e-9)
    assert np.allclose(coords[..., 1], vv, atol=1e-9)


def test_stereo_projection_shifts_columns_by_disparity():
    cam = Camera(100.0, 100.0, 31.5, 15.5)
    depth = np.full((32, 64), 5.0)
    coords, valid = project(depth, Pose.stereo_baseline(0.5), cam)
    # disparity = fx * b / d = 10 columns to the left
    inner = valid
    assert inner.any()
    uu = np.meshgrid(np.arange(64.0), np.arange(32.0))[0]
    assert np.allclose(coords[..., 0][inner], (uu - 10.0)[inner])


def test_project_rejects_nonpositive_depth():
    cam = Camera(10.0, 10.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        project(np.zeros((4, 4)), Pose.identity(), cam)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_project_rejects_nonfinite_depth(bad):
    cam = Camera(10.0, 10.0, 1.0, 1.0)
    depth = np.ones((4, 4))
    depth[1, 2] = bad
    with pytest.raises(GeometryError):
        project(depth, Pose.identity(), cam)


def test_bilinear_sample_exact_on_lattice():
    rng = np.random.default_rng(3)
    img = rng.random((8, 9))
    uu, vv = np.meshgrid(np.arange(9.0), np.arange(8.0))
    out, valid = bilinear_sample(img, np.stack([uu, vv], axis=-1))
    assert valid.all()
    assert np.allclose(out, img.astype(np.float32))


def test_bilinear_sample_midpoint():
    img = np.array([[0.0, 1.0]])
    out, valid = bilinear_sample(img, np.array([[[0.5, 0.0]]]))
    assert valid[0, 0]
    assert out[0, 0] == pytest.approx(0.5)


def test_bilinear_sample_out_of_bounds_masked():
    img = np.ones((4, 4))
    coords = np.array([[[-0.1, 0.0], [2.5, 2.5], [0.0, 4.0]]])
    out, valid = bilinear_sample(img, coords)
    assert list(valid[0]) == [False, True, False]
    assert out[0, 0] == 0.0 and out[0, 2] == 0.0


def test_warp_identity_is_noop():
    rng = np.random.default_rng(4)
    img = rng.random((12, 20)).astype(np.float32)
    depth = np.full((12, 20), 3.0)
    out, valid = warp(img, depth, Pose.identity(), Camera(30, 30, 9.5, 5.5))
    assert valid.all()
    assert np.allclose(out, img, atol=1e-6)


def test_flip_postprocess_averages_interior():
    d = np.full((4, 100), 2.0)
    m = np.full((4, 100), 4.0)
    out = flip_postprocess(d, m[:, ::-1])
    # interior: plain average; borders lean toward one side
    assert np.allclose(out[:, 40:60], 3.0)
    assert out[0, 0] == pytest.approx(4.0)
    assert out[0, -1] == pytest.approx(2.0)


def test_flip_postprocess_identity_when_inputs_match():
    rng = np.random.default_rng(5)
    d = rng.random((6, 40))
    out = flip_postprocess(d, d[:, ::-1])
    assert np.allclose(out, d)


def test_downsample_then_upsample_constant():
    img = np.full((8, 8), 0.7)
    small = geometry.downsample2x_area(img)
    assert small.shape == (4, 4)
    assert np.allclose(small, 0.7, atol=1e-6)
    big = geometry.upsample_bilinear(small, (8, 8))
    assert np.allclose(big, 0.7, atol=1e-6)


def test_upsample_bilinear_aligns_corners():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = geometry.upsample_bilinear(img, (4, 4))
    assert out[0, 0] == pytest.approx(0.0)
    assert out[0, -1] == pytest.approx(1.0)
    assert out[-1, 0] == pytest.approx(2.0)
    assert out[-1, -1] == pytest.approx(3.0)
