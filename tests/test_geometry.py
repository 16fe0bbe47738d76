import numpy as np
import pytest

from depthseg import geometry
from depthseg.geometry import (Camera, DepthParams, GeometryError, Pose,
                               bilinear_sample, disparity_to_depth,
                               flip_postprocess, project, warp)


# Oracles: the direct forms of project, bilinear_sample, upsample_bilinear
# and warp, through a pixel grid, an (H, W, 3) point cloud and a matrix
# product, four fancy-index gathers and a full coordinate field.

def oracle_project(depth, pose, cam):
    h, w = depth.shape
    vv, uu = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    x = (uu - cam.cx) / cam.fx * depth
    y = (vv - cam.cy) / cam.fy * depth
    pts = np.stack([x, y, depth], axis=-1)
    pts_src = pts @ pose.rotation.T + pose.translation
    z = pts_src[..., 2]
    valid = z > 1e-9
    z_safe = np.where(valid, z, 1.0)
    u_s = cam.fx * pts_src[..., 0] / z_safe + cam.cx
    v_s = cam.fy * pts_src[..., 1] / z_safe + cam.cy
    valid &= (u_s >= 0) & (u_s <= w - 1) & (v_s >= 0) & (v_s <= h - 1)
    coords = np.stack([np.where(valid, u_s, 0.0), np.where(valid, v_s, 0.0)],
                      axis=-1)
    return coords, valid


def oracle_bilinear_sample(src, coords):
    src = np.asarray(src, dtype=np.float64)
    squeeze = src.ndim == 2
    if squeeze:
        src = src[:, :, None]
    h, w, _ = src.shape
    u = coords[..., 0]
    v = coords[..., 1]
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    out = (src[v0, u0] * (1 - fu) * (1 - fv) + src[v0, u1] * fu * (1 - fv)
           + src[v1, u0] * (1 - fu) * fv + src[v1, u1] * fu * fv)
    out = np.where(valid[..., None], out, 0.0).astype(np.float32)
    return (out[:, :, 0] if squeeze else out), valid


def oracle_upsample_bilinear(img, shape):
    img = np.asarray(img, dtype=np.float64)
    h_in, w_in = img.shape[:2]
    h_out, w_out = shape
    v = np.linspace(0, h_in - 1, h_out) if h_out > 1 else np.zeros(1)
    u = np.linspace(0, w_in - 1, w_out) if w_out > 1 else np.zeros(1)
    uu, vv = np.meshgrid(u, v)
    return oracle_bilinear_sample(img, np.stack([uu, vv], axis=-1))[0]


def oracle_warp(src_img, depth, pose, cam):
    coords, proj_valid = oracle_project(depth, pose, cam)
    out, sample_valid = oracle_bilinear_sample(src_img, coords)
    valid = proj_valid & sample_valid
    mask = valid if out.ndim == 2 else valid[..., None]
    return np.where(mask, out, 0.0).astype(np.float32), valid


def assert_bitwise(got, want):
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert np.array_equal(g, e)


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


@pytest.mark.parametrize("sigma", [[1.5], [-0.1, 0.5], [0.5, np.nan]])
def test_disparity_out_of_range_rejected(sigma):
    with pytest.raises(GeometryError, match=r"must lie in \[0, 1\]"):
        disparity_to_depth(np.array([sigma]), DepthParams(0.1, 100.0))


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


@pytest.mark.parametrize("src_shape", [(8, 16), (4, 4), (16, 8, 3)])
def test_warp_rejects_source_of_another_size(src_shape):
    # project bounds samples by the depth's size, so a wider source would
    # never be sampled on its right and a smaller one would be sampled short
    depth = np.full((8, 8), 3.0)
    with pytest.raises(GeometryError, match=r"not the depth's \(8, 8\)"):
        warp(np.zeros(src_shape), depth, Pose.identity(),
             Camera(10, 10, 3.5, 3.5))


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


def lattice_edge_coords(rng, h, w):
    """Random (u, v) samples around an h x w image: some out of bounds or
    negative, some on integer positions, and the last column and row."""
    coords = np.stack([rng.uniform(-2.0, w + 1.0, (h, w)),
                       rng.uniform(-2.0, h + 1.0, (h, w))], axis=-1)
    coords.reshape(-1, 2)[::3] = np.floor(coords.reshape(-1, 2)[::3])
    coords[0, 0] = (w - 1, h - 1)
    coords[-1, -1] = (w - 1, 0.0)
    coords[0, -1] = (0.0, h - 1)
    coords[-1, 0] = (-1e-12, h - 1)
    return coords


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (7, 12)])
@pytest.mark.parametrize("channels", [None, 1, 3])
def test_bilinear_sample_matches_oracle_bitwise(shape, channels):
    rng = np.random.default_rng(11)
    h, w = shape
    src = rng.random(shape if channels is None else shape + (channels,))
    src = src.astype(np.float32)
    coords = lattice_edge_coords(rng, h, w)
    assert_bitwise(bilinear_sample(src, coords),
                   oracle_bilinear_sample(src, coords))


@pytest.mark.parametrize("shape_in", [(1, 5), (5, 1), (1, 1), (3, 4),
                                      (24, 80)])
@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("channels", [None, 3])
def test_upsample_bilinear_matches_oracle_bitwise(shape_in, scale, channels):
    rng = np.random.default_rng(12)
    img = rng.random(shape_in if channels is None
                     else shape_in + (channels,))
    for shape in [(shape_in[0] * scale, shape_in[1] * scale),
                  (1, 5 * scale), (4 * scale + 1, 1)]:
        got = geometry.upsample_bilinear(img, shape)
        assert_bitwise([got], [oracle_upsample_bilinear(img, shape)])


POSES = {"identity": Pose.identity(), "stereo": Pose.stereo_baseline(0.54),
         "translation": Pose(np.eye(3), np.array([0.1, -0.2, 0.3]))}


@pytest.mark.parametrize("pose", list(POSES), ids=str)
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (48, 160)])
def test_project_and_warp_match_oracle_bitwise(pose, shape):
    rng = np.random.default_rng(13)
    pose = POSES[pose]
    cam = Camera(92.8, 90.0, 79.5, 23.5)
    depth = rng.uniform(0.5, 40.0, shape)
    assert_bitwise(project(depth, pose, cam),
                   oracle_project(depth, pose, cam))
    for img in (rng.random(shape).astype(np.float32),
                rng.random(shape + (3,))):
        assert_bitwise(warp(img, depth, pose, cam),
                       oracle_warp(img, depth, pose, cam))


def longdouble_project(depth, pose, cam):
    ld = np.longdouble
    h, w = depth.shape
    d = depth.astype(ld)
    vv, uu = np.meshgrid(np.arange(h, dtype=ld), np.arange(w, dtype=ld),
                         indexing="ij")
    pts = [(uu - ld(cam.cx)) / ld(cam.fx) * d,
           (vv - ld(cam.cy)) / ld(cam.fy) * d, d]
    r = pose.rotation.astype(ld)
    t = pose.translation.astype(ld)
    x, y, z = (sum(r[i, j] * pts[j] for j in range(3)) + t[i]
               for i in range(3))
    return np.stack([ld(cam.fx) * x / z + ld(cam.cx),
                     ld(cam.fy) * y / z + ld(cam.cy)], axis=-1)


PROJECT_RTOL = 1e-12


def test_project_random_rotations_match_longdouble_oracle():
    # the rotation is applied row by row, not as a matrix product, so the
    # result may differ from the oracle's in the last bits; the bound is
    # relative to the largest coordinate in view
    rng = np.random.default_rng(14)
    cam = Camera(92.8, 90.0, 79.5, 23.5)
    for _ in range(8):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.linalg.det(q))
        # a small rotation about a random axis keeps most pixels in view
        small = np.linalg.qr(np.eye(3) + 0.05 * rng.normal(size=(3, 3)))[0]
        small *= np.sign(np.diag(small))
        for r in (rot, small):
            pose = Pose(r, rng.normal(size=3))
            depth = rng.uniform(1.0, 80.0, (48, 160))
            coords, valid = project(depth, pose, cam)
            want, want_valid = oracle_project(depth, pose, cam)
            assert np.array_equal(valid, want_valid)
            exact = longdouble_project(depth, pose, cam)[valid]
            scale = np.abs(exact).max() if valid.any() else 1.0
            for got in (coords[valid], want[valid]):
                assert np.abs(got - exact).max() <= PROJECT_RTOL * scale
            assert np.abs(coords - want).max() <= PROJECT_RTOL * scale


@pytest.mark.parametrize("shape", [(0, 8), (-3, 8), (8, 0), (2.5, 8),
                                   (8,), (np.nan, 8)])
def test_upsample_bilinear_rejects_bad_output_shapes(shape):
    with pytest.raises(GeometryError, match="output shape"):
        geometry.upsample_bilinear(np.ones((4, 4)), shape)


@pytest.mark.parametrize("img", [np.ones((0, 4)), np.ones((4, 0, 3)),
                                 np.ones((3, 4, 0)), np.ones(5),
                                 np.ones((2, 2, 2, 2))])
def test_resamplers_reject_empty_or_misshapen_sources(img):
    with pytest.raises(GeometryError):
        geometry.upsample_bilinear(img, (4, 4))
    with pytest.raises(GeometryError):
        bilinear_sample(img, np.zeros((2, 2, 2)))
    with pytest.raises(GeometryError):
        geometry.downsample2x_area(img)


@pytest.mark.parametrize("coords_shape", [(3, 4, 3), (3, 4, 1), (3, 4), ()])
def test_bilinear_sample_rejects_coords_without_a_uv_axis(coords_shape):
    with pytest.raises(GeometryError, match="coords"):
        bilinear_sample(np.ones((3, 4)), np.zeros(coords_shape))
