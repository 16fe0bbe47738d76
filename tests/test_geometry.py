import tracemalloc

import numpy as np
import pytest

from depthseg import geometry
from depthseg.geometry import (Camera, DepthParams, GeometryError, Pose,
                               bilinear_sample, disparity_to_depth,
                               flip_postprocess, project, warp)


# Oracles: the direct forms of project, bilinear_sample, upsample_bilinear
# and warp, through a pixel grid, an (H, W, 3) point cloud and a matrix
# product, four fancy-index gathers and a full coordinate field. A float32
# source is sampled in float32, with float32 fractional parts; a source of
# any other dtype in float64.

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
    src = np.asarray(src)
    dtype = np.float32 if src.dtype == np.float32 else np.float64
    src = src.astype(dtype)
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
    fu = (u - u0)[..., None].astype(dtype)
    fv = (v - v0)[..., None].astype(dtype)
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
    """Each array of ``got`` and of ``want`` the same in dtype, shape and
    bytes: a -0.0 does not match a 0.0."""
    for g, e in zip(got, want, strict=True):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert g.tobytes() == e.tobytes()


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc sees ``fn(*args)`` allocate."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32,
                                   np.uint8])
@pytest.mark.parametrize("channels", [None, 3])
def test_sources_of_other_dtypes_are_sampled_in_float64_bitwise(dtype,
                                                                channels):
    # only a float32 source is sampled in float32; a source of any other
    # dtype gives the float64 oracle's bytes, and so its float64 cast's
    rng = np.random.default_rng(52)
    h, w = 7, 12
    src = rng.uniform(0.0, 200.0, (h, w) if channels is None
                      else (h, w, channels)).astype(dtype)
    coords = lattice_edge_coords(rng, h, w)
    got = bilinear_sample(src, coords)
    assert_bitwise(got, oracle_bilinear_sample(src, coords))
    assert_bitwise(got, bilinear_sample(src.astype(np.float64), coords))
    cam = Camera(9.2, 9.0, 5.5, 3.0)
    depth = rng.uniform(0.5, 20.0, (h, w))
    for pose in POSES.values():
        assert_bitwise(warp(src, depth, pose, cam),
                       oracle_warp(src, depth, pose, cam))


# float32 samples lie within this many 2**-24 * max|src| of the float64
# samples cast to float32. The weights' rounding, the products' and the
# sums' bound it by about 10; 36 million samples of sources and positions
# like the test's read 3.94 at most
FLOAT32_SAMPLE_ERROR = 4.0


@pytest.mark.parametrize("channels", [None, 1, 3])
def test_float32_samples_are_near_the_float64_samples(channels):
    # sources of several magnitudes and of values just below 1, sampled at
    # random positions and at fractional parts within 2**-40 of 0 and of
    # 1, which round to 0 and 1 in float32; the valid masks are equal
    rng = np.random.default_rng(53)
    h, w = 9, 14
    shape = (h, w) if channels is None else (h, w, channels)
    n = 3000
    base = np.stack([rng.integers(0, w, n), rng.integers(0, h, n)], axis=-1)
    tiny = rng.random((n, 2)) * 2.0 ** -rng.integers(1, 41, (n, 2))
    fields = [np.stack([rng.uniform(-1.0, w, n), rng.uniform(-1.0, h, n)],
                       axis=-1), base + tiny, base + 1 - tiny]
    sources = [rng.uniform(-1.0, 1.0, shape),
               rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape),
               rng.uniform(0.99, 1.0, shape),
               rng.choice([-1.0, 1.0, 0.999999, -0.0], size=shape)]
    cam = Camera(11.0, 10.0, 6.5, 4.0)
    depth = rng.uniform(0.5, 20.0, (h, w))
    for src in sources:
        src = src.astype(np.float32)
        bound = FLOAT32_SAMPLE_ERROR * 2.0 ** -24 * np.abs(src).max()
        pairs = [(bilinear_sample(src, coords),
                  bilinear_sample(src.astype(np.float64), coords))
                 for coords in fields]
        pairs += [(warp(src, depth, pose, cam),
                   warp(src.astype(np.float64), depth, pose, cam))
                  for pose in POSES.values()]
        for (got, valid), (want, want_valid) in pairs:
            assert got.dtype == want.dtype == np.float32
            assert valid.tobytes() == want_valid.tobytes()
            assert np.abs(got.astype(np.float64) - want).max() <= bound


@pytest.mark.parametrize("pose", [
    Pose.identity(), Pose.stereo_baseline(0.54),
    Pose(np.eye(3), np.array([2.0, 2.0, 0.0])),
    Pose(np.array([[0.96, 0.0, 0.28], [0.0, 1.0, 0.0], [-0.28, 0.0, 0.96]]),
         np.array([0.1, -0.2, 0.3]))])
@pytest.mark.parametrize("channels", [None, 1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_warp_is_the_public_sampler_on_project_bytewise(pose, channels,
                                                        dtype):
    # warp samples project's planes directly; the public sampler on the
    # same coordinates, zeroed where project is invalid, gives the same
    # bytes. With a unit camera, a depth of 2 makes exact lattice samples,
    # and the (2, 2) translation moves them one pixel onto the last row
    # and column; -0.0 and negative values show a sign lost or a term
    # summed in another order
    rng = np.random.default_rng(31)
    h, w = 10, 14
    cam = Camera(1.0, 1.0, 0.0, 0.0)
    depth = rng.uniform(0.5, 8.0, (h, w))
    depth[::2] = 2.0
    shape = (h, w) if channels is None else (h, w, channels)
    src = rng.normal(size=shape)
    src.reshape(-1)[::4] = -0.0
    src = src.astype(dtype)
    coords, valid = project(depth, pose, cam)
    assert valid.any()
    sampled, _ = bilinear_sample(src, coords)
    want = np.where(valid if sampled.ndim == 2 else valid[..., None],
                    sampled, np.float32(0.0))
    got, got_valid = warp(src, depth, pose, cam)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_valid.tobytes() == valid.tobytes()


def signed_values(rng, shape):
    """Random values of both signs with many -0.0 and +0.0, so that a
    zero-weight term read from another pixel than the clamped one can
    change the sign of a zero sum."""
    return rng.choice(np.array([-0.0, 0.0, -1.5, 2.25, -0.375]), size=shape)


EDGE_SHAPES = [(1, 1), (1, 6), (6, 1), (5, 7)]


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("channels", [None, 1, 3])
def test_bilinear_sample_on_the_last_row_and_column_bytewise(shape,
                                                             channels):
    # every lattice position of the last row and column, and fractional
    # positions along them, against the clamped oracle byte for byte
    rng = np.random.default_rng(41)
    h, w = shape
    src = signed_values(rng, shape if channels is None
                        else shape + (channels,)).astype(np.float32)
    frac = np.linspace(0.0, 1.0, 9)
    points = ([(w - 1, v) for v in range(h)]
              + [(u, h - 1) for u in range(w)]
              + [(w - 1, f * (h - 1)) for f in frac]
              + [(f * (w - 1), h - 1) for f in frac])
    coords = np.array(points * 4, dtype=np.float64).reshape(4, -1, 2)
    for got, want in zip(bilinear_sample(src, coords),
                         oracle_bilinear_sample(src, coords)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("channels", [None, 3])
@pytest.mark.parametrize("shift", [(0, 0), (1, 1), (1, 0.5), (0.5, 1),
                                   (0, 0.5), (0.5, 0)])
def test_warp_onto_the_last_row_and_column_bytewise(shape, channels, shift):
    # with a unit camera and a depth of 2, a translation of 2*shift moves
    # every sample by exactly shift pixels: whole shifts land on the last
    # row and column, half shifts run along them
    rng = np.random.default_rng(42)
    cam = Camera(1.0, 1.0, 0.0, 0.0)
    pose = Pose(np.eye(3), np.array([2.0 * shift[0], 2.0 * shift[1], 0.0]))
    depth = np.full(shape, 2.0)
    src = signed_values(rng, shape if channels is None
                        else shape + (channels,))
    for got, want in zip(warp(src, depth, pose, cam),
                         oracle_warp(src, depth, pose, cam)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape_in", EDGE_SHAPES)
@pytest.mark.parametrize("channels", [None, 3])
def test_upsample_bilinear_at_the_last_row_and_column_bytewise(shape_in,
                                                               channels):
    # corners aligned, so every output's last row and column samples the
    # input's exactly
    rng = np.random.default_rng(43)
    h, w = shape_in
    img = signed_values(rng, shape_in if channels is None
                        else shape_in + (channels,))
    for shape in [(3 * h, 2 * w + 1), (1, 2 * w + 1), (2 * h + 1, 1),
                  (h + 2, w), (h, w + 2)]:
        got = geometry.upsample_bilinear(img, shape)
        want = oracle_upsample_bilinear(img, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def rowwise_project(depth, pose, cam):
    """project with every rotation term: each pose row as the full sum
    r[i, 0]*x + r[i, 1]*y + r[i, 2]*depth + t[i], zero and unit
    coefficients included."""
    h, w = depth.shape
    x = ((np.arange(w, dtype=np.float64) - cam.cx) / cam.fx) * depth
    y = ((np.arange(h, dtype=np.float64) - cam.cy) / cam.fy)[:, None] * depth
    r, t = pose.rotation, pose.translation

    def source(i):
        return r[i, 0] * x + r[i, 1] * y + r[i, 2] * depth + t[i]

    z = source(2)
    valid = z > 1e-9
    z_safe = np.where(valid, z, 1.0)
    u = cam.fx * source(0) / z_safe + cam.cx
    v = cam.fy * source(1) / z_safe + cam.cy
    valid &= (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    return (np.stack([np.where(valid, u, 0.0), np.where(valid, v, 0.0)],
                     axis=-1), valid)


def rotation_z(degrees):
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# poses with exact 0 and +-1 coefficients, which project skips or does not
# multiply by
ROWWISE_POSES = {
    "rz90": Pose(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0]]), np.array([0.1, 0.0, 0.0])),
    "rz-90": Pose(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0]]), np.zeros(3)),
    "rz30": Pose(rotation_z(30.0), np.array([0.0, -0.2, 0.0])),
    "rz30-forward": Pose(rotation_z(30.0), np.array([0.0, 0.0, 0.3])),
    "rx180": Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 60.0])),
    "stereo": Pose.stereo_baseline(0.54),
    "translation": Pose(np.eye(3), np.array([0.1, 0.0, 0.3])),
}


@pytest.mark.parametrize("pose", list(ROWWISE_POSES), ids=str)
@pytest.mark.parametrize("shape", [(1, 9), (40, 40), (48, 160)])
def test_project_matches_rowwise_sum_bitwise(pose, shape):
    rng = np.random.default_rng(15)
    pose = ROWWISE_POSES[pose]
    h, w = shape
    cam = Camera(40.0, 40.0, (w - 1) / 2, (h - 1) / 2)
    depth = rng.uniform(0.5, 40.0, shape)
    coords, valid = project(depth, pose, cam)
    assert_bitwise((coords, valid), rowwise_project(depth, pose, cam))
    # u and v are each one contiguous plane
    assert coords[..., 0].flags.c_contiguous
    assert coords[..., 1].flags.c_contiguous
    if shape != (1, 9):
        assert valid.any()


@pytest.mark.parametrize("channels", [None, 3])
def test_bilinear_sample_takes_point_lists(channels):
    rng = np.random.default_rng(16)
    h, w = 6, 9
    src = rng.random((h, w) if channels is None else (h, w, channels))
    points = np.array([[0.0, 0.0], [8.0, 5.0], [2.25, 3.5], [7.9, 0.1],
                       [4.0, 2.0], [9.5, 1.0], [1.0, -0.5]])
    out, valid = bilinear_sample(src, points)
    assert out.shape == (len(points),) + src.shape[2:]
    assert list(valid) == [True] * 5 + [False] * 2
    for (u, v), got, ok in zip(points, out, valid):
        if not ok:
            assert np.all(got == 0)
            continue
        u0, v0 = int(np.floor(u)), int(np.floor(v))
        u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
        fu, fv = u - u0, v - v0
        want = (src[v0, u0] * (1 - fu) * (1 - fv) + src[v0, u1] * fu * (1 - fv)
                + src[v1, u0] * (1 - fu) * fv + src[v1, u1] * fu * fv)
        assert np.array_equal(got, np.float32(want))
    # a field and single points give the same samples as the list
    field, _ = bilinear_sample(src, points[None])
    assert np.array_equal(field[0], out)
    for point, got, ok in zip(points, out, valid):
        single, single_valid = bilinear_sample(src, point)
        assert np.shape(single) == src.shape[2:] and single_valid == ok
        assert np.array_equal(single, got)


NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("channels", [None, 3])
def test_resamplers_reject_nonfinite_images(bad, channels):
    img = np.ones((4, 6) if channels is None else (4, 6, channels))
    img[1, 2] = bad
    with pytest.raises(GeometryError, match="finite"):
        bilinear_sample(img, np.zeros((2, 2, 2)))
    with pytest.raises(GeometryError, match="finite"):
        geometry.upsample_bilinear(img, (8, 12))
    with pytest.raises(GeometryError, match="finite"):
        geometry.downsample2x_area(img)


@pytest.mark.parametrize("bad", NONFINITE)
def test_warp_rejects_nonfinite_source(bad):
    src = np.ones((8, 8), np.float32)
    src[3, 4] = bad
    with pytest.raises(GeometryError, match="finite"):
        warp(src, np.full((8, 8), 3.0), Pose.identity(),
             Camera(10, 10, 3.5, 3.5))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("which", [0, 1])
def test_flip_postprocess_rejects_nonfinite_maps(bad, which):
    maps = [np.full((4, 20), 2.0), np.full((4, 20), 3.0)]
    maps[which][2, 5] = bad
    with pytest.raises(GeometryError, match="finite"):
        flip_postprocess(*maps)


def test_warp_peak_memory():
    # a 192x640 stereo warp: two coordinate planes, the padded source and
    # the sampler's weights and gathers. The full-sum project with
    # (H, W, 1) weights peaked at 14.4 H*W*8 bytes; planar coordinates and
    # in-place weights at 11.6, and the sampler consuming project's
    # planes, with no masked copies, at 9.4, then 8.7. A float32 source,
    # padded and sampled in float32, peaks at 6.8, and a float64 one still
    # at 8.7
    rng = np.random.default_rng(17)
    h, w = 192, 640
    src = rng.random((h, w)).astype(np.float32)
    depth = rng.uniform(3.0, 40.0, (h, w))
    cam = Camera(0.58 * w, 1.92 * h, (w - 1) / 2, (h - 1) / 2)
    for dtype, bound in ((np.float32, 7.3), (np.float64, 10)):
        peak = traced_peak(warp, src.astype(dtype), depth,
                           Pose.stereo_baseline(0.54), cam)
        assert peak <= bound * h * w * 8


@pytest.mark.parametrize("shape", [(1, 7), (6, 1), (5, 7), (5, 7, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_upsample_bilinear_to_the_same_shape_is_a_fresh_cast(shape, dtype):
    # every weight is exactly 1 or 0, so the result is the input cast to
    # float32, in a new array whatever the input's dtype
    rng = np.random.default_rng(23)
    img = rng.normal(size=shape).astype(dtype)
    before = img.copy()
    got = geometry.upsample_bilinear(img, shape[:2])
    assert_bitwise([got], [oracle_upsample_bilinear(img, shape[:2])])
    assert_bitwise([got], [img.astype(np.float32)])
    assert not np.shares_memory(got, img)
    got += 1.0
    assert np.array_equal(img, before)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_disparity_to_depth_matches_expression_bitwise(dtype):
    rng = np.random.default_rng(24)
    sigma = rng.random((9, 13)).astype(dtype)
    sigma[0, :3] = (0.0, 1.0, -0.0)
    before = sigma.copy()
    for p in (DepthParams(c1=1 / 0.1 - 1 / 100.0, c2=1 / 100.0),
              DepthParams(0.1, 100.0), DepthParams(3.0, 1e-3)):
        got = disparity_to_depth(sigma, p)
        want = 1.0 / (p.c1 * sigma.astype(np.float64) + p.c2)
        assert_bitwise([got], [want])
        assert not np.shares_memory(got, sigma)
    assert np.array_equal(sigma, before)


@pytest.mark.parametrize("shape", [(12,), (3, 4, 2), ()])
def test_project_rejects_depth_that_is_not_2d(shape):
    with pytest.raises(GeometryError, match="2-D"):
        project(np.full(shape, 2.0), Pose.identity(), Camera(10, 10, 2, 2))


@pytest.mark.parametrize("depth", [np.zeros((0, 4)), np.full((2, 3), -1.0),
                                   np.zeros((2, 3))])
def test_project_rejects_empty_or_nonpositive_depth(depth):
    with pytest.raises(GeometryError, match="non-empty, finite and positive"):
        project(depth, Pose.identity(), Camera(10, 10, 2, 2))


@pytest.mark.parametrize("d, d_flipped, error", [
    (np.ones((4, 6)), np.ones((4, 5)), "shape mismatch"),
    (np.ones((4, 6)), np.ones((6, 4)), "shape mismatch"),
    (np.ones(6), np.ones(6), "2-D"),
    (np.ones((2, 3, 1)), np.ones((2, 3, 1)), "2-D"),
])
def test_flip_postprocess_rejects_misshaped_maps(d, d_flipped, error):
    with pytest.raises(GeometryError, match=error):
        flip_postprocess(d, d_flipped)


@pytest.mark.parametrize("shape", [(3, 4), (4, 5), (5, 5, 3), (1, 2)])
def test_downsample_rejects_odd_sizes(shape):
    with pytest.raises(GeometryError, match="even"):
        geometry.downsample2x_area(np.ones(shape))


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error", [
    (lambda tmp: Pose(np.eye(2), np.zeros(3)), "rotation must be 3x3"),
    (lambda tmp: DepthParams(0.0, 1.0), "c1 and c2 must be positive"),
    (lambda tmp: DepthParams(1.0, -1.0), "c1 and c2 must be positive"),
    (lambda tmp: geometry.load_camera_pose(_write(
        tmp / "cam.txt", "10 10 4.5 2.5  1 0 0 0  0 1 0 0  0 0 1")),
     "expected 16 numbers, got 15"),
], ids=["rotation-2x2", "c1-zero", "c2-negative", "camera-15-numbers"])
def test_rejects_invalid_parameters(tmp_path, call, error):
    with pytest.raises(GeometryError, match=error):
        call(tmp_path)


@pytest.mark.parametrize("c1, c2", [(np.inf, 1.0), (1.0, np.inf),
                                    (np.nan, 1.0), (1.0, np.nan),
                                    (np.inf, np.inf)])
def test_depth_params_reject_nonfinite_coefficients(c1, c2):
    # an infinite c1 would make a disparity of 0 give inf*0 = NaN
    with pytest.raises(GeometryError, match="c1 and c2 must be positive"):
        DepthParams(c1, c2)
