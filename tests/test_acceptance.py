"""End-to-end acceptance checks, one test per criterion.

These are the binding guarantees of the package: oracle equivalence of the
two refinement implementations, exact micro-fixtures, constructed recovery
scenarios on synthetic stereo scenes, loss/gradient identities, metric
fixtures, architecture bookkeeping, and file-format round-trips.
"""

import time

import numpy as np
import pytest

from depthseg import arch, geometry, losses, metrics, refine, synth, tensorio
from depthseg.refine import RefineConfig, RefineState
from depthseg.tensorio import Tensor2D


def make_scene():
    """128x256 scene, one square at 2 m on a 10 m background.

    fx * baseline = 40, so disparities are integral: 20 columns for the
    square, 4 for the background.
    """
    cam = geometry.Camera(fx=200.0, fy=200.0, cx=127.5, cy=63.5)
    return synth.SceneSpec(
        height=128, width=256, camera=cam, baseline=0.2,
        background_depth=10.0,
        objects=(synth.ObjectSpec("rect", (40, 100, 88, 148), 2.0, 1, 7),),
        background_class=0, background_texture_seed=3)


def test_criterion_01_refinement_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    for i in range(200):
        h, w = rng.integers(2, 33, 2)
        k = int(rng.integers(2, 6))
        depth = rng.random((h, w)) * 10 + 0.5
        if i % 2 == 0:
            y = rng.integers(0, k, (h, w))
            y_hat = rng.integers(0, k, (h, w))
            th = (float(rng.random() * 0.5 + 1e-3)
                  if rng.random() < 0.8 else None)
            cfg = RefineConfig(depth_threshold=th)
            a = refine.refine_segmentation_with_depth(y, y_hat, depth, cfg,
                                                      impl="parallel")
            b = refine.refine_segmentation_with_depth(y, y_hat, depth, cfg,
                                                      impl="reference")
        else:
            y_ref = rng.integers(0, k, (h, w))
            y_t = rng.integers(0, k, (h, w))
            y_st = rng.integers(0, k, (h, w))
            valid = rng.random((h, w)) < 0.9
            states = refine.split_confidence_by_consistency(
                depth, y_ref, y_t, y_st, valid, range(k))
            a = refine.refine_depth_with_segmentation(depth, states,
                                                      impl="parallel")
            b = refine.refine_depth_with_segmentation(depth, states,
                                                      impl="reference")
        assert np.array_equal(a, b), f"instance {i} diverged"
    assert time.time() - start < 10.0


def test_criterion_02_worked_micro_fixtures():
    y = np.array([[0, 1, 0]])
    y_hat = np.array([[0, 0, 0]])
    depth = np.array([[1.0, 1.01, 5.0]])
    out = refine.refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.1))
    assert out.tolist() == [[0, 0, 0]]
    out = refine.refine_segmentation_with_depth(
        y, y_hat, depth, RefineConfig(depth_threshold=0.005))
    assert out.tolist() == [[0, 1, 0]]

    d = np.array([[2.0, 9.0, 2.2]])
    st = RefineState(confident=np.array([[True, False, True]]),
                     unreliable=np.array([[False, True, False]]))
    out = refine.refine_depth_with_segmentation(d, [st])
    assert out.tolist() == [[2.0, 2.2, 2.2]]


def test_criterion_03_bleeding_artifact_recovery():
    spec = make_scene()
    img_l, img_r, depth, seg, _ = synth.render(spec)
    bad_depth, _ = synth.corrupt(depth, seg,
                                 synth.CorruptionSpec(bleed_width=4, seed=0))
    band = bad_depth != depth
    assert band.any()

    start = time.time()
    refined = refine.refine_depth_full(
        bad_depth, seg, img_l, img_r,
        geometry.Pose.stereo_baseline(spec.baseline), spec.camera,
        synth.intensity_segmenter(64), RefineConfig())
    elapsed = time.time() - start

    within_5pct = np.abs(refined[band] - 10.0) <= 0.05 * 10.0
    rmse_before = np.sqrt(np.mean((bad_depth[band] - depth[band]) ** 2))
    rmse_after = np.sqrt(np.mean((refined[band] - depth[band]) ** 2))
    assert within_5pct.mean() >= 0.90
    assert rmse_after <= 0.5 * rmse_before
    assert elapsed < 5.0


def test_criterion_04_label_noise_recovery():
    spec = make_scene()
    _, _, depth, seg, _ = synth.render(spec)
    _, noisy = synth.corrupt(depth, seg,
                             synth.CorruptionSpec(seg_flip_rate=0.1, seed=1))
    flipped = noisy != seg
    assert flipped.any()

    start = time.time()
    fixed = refine.refine_segmentation_with_depth(noisy, seg, depth,
                                                  RefineConfig())
    elapsed = time.time() - start

    err_before = float((noisy[flipped] != seg[flipped]).mean())
    err_after = float((fixed[flipped] != seg[flipped]).mean())
    assert err_after <= 0.3 * err_before
    assert elapsed < 5.0


def test_criterion_05_warp_fidelity():
    spec = make_scene()
    img_l, img_r, depth, _, occ = synth.render(spec)
    pose = geometry.Pose.stereo_baseline(spec.baseline)
    warped, valid = geometry.warp(img_r, depth, pose, spec.camera)
    mask = valid & ~occ
    assert mask.any()
    assert np.abs(warped[mask] - img_l[mask]).mean() < 0.02

    out, valid_id = geometry.warp(img_l, depth, geometry.Pose.identity(),
                                  spec.camera)
    interior = np.zeros_like(valid_id)
    interior[1:-1, 1:-1] = True
    assert np.abs(out - img_l)[valid_id & interior].max() < 1e-6


def finite_difference(f, x, eps=1e-6):
    num = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        num[idx] = (f(xp) - f(xm)) / (2 * eps)
    return num


def rel_error(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-8)


def test_criterion_06_loss_identities_and_gradients():
    rng = np.random.default_rng(6)
    img = rng.random((8, 8, 3))
    assert abs(losses.photometric_loss(img, img)) < 1e-7
    assert losses.hint_loss(np.array([[2.0]]), np.array([[1.0]])) == \
        pytest.approx(np.log(2.0), abs=1e-7)
    for k in (2, 19):
        probs = np.full((4, 4, k), 1.0 / k)
        target = np.zeros((4, 4), dtype=np.int64)
        assert losses.cross_entropy(target, probs) == \
            pytest.approx(np.log(k), abs=1e-6)

    a = rng.random((8, 8, 3))
    b = rng.random((8, 8, 3))
    for gamma in (0.0, 0.85):
        w = losses.LossWeights(gamma=gamma)
        grad = losses.photometric_loss_grad(a, b, w=w)
        num = finite_difference(lambda x: losses.photometric_loss(a, x, w=w),
                                b)
        assert rel_error(grad, num) < 1e-4

    d = rng.random((8, 8)) + 0.5
    t = rng.random((8, 8)) + 0.5
    assert rel_error(losses.hint_loss_grad(d, t),
                     finite_difference(lambda x: losses.hint_loss(x, t),
                                       d)) < 1e-4

    disp = rng.random((8, 8)) + 0.1
    img = rng.random((8, 8, 3))
    assert rel_error(
        losses.smoothness_loss_grad(disp, img),
        finite_difference(lambda x: losses.smoothness_loss(x, img),
                          disp)) < 1e-4

    logits = rng.random((8, 8, 4)) + 0.1
    probs = logits / logits.sum(axis=2, keepdims=True)
    target = rng.integers(0, 4, (8, 8))
    assert rel_error(
        losses.cross_entropy_grad(target, probs),
        finite_difference(lambda p: losses.cross_entropy(target, p),
                          probs)) < 1e-4


def test_criterion_07_gradient_scaling():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gd = rng.standard_normal((6, 9))
        gs = rng.standard_normal((6, 9))
        assert np.array_equal(losses.combine_shared_gradients(gd, gs, 1.0),
                              gd)
        assert np.array_equal(losses.combine_shared_gradients(gd, gs, 0.0),
                              gs)
        alpha = float(rng.random())
        mixed = losses.combine_shared_gradients(gd, gs, alpha)
        assert np.abs(mixed - (alpha * gd + (1 - alpha) * gs)).max() < 1e-7
    g = rng.standard_normal((6, 9))
    assert np.abs(losses.combine_shared_gradients(g, g, 0.5) - g).max() < 1e-7


def test_criterion_08_metrics():
    gt = np.array([[1.0, 10.0], [40.0, 79.0]])
    r = metrics.evaluate_depth(gt, gt)
    assert (r.abs_rel, r.sq_rel, r.rmse, r.rmse_log) == (0.0, 0.0, 0.0, 0.0)
    assert (r.delta1, r.delta2, r.delta3) == (1.0, 1.0, 1.0)

    r = metrics.evaluate_depth(np.array([11.0, 18.0]), np.array([10.0, 20.0]))
    assert r.abs_rel == pytest.approx(0.1, abs=1e-6)
    assert r.sq_rel == pytest.approx(0.15, abs=1e-6)
    assert r.rmse == pytest.approx(np.sqrt(2.5), abs=1e-6)

    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        gt = rng.random(n) * 70 + 1
        pred = gt * np.exp(rng.normal(0, 0.4, n))
        r = metrics.evaluate_depth(pred, gt)
        assert r.delta1 <= r.delta2 <= r.delta3

    gt = np.array([10.0, 81.0, 200.0, 79.0])
    r = metrics.evaluate_depth(gt, gt, cap=80.0)
    assert r.valid_pixel_count == 2


def test_criterion_09_architecture_calculators():
    tables = arch.load_tables()
    sconv3 = [sp for sp in tables.levels["l4"].specific
              if sp.name == "sconv3"][0]
    assert arch.param_count(sconv3, 128) == 129

    for encoder in arch.ENCODERS:
        specifics = [arch.branch_param_totals(tables, lvl, encoder)[1]
                     for lvl in arch.LEVELS]
        assert all(x > y for x, y in zip(specifics, specifics[1:]))

    l3 = arch.branch_param_totals(tables, "l3", "resnet50")[1]
    l4 = arch.branch_param_totals(tables, "l4", "resnet50")[1]
    assert abs((l3 - l4) - 0.032e6) / 0.032e6 < 0.15


def test_criterion_10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(10)
    dtypes = [("f32", np.float32), ("u8", np.uint8), ("i32", np.int32)]
    path = tmp_path / "t.stn"
    for i in range(500):
        h, w, c = rng.integers(1, 12, 3)
        name, npdtype = dtypes[i % 3]
        if name == "f32":
            arr = rng.standard_normal((h, w, c)).astype(np.float32)
        elif name == "u8":
            arr = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
        else:
            arr = rng.integers(-2 ** 31, 2 ** 31, (h, w, c),
                               dtype=np.int64).astype(np.int32)
        t = Tensor2D(arr)
        tensorio.save_tensor(t, path)
        back = tensorio.load_tensor(path)
        assert back == t
        assert back.data.tobytes() == t.data.tobytes()

    for i in range(100):
        h, w = rng.integers(1, 32, 2)
        channels = 1 if i % 2 == 0 else 3
        arr = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
        img_path = tmp_path / ("img.pgm" if channels == 1 else "img.ppm")
        t = Tensor2D(arr)
        tensorio.write_pgm_ppm(t, img_path)
        assert tensorio.read_pgm_ppm(img_path) == t
