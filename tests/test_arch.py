import hashlib
from dataclasses import replace

import pytest

from depthseg import arch
from depthseg.arch import ArchError, LayerSpec, load_tables, param_count


@pytest.fixture(scope="module")
def tables():
    return load_tables()


def test_param_count_formula():
    spec = LayerSpec("conv", (("x", 1),), 3, 8, False, "elu")
    assert param_count(spec, 4) == 9 * 4 * 8 + 8
    spec_bn = LayerSpec("conv", (("x", 1),), 3, 8, True, "relu")
    assert param_count(spec_bn, 4) == 9 * 4 * 8 + 8 + 16


def test_layer_validation():
    with pytest.raises(ArchError):
        LayerSpec("bad", (("x", 1),), 5, 8, False, "elu")
    with pytest.raises(ArchError):
        LayerSpec("bad", (("x", 1),), 3, 0, False, "elu")
    with pytest.raises(ArchError):
        LayerSpec("bad", (("x", 1),), 3, 8, False, "swish")


def test_sconv3_param_count(tables):
    layer = [sp for sp in tables.levels["l4"].specific
             if sp.name == "sconv3"][0]
    assert param_count(layer, 128) == 129


def test_num_classes_override():
    t = load_tables(num_classes=19)
    layer = [sp for sp in t.levels["l4"].specific if sp.name == "sconv3"][0]
    assert layer.out_channels == 19
    assert param_count(layer, 128) == 128 * 19 + 19


def _with_inputs(layers, name, *inputs):
    """``layers`` with the layer ``name`` reading ``inputs``."""
    return tuple(replace(sp, inputs=inputs) if sp.name == name else sp
                 for sp in layers)


def _with_level(tables, level, **changes):
    return replace(tables, levels={
        **tables.levels, level: replace(tables.levels[level], **changes)})


def test_manifest_rejects_undefined_input(tables):
    bad = replace(tables, trunk=_with_inputs(tables.trunk, "upconv5",
                                             ("nowhere", 2)))
    with pytest.raises(ArchError, match=r"l0/upconv5: input 'nowhere' not "
                                        r"defined earlier"):
        arch.branch_param_totals(bad, "l0", "resnet18")


def test_manifest_rejects_inputs_at_mixed_strides(tables):
    # upconv5 lands at stride 16 and econv3 at stride 8
    bad = replace(tables, trunk=_with_inputs(tables.trunk, "iconv5",
                                             ("upconv5", 1), ("econv3", 1)))
    with pytest.raises(ArchError, match=r"l0/iconv5: inputs must land at "
                                        r"one stride, got \['8', '16'\]"):
        arch.branch_param_totals(bad, "l0", "resnet18")


def test_manifest_rejects_encoder_without_a_feature(tables):
    channels = dict(tables.encoder_channels["resnet18"])
    del channels["econv3"]
    bad = replace(tables, encoder_channels={**tables.encoder_channels,
                                            "resnet18": channels})
    with pytest.raises(ArchError, match=r"encoder resnet18: no channels for "
                                        r"\['econv3'\]"):
        arch.branch_param_totals(bad, "l0", "resnet18")


@pytest.mark.parametrize("encoder", arch.ENCODERS)
def test_specific_params_strictly_decrease(tables, encoder):
    specifics = [arch.branch_param_totals(tables, lvl, encoder)[1]
                 for lvl in arch.LEVELS]
    assert all(a > b for a, b in zip(specifics, specifics[1:]))


@pytest.mark.parametrize("encoder", arch.ENCODERS)
def test_shared_plus_specific_is_level_invariant(tables, encoder):
    # moving the fork only reassigns layers between the shared and
    # segmentation-specific groups, so their combined total must not depend
    # on the level
    totals = {lvl: sum(arch.branch_param_totals(tables, lvl, encoder))
              for lvl in arch.LEVELS}
    assert len(set(totals.values())) == 1


def test_resnet50_level_deltas_match_published_sizes(tables):
    specifics = {lvl: arch.branch_param_totals(tables, lvl, "resnet50")[1]
                 for lvl in arch.LEVELS}
    deltas = {
        ("l0", "l1"): 7.964e6,
        ("l1", "l2"): 0.811e6,
        ("l2", "l3"): 0.203e6,
        ("l3", "l4"): 0.032e6,
    }
    for (a, b), expected in deltas.items():
        actual = specifics[a] - specifics[b]
        assert abs(actual - expected) / expected < 0.15


def test_output_shapes_full_resolution_segmentation(tables):
    shapes = arch.output_shapes(tables, "l4", "resnet18", (192, 640))
    assert shapes["econv5"] == (6, 20, 512)
    assert shapes["disp1"] == (192, 640, 1)
    assert shapes["sconv3"][:2] == (192, 640)


def test_output_shapes_reject_non_multiple_of_32(tables):
    with pytest.raises(ArchError):
        arch.output_shapes(tables, "l0", "resnet18", (100, 640))


@pytest.mark.parametrize("size", [(-32, 64), (0, 640), (192, -64), (0, 0)])
def test_output_shapes_reject_nonpositive_size(tables, size):
    with pytest.raises(ArchError, match="must be positive"):
        arch.output_shapes(tables, "l4", "resnet18", size)


def test_report_mentions_totals(tables):
    text = arch.report(tables, "l2", "resnet50")
    assert "seg-specific params" in text
    assert "25557032" in text


def test_manifest_rejects_unknown_shared_layer(tables):
    bad = _with_level(tables, "l1", shared=("upconv5", "iconv5", "upconv9"))
    with pytest.raises(ArchError, match=r"l1: shared layers \['upconv9'\] "
                                        r"are not in the depth decoder"):
        arch.branch_param_totals(bad, "l1", "resnet18")


@pytest.mark.parametrize("level", arch.LEVELS)
@pytest.mark.parametrize("encoder", arch.ENCODERS)
def test_report_rows_add_up_to_branch_totals(tables, level, encoder):
    text = arch.report(tables, level, encoder)
    rows = {"shared": 0, "depth": 0, "seg": 0}
    for line in text.splitlines():
        # "  <part> <layer> <H>x<W> x<C> params <n>"
        parts = line.split()
        if len(parts) == 6 and parts[4] == "params":
            rows[parts[0]] += int(parts[5])
    shared, specific = arch.branch_param_totals(tables, level, encoder)
    assert (rows["shared"], rows["seg"]) == (shared, specific)
    assert f"shared decoder params   {shared}\n" in text
    assert text.endswith(f"seg-specific params     {specific}")


@pytest.mark.parametrize("call, error", [
    (lambda t: param_count(LayerSpec("conv", (("x", 1),), 3, 8, False, "elu"),
                           0), "in_channels must be >= 1"),
    (lambda t: arch.branch_param_totals(t, "l4", "resnet34"),
     "unknown encoder 'resnet34'"),
    (lambda t: arch.report(t, "l5", "resnet18"),
     "unknown sharing level 'l5'"),
], ids=["in-channels", "unknown-encoder", "unknown-level"])
def test_rejects_invalid_layers_and_queries(tables, call, error):
    with pytest.raises(ArchError, match=error):
        call(tables)


# (shared, segmentation-specific) decoder parameters of each level, as
# resnet18 / resnet50
BRANCH_TOTALS = {
    "l0": ((0, 3870305), (0, 9731681)),
    "l1": ((2654848, 1215457), (7963264, 1768417)),
    "l2": ((3023680, 846625), (8774464, 957217)),
    "l3": ((3115936, 754369), (8977312, 754369)),
    "l4": ((3150560, 719745), (9011936, 719745)),
}

L2_RESNET50_SHAPES_192x640 = {
    "econv1": (96, 320, 64), "econv2": (48, 160, 256),
    "econv3": (24, 80, 512), "econv4": (12, 40, 1024),
    "econv5": (6, 20, 2048),
    "upconv5": (12, 40, 256), "iconv5": (12, 40, 256),
    "upconv4": (24, 80, 128), "iconv4": (24, 80, 128),
    "disp4": (24, 80, 1),
    "upconv3": (48, 160, 64), "iconv3": (48, 160, 64),
    "disp3": (48, 160, 1),
    "upconv2": (96, 320, 32), "iconv2": (96, 320, 32),
    "disp2": (96, 320, 1),
    "upconv1": (192, 640, 16), "iconv1": (192, 640, 16),
    "disp1": (192, 640, 1),
    "isconv3": (48, 160, 64), "upsconv2": (96, 320, 32),
    "isconv2": (96, 320, 32), "upsconv1": (192, 640, 16),
    "isconv1": (192, 640, 16),
    "sconv1": (192, 640, 128), "sconv2": (192, 640, 128),
    "sconv3": (192, 640, 1),
}


def test_branch_param_totals_are_pinned(tables):
    totals = {lvl: tuple(arch.branch_param_totals(tables, lvl, enc)
                         for enc in arch.ENCODERS) for lvl in arch.LEVELS}
    assert totals == BRANCH_TOTALS
    assert arch.branch_param_totals(load_tables(num_classes=19), "l4",
                                    "resnet50") == (9011936, 722067)


def test_output_shapes_are_pinned(tables):
    shapes = arch.output_shapes(tables, "l2", "resnet50", (192, 640))
    # the report lists the layers in this order
    assert list(shapes.items()) == list(L2_RESNET50_SHAPES_192x640.items())


@pytest.mark.parametrize("changes, error", [
    (lambda lv: {"specific": _with_inputs(lv.specific, "isconv4",
                                          ("iconv4", 1), ("econv3", 1))},
     r"l1/isconv4: input 'iconv4' is not shared at this level"),
    (lambda lv: {"shared": ("upconv5", "upconv4")},
     r"l1/upconv4: input 'iconv5' is not shared at this level"),
], ids=["branch-reads-depth-only", "shared-reads-depth-only"])
def test_manifest_rejects_sharing_that_contradicts_the_graph(tables, changes,
                                                             error):
    bad = _with_level(tables, "l1", **changes(tables.levels["l1"]))
    with pytest.raises(ArchError, match=error):
        arch.branch_param_totals(bad, "l1", "resnet18")


# sha256 of each level's and encoder's report and its per-layer shapes at
# 384x1280, levels outermost
REPORTS_SHA256 = ("a292c191e36643888cfac0d24d28b41c"
                  "296480989e51de78a38d060547eaf0e0")


def test_every_report_and_shape_is_pinned(tables):
    digest = hashlib.sha256()
    for level in arch.LEVELS:
        for encoder in arch.ENCODERS:
            digest.update(arch.report(tables, level, encoder).encode())
            digest.update(repr(arch.output_shapes(
                tables, level, encoder, (384, 1280))).encode())
    assert digest.hexdigest() == REPORTS_SHA256


def test_each_load_returns_fresh_dicts(tables):
    fresh = load_tables()
    fresh.levels.clear()
    fresh.encoder_channels["resnet18"].clear()
    fresh.encoder_params.clear()
    assert load_tables() == tables
