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


def test_manifest_rejects_undefined_input():
    bad = ("[encoder_channels]\n[encoder_params]\n[sharing_levels]\n"
           + "".join(f"{lvl} =\n" for lvl in arch.LEVELS)
           + "[depth_decoder]\nupconv5 | nowhere*2 | 3 | 256 | - | elu\n")
    with pytest.raises(ArchError, match=r"l0/upconv5: input 'nowhere' not "
                                        r"defined earlier"):
        load_tables(bad + "[seg_l0]\n[seg_l1]\n[seg_l2]\n[seg_l3]\n[seg_l4]\n")


def test_manifest_rejects_inputs_at_mixed_strides():
    # upconv5 lands at stride 16 and econv3 at stride 8
    text = arch._read_manifest_text().replace(
        "iconv5  | upconv5 econv4 |", "iconv5  | upconv5 econv3 |")
    with pytest.raises(ArchError, match=r"l0/iconv5: inputs must land at "
                                        r"one stride, got \['8', '16'\]"):
        load_tables(text)


def test_manifest_rejects_encoder_without_a_feature():
    text = arch._read_manifest_text().replace("econv3:128 ", "")
    with pytest.raises(ArchError,
                       match=r"encoder resnet18: no channels for \['econv3'\]"):
        load_tables(text)


def test_manifest_rejects_encoder_token_without_a_colon():
    text = arch._read_manifest_text().replace("econv1:64 econv2:64",
                                              "econv1 econv2:64")
    with pytest.raises(ArchError, match=r"encoder resnet18: 'econv1' is not "
                                        r"feature:channels"):
        load_tables(text)


@pytest.mark.parametrize("old, new, token", [
    ("upconv5 | econv5*2       | 3 |", "upconv5 | econv5*2       | 3x |",
     "3x"),
    ("upconv5 | econv5*2 ", "upconv5 | econv5*x ", "x"),
])
def test_manifest_rejects_non_integer_kernel_or_factor(old, new, token):
    text = arch._read_manifest_text().replace(old, new)
    with pytest.raises(ArchError, match=rf"'{token}' is not an integer in "
                                        r"line 'upconv5 \| econv5\*"):
        load_tables(text)


def test_manifest_rejects_missing_level_section():
    text = arch._read_manifest_text()
    text = text[:text.index("[seg_l3]")] + text[text.index("[seg_l4]"):]
    with pytest.raises(ArchError, match=r"missing section \[seg_l3\]"):
        load_tables(text)


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


def test_manifest_rejects_unknown_shared_layer():
    text = arch._read_manifest_text().replace(
        "l1 = upconv5 iconv5 upconv4", "l1 = upconv5 iconv5 upconv9")
    with pytest.raises(ArchError, match=r"l1: shared layers \['upconv9'\]"):
        load_tables(text)


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


@pytest.mark.parametrize("old, new, bad_line, error", [
    ("[sharing_levels]", "[sharing_level]", "[sharing_level]",
     r"unknown section '\[sharing_level\]'"),
    ("l2 = upconv5", "l2 upconv5",
     "l2 upconv5 iconv5 upconv4 iconv4 upconv3",
     r"expected key = value, got 'l2 upconv5"),
    ("[sharing_levels]", "[seg_l3]\n[sharing_levels]", "[seg_l3]",
     r"repeated section '\[seg_l3\]'"),
    ("resnet50 = 25557032", "resnet50 = 25557032\nresnet50 = 1",
     "resnet50 = 1", r"repeated key 'resnet50' in \[encoder_params\]"),
], ids=["misspelled-section", "key-without-equals", "repeated-section",
        "repeated-key"])
def test_manifest_rejects_misread_lines(old, new, bad_line, error):
    text = arch._read_manifest_text().replace(old, new)
    lines = text.splitlines()
    # the 1-based number of the last line that reads bad_line
    lineno = len(lines) - lines[::-1].index(bad_line)
    with pytest.raises(ArchError, match=rf"line {lineno}: {error}"):
        load_tables(text)


@pytest.mark.parametrize("old, new, error", [
    ("[encoder_params]\nresnet18 = 11689512\nresnet50 = 25557032\n", "",
     r"missing section \[encoder_params\]"),
    ("resnet18 = 11689512\n", "",
     r"\[encoder_channels\] names encoders \['resnet18', 'resnet50'\], "
     r"\[encoder_params\] \['resnet50'\]"),
    ("l0 =\n", "", r"\[sharing_levels\] names \['l1', 'l2', 'l3', 'l4'\], "
                   r"not the levels"),
], ids=["no-encoder-params", "encoders-differ", "level-not-named"])
def test_manifest_rejects_missing_entries(old, new, error):
    text = arch._read_manifest_text()
    assert old in text
    with pytest.raises(ArchError, match=error):
        load_tables(text.replace(old, new))


@pytest.mark.parametrize("call, error", [
    (lambda t: param_count(LayerSpec("conv", (("x", 1),), 3, 8, False, "elu"),
                           0), "in_channels must be >= 1"),
    (lambda t: load_tables(arch._read_manifest_text().replace(
        "| 1   | -  | sigmoid", "| 1   | sigmoid")), "malformed layer line"),
    (lambda t: load_tables("l0 =\n" + arch._read_manifest_text()),
     "content before first section: 'l0 ='"),
    (lambda t: arch.branch_param_totals(t, "l4", "resnet34"),
     "unknown encoder 'resnet34'"),
    (lambda t: arch.report(t, "l5", "resnet18"),
     "unknown sharing level 'l5'"),
], ids=["in-channels", "layer-fields", "content-before-section",
        "unknown-encoder", "unknown-level"])
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


@pytest.mark.parametrize("old, new, error", [
    ("[seg_l1]\nisconv4  | upconv4 econv3 ", "[seg_l1]\nisconv4  | iconv4 econv3 ",
     r"l1/isconv4: input 'iconv4' is not shared at this level"),
    ("l1 = upconv5 iconv5 upconv4", "l1 = upconv5 upconv4",
     r"l1/upconv4: input 'iconv5' is not shared at this level"),
], ids=["branch-reads-depth-only", "shared-reads-depth-only"])
def test_manifest_rejects_sharing_that_contradicts_the_graph(old, new, error):
    text = arch._read_manifest_text()
    assert text.count(old) == 1
    with pytest.raises(ArchError, match=error):
        load_tables(text.replace(old, new))
