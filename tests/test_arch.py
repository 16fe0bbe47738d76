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
    bad = "[depth_decoder]\nupconv5 | nowhere*2 | 3 | 256 | - | elu\n"
    with pytest.raises(ArchError):
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
