"""Decoder architecture tables with shape and parameter-count calculators.

The layer tables ship as a text manifest (``data/decoder_tables.txt``) and
describe the depth-branch decoder plus the segmentation branch at the five
decoder-sharing levels l0 (encoder only) through l4 (whole decoder trunk
shared). Nothing here instantiates a network; the module only answers
"what shape comes out of each layer" and "how many parameters live where".
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

LEVELS = ("l0", "l1", "l2", "l3", "l4")
ENCODERS = ("resnet18", "resnet50")

# after the stem / four residual stages, relative to the input resolution
_ENCODER_STRIDES = {"econv1": 2, "econv2": 4, "econv3": 8, "econv4": 16,
                    "econv5": 32}


class ArchError(ValueError):
    """Malformed table manifest or invalid query."""


@dataclass(frozen=True)
class LayerSpec:
    name: str
    inputs: tuple[tuple[str, int], ...]  # (source layer, upsample factor)
    kernel: int
    out_channels: int
    batch_norm: bool
    activation: str

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise ArchError(f"{self.name}: kernel must be 1 or 3")
        if self.out_channels < 1:
            raise ArchError(f"{self.name}: out_channels must be >= 1")
        if self.activation not in ("elu", "relu", "sigmoid", "softmax",
                                   "none"):
            raise ArchError(f"{self.name}: unknown activation "
                            f"{self.activation!r}")


def param_count(spec: LayerSpec, in_channels: int) -> int:
    """Convolution weights + bias, plus BatchNorm scale/shift if present."""
    if in_channels < 1:
        raise ArchError("in_channels must be >= 1")
    n = spec.kernel ** 2 * in_channels * spec.out_channels + spec.out_channels
    if spec.batch_norm:
        n += 2 * spec.out_channels
    return n


@dataclass(frozen=True)
class SharingLevel:
    level: str
    shared: tuple[str, ...]            # trunk layer names shared with seg
    specific: tuple[LayerSpec, ...]    # segmentation-only layers
    tied: dict[str, str]               # branch upsample conv -> trunk conv


@dataclass(frozen=True)
class DecoderTables:
    trunk: tuple[LayerSpec, ...]
    levels: dict[str, SharingLevel]
    encoder_channels: dict[str, dict[str, int]]
    encoder_params: dict[str, int]


def _parse_layer(line: str) -> LayerSpec:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 6:
        raise ArchError(f"malformed layer line: {line!r}")
    name, inputs_str, k, chn, bn, act = parts
    inputs = []
    for token in inputs_str.split():
        if "*" in token:
            src, factor = token.split("*")
            inputs.append((src, int(factor)))
        else:
            inputs.append((token, 1))
    return LayerSpec(name=name, inputs=tuple(inputs), kernel=int(k),
                     out_channels=int(chn), batch_norm=bn == "bn",
                     activation=act)


def _read_manifest_text() -> str:
    ref = importlib.resources.files("depthseg").joinpath(
        "data/decoder_tables.txt")
    return ref.read_text()


def load_tables(text: str | None = None,
                num_classes: int | None = None) -> DecoderTables:
    """Parse the manifest. ``num_classes`` overrides the literal output
    width of sconv3 (the tables store 1)."""
    if text is None:
        text = _read_manifest_text()
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            current = line.strip().strip("[]")
            sections[current] = []
        elif current is None:
            raise ArchError(f"content before first section: {line!r}")
        else:
            sections[current].append(line.strip())

    def kv_lines(name):
        out = {}
        for line in sections.get(name, ()):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
        return out

    encoder_channels = {}
    for enc, spec in kv_lines("encoder_channels").items():
        encoder_channels[enc] = {tok.split(":")[0]: int(tok.split(":")[1])
                                 for tok in spec.split()}
    encoder_params = {enc: int(v)
                      for enc, v in kv_lines("encoder_params").items()}

    trunk = tuple(_parse_layer(line) for line in sections["depth_decoder"])
    trunk_names = {layer.name for layer in trunk}
    shared_lists = {lvl: tuple(v.split())
                    for lvl, v in kv_lines("sharing_levels").items()}

    levels = {}
    for lvl in LEVELS:
        layers = [_parse_layer(line) for line in sections[f"seg_{lvl}"]]
        if num_classes is not None:
            layers = [LayerSpec(sp.name, sp.inputs, sp.kernel,
                                num_classes if sp.name == "sconv3"
                                else sp.out_channels,
                                sp.batch_norm, sp.activation)
                      for sp in layers]
        shared = shared_lists.get(lvl, ())
        # a branch upsample conv fed directly by a shared trunk layer is
        # weight-tied to the trunk conv of the same stage
        tied = {}
        specific = []
        for sp in layers:
            if (sp.name.startswith("upsconv") and len(sp.inputs) == 1
                    and sp.inputs[0][0] in trunk_names
                    and sp.inputs[0][0] not in _ENCODER_STRIDES):
                tied[sp.name] = "upconv" + sp.name[len("upsconv"):]
            else:
                specific.append(sp)
        levels[lvl] = SharingLevel(level=lvl, shared=shared,
                                   specific=tuple(specific), tied=tied)
    tables = DecoderTables(trunk=trunk, levels=levels,
                           encoder_channels=encoder_channels,
                           encoder_params=encoder_params)
    _check_acyclic(tables)
    return tables


def _check_acyclic(tables: DecoderTables) -> None:
    known = set(_ENCODER_STRIDES)
    for layer in tables.trunk:
        for src, _ in layer.inputs:
            if src not in known:
                raise ArchError(f"{layer.name}: input {src!r} not defined "
                                "earlier")
        known.add(layer.name)
    for level in tables.levels.values():
        seen = set(known) | set(level.tied)
        for layer in level.specific:
            for src, _ in layer.inputs:
                if src not in seen:
                    raise ArchError(f"{level.level}/{layer.name}: input "
                                    f"{src!r} not defined earlier")
            seen.add(layer.name)


def _channel_map(tables: DecoderTables, encoder: str) -> dict[str, int]:
    if encoder not in tables.encoder_channels:
        raise ArchError(f"unknown encoder {encoder!r}")
    return dict(tables.encoder_channels[encoder])


def _resolve(name: str, tied: dict[str, str]) -> str:
    return tied.get(name, name)


def _in_channels(layer: LayerSpec, channels: dict[str, int],
                 tied: dict[str, str]) -> int:
    return sum(channels[_resolve(src, tied)] for src, _ in layer.inputs)


def branch_param_totals(tables: DecoderTables, level: str,
                        encoder: str) -> tuple[int, int]:
    """(shared decoder parameters, segmentation-specific parameters) for a
    sharing level and encoder."""
    if level not in tables.levels:
        raise ArchError(f"unknown sharing level {level!r}")
    channels = _channel_map(tables, encoder)
    trunk_by_name = {}
    trunk_params = {}
    for layer in tables.trunk:
        n_in = _in_channels(layer, channels, {})
        trunk_params[layer.name] = param_count(layer, n_in)
        channels[layer.name] = layer.out_channels
        trunk_by_name[layer.name] = layer
    lv = tables.levels[level]
    shared_total = sum(trunk_params[name] for name in lv.shared)
    specific_total = 0
    for layer in lv.specific:
        n_in = _in_channels(layer, channels, lv.tied)
        specific_total += param_count(layer, n_in)
        channels[layer.name] = layer.out_channels
    return shared_total, specific_total


def output_shapes(tables: DecoderTables, level: str, encoder: str,
                  input_hw: tuple[int, int]) -> dict[str, tuple[int, int, int]]:
    """Per-layer (H, W, C) for the trunk plus the level's specific layers."""
    if level not in tables.levels:
        raise ArchError(f"unknown sharing level {level!r}")
    h, w = input_hw
    if h <= 0 or w <= 0:
        raise ArchError("input height and width must be positive")
    if h % 32 or w % 32:
        raise ArchError("input height and width must be divisible by 32")
    channels = _channel_map(tables, encoder)
    shapes = {name: (h // s, w // s, channels[name])
              for name, s in _ENCODER_STRIDES.items()}
    lv = tables.levels[level]

    def add_layer(layer: LayerSpec):
        resolutions = set()
        for src, factor in layer.inputs:
            sh, sw, _ = shapes[_resolve(src, lv.tied)]
            resolutions.add((sh * factor, sw * factor))
        if len(resolutions) != 1:
            raise ArchError(f"{layer.name}: inputs land at mixed resolutions "
                            f"{sorted(resolutions)}")
        oh, ow = resolutions.pop()
        shapes[layer.name] = (oh, ow, layer.out_channels)

    for layer in tables.trunk:
        add_layer(layer)
    for layer in lv.specific:
        add_layer(layer)
    return shapes


def report(tables: DecoderTables, level: str, encoder: str,
           input_hw: tuple[int, int] = (192, 640)) -> str:
    """Human-readable shape/parameter summary used by the CLI."""
    channels = _channel_map(tables, encoder)
    shapes = output_shapes(tables, level, encoder, input_hw)
    lv = tables.levels[level]
    lines = [f"level {level}  encoder {encoder}  input "
             f"{input_hw[0]}x{input_hw[1]}"]
    for layer in tables.trunk:
        n_in = _in_channels(layer, channels, {})
        channels[layer.name] = layer.out_channels
        kind = "shared" if layer.name in lv.shared else "depth "
        hh, ww, cc = shapes[layer.name]
        lines.append(f"  {kind} {layer.name:9s} {hh:4d}x{ww:<4d}x{cc:<4d} "
                     f"params {param_count(layer, n_in):>9d}")
    for layer in lv.specific:
        n_in = _in_channels(layer, channels, lv.tied)
        channels[layer.name] = layer.out_channels
        hh, ww, cc = shapes[layer.name]
        lines.append(f"  seg    {layer.name:9s} {hh:4d}x{ww:<4d}x{cc:<4d} "
                     f"params {param_count(layer, n_in):>9d}")
    shared_total, specific_total = branch_param_totals(tables, level, encoder)
    lines.append(f"  encoder params          {tables.encoder_params[encoder]}")
    lines.append(f"  shared decoder params   {shared_total}")
    lines.append(f"  seg-specific params     {specific_total}")
    return "\n".join(lines)
