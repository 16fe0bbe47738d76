"""Decoder architecture tables with shape and parameter-count calculators.

The layer tables ship as a text manifest (``data/decoder_tables.txt``) and
describe the depth-branch decoder plus the segmentation branch at the five
decoder-sharing levels l0 (encoder only) through l4 (whole decoder trunk
shared). Nothing here instantiates a network; the module only answers
"what shape comes out of each layer" and "how many parameters live where".

One walk over a level's layers, each trunk layer and then each
segmentation-specific layer, gives its part (shared with the segmentation
branch, depth only or segmentation only), its parameter count and its stride
(input size / output size, from the encoder strides and the ``*N`` upsample
factors). ``load_tables`` runs the walk once per level, so a malformed
manifest fails at load, and ``branch_param_totals``, ``output_shapes`` and
``report`` read it. A shared or segmentation layer may read only layers
shared at its level, so a sharing list that contradicts the graph fails at
load; at l1-l3 the branch reads the last shared trunk conv by its own name.

The manifest's set of sections is fixed, and each appears exactly once. A
``key = value`` line needs its ``=`` and names its key once per section,
both encoder sections name the same encoders, and ``[sharing_levels]``
names each level.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace
from fractions import Fraction

LEVELS = ("l0", "l1", "l2", "l3", "l4")
ENCODERS = ("resnet18", "resnet50")

# each manifest section, which appears exactly once
_SECTIONS = ("encoder_channels", "encoder_params", "depth_decoder",
             *(f"seg_{lvl}" for lvl in LEVELS), "sharing_levels")

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
    shared: tuple[str, ...]            # trunk layer names shared with seg
    specific: tuple[LayerSpec, ...]    # segmentation-only layers


@dataclass(frozen=True)
class DecoderTables:
    trunk: tuple[LayerSpec, ...]
    levels: dict[str, SharingLevel]
    encoder_channels: dict[str, dict[str, int]]
    encoder_params: dict[str, int]


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ArchError(f"{token!r} is not an integer in line {line!r}"
                        ) from None


def _parse_layer(line: str) -> LayerSpec:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 6:
        raise ArchError(f"malformed layer line: {line!r}")
    name, inputs_str, k, chn, bn, act = parts
    inputs = []
    for token in inputs_str.split():
        src, star, factor = token.partition("*")
        inputs.append((src, _int(factor, line) if star else 1))
    return LayerSpec(name=name, inputs=tuple(inputs), kernel=_int(k, line),
                     out_channels=_int(chn, line), batch_norm=bn == "bn",
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
    # each section's (line number, line) pairs
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            current = line.strip().strip("[]")
            if current not in _SECTIONS:
                raise ArchError(f"line {lineno}: unknown section {line!r}")
            if current in sections:
                raise ArchError(f"line {lineno}: repeated section {line!r}")
            sections[current] = []
        elif current is None:
            raise ArchError(f"content before first section: {line!r}")
        else:
            sections[current].append((lineno, line.strip()))
    for name in _SECTIONS:
        if name not in sections:
            raise ArchError(f"missing section [{name}]")

    def section(name):
        return [line for _, line in sections[name]]

    def kv_lines(name):
        out = {}
        for lineno, line in sections[name]:
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ArchError(f"line {lineno}: expected key = value, got "
                                f"{line!r}")
            if key in out:
                raise ArchError(f"line {lineno}: repeated key {key!r} in "
                                f"[{name}]")
            out[key] = value
        return out

    encoder_channels = {}
    for enc, spec in kv_lines("encoder_channels").items():
        encoder_channels[enc] = {}
        for tok in spec.split():
            feature, colon, width = tok.partition(":")
            if not colon:
                raise ArchError(f"encoder {enc}: {tok!r} is not "
                                "feature:channels")
            encoder_channels[enc][feature] = _int(width, f"{enc} = {spec}")
        missing = sorted(set(_ENCODER_STRIDES) - set(encoder_channels[enc]))
        if missing:
            raise ArchError(f"encoder {enc}: no channels for {missing}")
    encoder_params = {enc: _int(v, f"{enc} = {v}")
                      for enc, v in kv_lines("encoder_params").items()}
    if encoder_params.keys() != encoder_channels.keys():
        raise ArchError("[encoder_channels] names encoders "
                        f"{sorted(encoder_channels)}, [encoder_params] "
                        f"{sorted(encoder_params)}")

    trunk = tuple(_parse_layer(line) for line in section("depth_decoder"))
    trunk_names = {layer.name for layer in trunk}
    shared_lists = {lvl: tuple(v.split())
                    for lvl, v in kv_lines("sharing_levels").items()}
    if shared_lists.keys() != set(LEVELS):
        raise ArchError(f"[sharing_levels] names {sorted(shared_lists)}, "
                        f"not the levels {list(LEVELS)}")

    levels = {}
    for lvl in LEVELS:
        layers = [_parse_layer(line) for line in section(f"seg_{lvl}")]
        if num_classes is not None:
            layers = [replace(sp, out_channels=num_classes)
                      if sp.name == "sconv3" else sp for sp in layers]
        shared = shared_lists[lvl]
        if not set(shared) <= trunk_names:
            raise ArchError(f"{lvl}: shared layers "
                            f"{sorted(set(shared) - trunk_names)} are not in "
                            "the depth decoder")
        levels[lvl] = SharingLevel(shared=shared, specific=tuple(layers))
    tables = DecoderTables(trunk=trunk, levels=levels,
                           encoder_channels=encoder_channels,
                           encoder_params=encoder_params)
    for lvl in LEVELS:
        _walk(tables, lvl, dict.fromkeys(_ENCODER_STRIDES, 1))
    return tables


def _encoder_channels(tables: DecoderTables, encoder: str) -> dict[str, int]:
    if encoder not in tables.encoder_channels:
        raise ArchError(f"unknown encoder {encoder!r}")
    return tables.encoder_channels[encoder]


_Row = tuple[LayerSpec, str, int, Fraction]


def _walk(tables: DecoderTables, level: str,
          channels: dict[str, int]) -> list[_Row]:
    """Each trunk layer, then each of the level's segmentation-specific
    layers, as (layer, part, parameters, stride); part is "shared", "depth"
    or "seg", and ``channels`` holds the encoder features' widths."""
    if level not in tables.levels:
        raise ArchError(f"unknown sharing level {level!r}")
    lv = tables.levels[level]
    channels = dict(channels)
    strides = {name: Fraction(s) for name, s in _ENCODER_STRIDES.items()}
    parts = [(layer, "shared" if layer.name in lv.shared else "depth")
             for layer in tables.trunk]
    parts += [(layer, "seg") for layer in lv.specific]
    depth_only = {layer.name for layer, part in parts if part == "depth"}
    walk = []
    for layer, part in parts:
        n_in, landed = 0, set()
        for src, factor in layer.inputs:
            if src not in strides:
                raise ArchError(f"{level}/{layer.name}: input {src!r} not "
                                "defined earlier")
            if part != "depth" and src in depth_only:
                raise ArchError(f"{level}/{layer.name}: input {src!r} is not "
                                "shared at this level")
            n_in += channels[src]
            landed.add(strides[src] / factor)
        if len(landed) != 1:
            raise ArchError(f"{level}/{layer.name}: inputs must land at one "
                            f"stride, got {[str(s) for s in sorted(landed)]}")
        channels[layer.name] = layer.out_channels
        strides[layer.name] = landed.pop()
        walk.append((layer, part, param_count(layer, n_in),
                     strides[layer.name]))
    return walk


def _totals(walk: list[_Row]) -> tuple[int, int]:
    """(shared, segmentation-specific) parameters of a walk."""
    return (sum(n for _, part, n, _ in walk if part == "shared"),
            sum(n for _, part, n, _ in walk if part == "seg"))


def branch_param_totals(tables: DecoderTables, level: str,
                        encoder: str) -> tuple[int, int]:
    """(shared decoder parameters, segmentation-specific parameters) for a
    sharing level and encoder."""
    return _totals(_walk(tables, level, _encoder_channels(tables, encoder)))


def output_shapes(tables: DecoderTables, level: str, encoder: str,
                  input_hw: tuple[int, int]) -> dict[str, tuple[int, int, int]]:
    """Per-layer (H, W, C) for the trunk plus the level's specific layers."""
    h, w = input_hw
    if h <= 0 or w <= 0:
        raise ArchError("input height and width must be positive")
    if h % 32 or w % 32:
        raise ArchError("input height and width must be divisible by 32")
    channels = _encoder_channels(tables, encoder)
    shapes = {name: (h // s, w // s, channels[name])
              for name, s in _ENCODER_STRIDES.items()}
    for layer, _, _, stride in _walk(tables, level, channels):
        shapes[layer.name] = (int(h / stride), int(w / stride),
                              layer.out_channels)
    return shapes


def report(tables: DecoderTables, level: str, encoder: str,
           input_hw: tuple[int, int] = (192, 640)) -> str:
    """Human-readable shape/parameter summary used by the CLI."""
    walk = _walk(tables, level, _encoder_channels(tables, encoder))
    shapes = output_shapes(tables, level, encoder, input_hw)
    lines = [f"level {level}  encoder {encoder}  input "
             f"{input_hw[0]}x{input_hw[1]}"]
    for layer, part, n, _ in walk:
        hh, ww, cc = shapes[layer.name]
        lines.append(f"  {part:6s} {layer.name:9s} {hh:4d}x{ww:<4d}x{cc:<4d} "
                     f"params {n:>9d}")
    shared_total, specific_total = _totals(walk)
    lines.append(f"  encoder params          {tables.encoder_params[encoder]}")
    lines.append(f"  shared decoder params   {shared_total}")
    lines.append(f"  seg-specific params     {specific_total}")
    return "\n".join(lines)
