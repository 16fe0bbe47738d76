"""Decoder architecture tables with shape and parameter-count calculators.

The tables below describe the depth-branch decoder plus the segmentation
branch at the five decoder-sharing levels l0 (encoder only) through l4
(whole decoder trunk shared). Nothing here instantiates a network; the
module only answers "what shape comes out of each layer" and "how many
parameters live where".

One walk over a level's layers, each trunk layer and then each
segmentation-specific layer, gives its part (shared with the segmentation
branch, depth only or segmentation only), its parameter count and its stride
(input size / output size, from the encoder strides and the upsample
factors). ``load_tables`` runs the walk once per level, so tables that
contradict their graph fail at load, and ``branch_param_totals``,
``output_shapes`` and ``report`` read it. A shared layer must be a depth
decoder layer, and a shared or segmentation layer may read only layers
shared at its level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

LEVELS = ("l0", "l1", "l2", "l3", "l4")
ENCODERS = ("resnet18", "resnet50")

# after the stem / four residual stages, relative to the input resolution
_ENCODER_STRIDES = {"econv1": 2, "econv2": 4, "econv3": 8, "econv4": 16,
                    "econv5": 32}

# each encoder's parameter count and the channel widths of econv1-econv5
_ENCODERS = {"resnet18": (11689512, (64, 64, 128, 256, 512)),
             "resnet50": (25557032, (64, 256, 512, 1024, 2048))}


class ArchError(ValueError):
    """An invalid layer or query, or tables that contradict their graph."""


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


def _conv(name: str, inputs: tuple[tuple[str, int], ...], out_channels: int,
          activation: str = "elu") -> LayerSpec:
    """A 3x3 conv without BatchNorm. Each input is a (source layer, N) pair:
    the source is upsampled N times before use, and the inputs are
    channel-concatenated."""
    return LayerSpec(name, inputs, 3, out_channels, False, activation)


# The depth decoder. An upsample conv (upconv*, upsconv*) includes its 2x
# upsample, so every layer's inputs land at one resolution.
_TRUNK = (
    _conv("upconv5", (("econv5", 2),), 256),
    _conv("iconv5", (("upconv5", 1), ("econv4", 1)), 256),
    _conv("upconv4", (("iconv5", 2),), 128),
    _conv("iconv4", (("upconv4", 1), ("econv3", 1)), 128),
    _conv("disp4", (("iconv4", 1),), 1, "sigmoid"),
    _conv("upconv3", (("iconv4", 2),), 64),
    _conv("iconv3", (("upconv3", 1), ("econv2", 1)), 64),
    _conv("disp3", (("iconv3", 1),), 1, "sigmoid"),
    _conv("upconv2", (("iconv3", 2),), 32),
    _conv("iconv2", (("upconv2", 1), ("econv1", 1)), 32),
    _conv("disp2", (("iconv2", 1),), 1, "sigmoid"),
    _conv("upconv1", (("iconv2", 2),), 16),
    _conv("iconv1", (("upconv1", 1),), 16),
    _conv("disp1", (("iconv1", 1),), 1, "sigmoid"),
)

# the segmentation branch at l0, which shares no decoder layer
_L0_BRANCH = (
    _conv("upsconv5", (("econv5", 2),), 256),
    _conv("isconv5", (("upsconv5", 1), ("econv4", 1)), 256),
    _conv("upsconv4", (("isconv5", 2),), 128),
    _conv("isconv4", (("upsconv4", 1), ("econv3", 1)), 128),
    _conv("upsconv3", (("isconv4", 2),), 64),
    _conv("isconv3", (("upsconv3", 1), ("econv2", 1)), 64),
    _conv("upsconv2", (("isconv3", 2),), 32),
    _conv("isconv2", (("upsconv2", 1), ("econv1", 1)), 32),
    _conv("upsconv1", (("isconv2", 2),), 16),
    _conv("isconv1", (("upsconv1", 1),), 16),
)


def _head(f5: str, f4: str, f3: str, f2: str,
          f1: str) -> tuple[LayerSpec, ...]:
    """sconv1-3, on the upsample convs f5 (at stride 16) to f1 (at full
    resolution), each brought to full resolution. sconv3 is stored with its
    literal output width of 1; segmentation over K classes overrides it at
    load time."""
    return (LayerSpec("sconv1", ((f5, 16), (f4, 8), (f3, 4), (f2, 2), (f1, 1)),
                      3, 128, True, "relu"),
            LayerSpec("sconv2", (("sconv1", 1),), 3, 128, True, "relu"),
            LayerSpec("sconv3", (("sconv2", 1),), 1, 1, False, "softmax"))


def _after(fork: str, own: str) -> tuple[LayerSpec, ...]:
    """The l0 branch after ``own``, its copy of the trunk conv ``fork``,
    reading ``fork`` in its place."""
    names = [layer.name for layer in _L0_BRANCH]
    return tuple(replace(layer, inputs=tuple((fork if src == own else src, n)
                                             for src, n in layer.inputs))
                 for layer in _L0_BRANCH[names.index(own) + 1:])


# At levels l1-l3 the branch forks after an upsample conv of the trunk. That
# conv is the last entry of the level's shared list, and the branch reads it
# by name. A shared or branch layer may read only layers shared at its level.
# This boundary reproduces the reported size differences between consecutive
# sharing levels.
_LEVELS = {
    "l0": SharingLevel((), _L0_BRANCH + _head(
        "upsconv5", "upsconv4", "upsconv3", "upsconv2", "upsconv1")),
    "l1": SharingLevel(
        ("upconv5", "iconv5", "upconv4"),
        _after("upconv4", "upsconv4")
        + _head("upconv5", "upconv4", "upsconv3", "upsconv2", "upsconv1")),
    "l2": SharingLevel(
        ("upconv5", "iconv5", "upconv4", "iconv4", "upconv3"),
        _after("upconv3", "upsconv3")
        + _head("upconv5", "upconv4", "upconv3", "upsconv2", "upsconv1")),
    "l3": SharingLevel(
        ("upconv5", "iconv5", "upconv4", "iconv4", "upconv3", "iconv3",
         "upconv2"),
        _after("upconv2", "upsconv2")
        + _head("upconv5", "upconv4", "upconv3", "upconv2", "upsconv1")),
    "l4": SharingLevel(
        ("upconv5", "iconv5", "upconv4", "iconv4", "upconv3", "iconv3",
         "upconv2", "iconv2", "upconv1", "iconv1"),
        _head("upconv5", "upconv4", "upconv3", "upconv2", "upconv1")),
}


def load_tables(num_classes: int | None = None) -> DecoderTables:
    """The decoder tables, in fresh dicts, walked at every level.
    ``num_classes`` overrides the literal output width of sconv3 (the tables
    store 1)."""
    levels = dict(_LEVELS)
    if num_classes is not None:
        levels = {lvl: replace(lv, specific=tuple(
            replace(sp, out_channels=num_classes) if sp.name == "sconv3"
            else sp for sp in lv.specific)) for lvl, lv in levels.items()}
    tables = DecoderTables(
        trunk=_TRUNK, levels=levels,
        encoder_channels={enc: dict(zip(_ENCODER_STRIDES, widths, strict=True))
                          for enc, (_, widths) in _ENCODERS.items()},
        encoder_params={enc: n for enc, (n, _) in _ENCODERS.items()})
    for lvl in LEVELS:
        _walk(tables, lvl, dict.fromkeys(_ENCODER_STRIDES, 1))
    return tables


def _encoder_channels(tables: DecoderTables, encoder: str) -> dict[str, int]:
    if encoder not in tables.encoder_channels:
        raise ArchError(f"unknown encoder {encoder!r}")
    channels = tables.encoder_channels[encoder]
    missing = sorted(set(_ENCODER_STRIDES) - set(channels))
    if missing:
        raise ArchError(f"encoder {encoder}: no channels for {missing}")
    return channels


_Row = tuple[LayerSpec, str, int, Fraction]


def _walk(tables: DecoderTables, level: str,
          channels: dict[str, int]) -> list[_Row]:
    """Each trunk layer, then each of the level's segmentation-specific
    layers, as (layer, part, parameters, stride); part is "shared", "depth"
    or "seg", and ``channels`` holds the encoder features' widths."""
    if level not in tables.levels:
        raise ArchError(f"unknown sharing level {level!r}")
    lv = tables.levels[level]
    unknown = sorted(set(lv.shared) - {layer.name for layer in tables.trunk})
    if unknown:
        raise ArchError(f"{level}: shared layers {unknown} are not in the "
                        "depth decoder")
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
