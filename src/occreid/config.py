"""Experiment configuration: a flat INI-style file with sections.

Every hyperparameter has a default; reference-protocol values (learning
rate 1e-3, batch size 20, alpha 0.8, half split, 10 trials) are the
defaults where they make sense at desk scale, and the desk-scale
overrides used by the bundled experiments live in the same file format.
Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .evaluate import AGGREGATES


@dataclass
class DatasetSection:
    root: str = ""  # empty -> synthetic dataset
    identities: int = 20
    per_identity: int = 10
    image_width: int = 32
    image_height: int = 64
    split_fraction: float = 0.5


@dataclass
class OcclusionSection:
    patch_side: int = 0  # 0 -> image_height // 4
    ratio_lo: float = 0.1
    ratio_hi: float = 0.3
    aspect_lo: float = 0.5
    aspect_hi: float = 2.0
    background_band: float = 0.25
    regenerate_per_epoch: bool = False
    # synthetic eval probes may draw occlusions from a shifted distribution
    # (mimicking real occluders differing from training-time artificial
    # ones); negative values inherit the training-time setting
    probe_ratio_lo: float = -1.0
    probe_ratio_hi: float = -1.0
    probe_aspect_lo: float = -1.0
    probe_aspect_hi: float = -1.0
    probe_band: float = -1.0


@dataclass
class TrainSection:
    alpha: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 20
    iterations: int = 2000
    input_side: int = 32
    resize_side: int = 36
    max_jitter: int = -1  # -1 -> (resize_side - input_side) // 2
    conv_channels: tuple = (8, 16, 32)
    kernel: int = 3
    stride: int = 2
    lr_decay_every: int = 0
    lr_decay_factor: float = 0.1


@dataclass
class EvalSection:
    shots: tuple = (1, 2, 5)
    trials: int = 10
    aggregate: str = "min"


@dataclass
class SaliencySection:
    quantile: float = 0.5


@dataclass
class RunSection:
    seed: int = 7
    out: str = "out"
    use_os: bool = True
    use_obc: bool = True


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    occlusion: OcclusionSection = field(default_factory=OcclusionSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    saliency: SaliencySection = field(default_factory=SaliencySection)
    run: RunSection = field(default_factory=RunSection)


_SECTIONS = {
    "dataset": DatasetSection,
    "occlusion": OcclusionSection,
    "train": TrainSection,
    "eval": EvalSection,
    "saliency": SaliencySection,
    "run": RunSection,
}


def _parse_value(raw: str, template):
    kind = type(template)
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is tuple:
        if not raw:
            return ()
        return tuple(int(v.strip()) for v in raw.split(","))
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse an INI file into an ExperimentConfig, validating every key."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ValueError(f"{path}: {e}") from e
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        target = getattr(cfg, section)
        fields = {f.name: f for f in dataclasses.fields(target)}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ValueError(f"{path}: unknown key '{key}' in [{section}]")
            try:
                setattr(target, key, _parse_value(raw, getattr(target, key)))
            except ValueError as e:
                raise ValueError(f"{path}: [{section}] {key}: {e}") from e
    ev = cfg.eval
    if ev.aggregate not in AGGREGATES:
        raise ValueError(f"{path}: [eval] aggregate: {ev.aggregate!r} is not one of {AGGREGATES}")
    if not ev.shots or min(ev.shots) < 1:
        raise ValueError(f"{path}: [eval] shots: need one or more counts >= 1, got {ev.shots}")
    if ev.trials < 1:
        raise ValueError(f"{path}: [eval] trials: must be >= 1, got {ev.trials}")
    return cfg


def render_config(cfg: ExperimentConfig) -> str:
    """Deterministic INI text of a fully resolved config."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        target = getattr(cfg, section)
        for f in dataclasses.fields(target):
            value = getattr(target, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        lines.append("")
    return "\n".join(lines)


def write_resolved(cfg: ExperimentConfig, out_dir) -> None:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / "config.resolved.ini").write_text(render_config(cfg), encoding="utf-8")
