"""Experiment configuration: a flat INI-style file with sections.

Every hyperparameter has a default; reference-protocol values (learning
rate 1e-3, batch size 20, alpha 0.8, half split, 10 trials) are the
defaults where they make sense at desk scale, and the desk-scale
overrides used by the bundled experiments live in the same file format.
Unknown sections or keys are rejected so typos fail loudly. The
[occlusion] and [train] sections are occsim.OcclusionConfig and
model.TrainConfig themselves, so each of their settings has one field,
one default and one check.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InfeasibleGeometry
from .model import TrainConfig
from .occsim import OcclusionConfig, check_patch_fits, check_target_fits


@dataclass
class DatasetSection:
    root: str = ""  # empty -> synthetic dataset
    identities: int = 20
    per_identity: int = 10
    image_width: int = 32
    image_height: int = 64
    split_fraction: float = 0.5


@dataclass
class EvalSection:
    shots: tuple = (1, 2, 5)
    trials: int = 10


@dataclass
class RunSection:
    seed: int = 7
    out: str = "out"
    use_os: bool = True
    use_obc: bool = True


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    occlusion: OcclusionConfig = field(default_factory=OcclusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    run: RunSection = field(default_factory=RunSection)


_SECTIONS = ("dataset", "occlusion", "train", "eval", "run")


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
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    if kind is tuple:
        if not raw:
            raise ValueError("expected one or more comma-separated integers")
        return tuple(int(v.strip()) for v in raw.split(","))
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse an INI file into an ExperimentConfig, validating every key."""
    # values are literal (a '%' is a '%'); no header can name the empty
    # section, so a [DEFAULT] section is read as an unknown section instead
    # of as defaults for every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as e:
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
    try:
        _validate(cfg)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Check every section, and on synthetic images whether both simulator
    configs fit, so a bad value fails here, before any work; errors name
    the section and key."""
    ds, ev = cfg.dataset, cfg.eval
    if not 0.0 < ds.split_fraction < 1.0:
        raise ValueError(f"[dataset] split_fraction: must be in (0, 1), got {ds.split_fraction}")
    if not ds.root and min(ds.identities, ds.per_identity) < 2:
        raise ValueError(
            "[dataset] identities and per_identity: synthetic data needs 2 or more of each, "
            f"got {ds.identities} and {ds.per_identity}"
        )
    if not ds.root and ds.image_width < 3:
        raise ValueError(f"[dataset] image_width: synthetic images need 3 or more, got {ds.image_width}")
    if min(ev.shots) < 1:
        raise ValueError(f"[eval] shots: need counts >= 1, got {ev.shots}")
    if not ds.root and max(ev.shots) > ds.per_identity:
        raise ValueError(f"[eval] shots: {ev.shots} above the synthetic per_identity {ds.per_identity}")
    if len(set(ev.shots)) < len(ev.shots):
        raise ValueError(f"[eval] shots: a count is repeated in {ev.shots}")
    if ev.trials < 1:
        raise ValueError(f"[eval] trials: must be >= 1, got {ev.trials}")
    for section in ("train", "occlusion"):
        try:
            getattr(cfg, section).check()
        except ValueError as e:
            raise ValueError(f"[{section}] {e}") from e
    if ds.root:
        return
    occ = cfg.occlusion
    for name, sim in (("", occ), ("probe_band: ", occ.probe_config())):
        try:  # the synthetic image size is known now
            check_target_fits(sim, ds.image_width, ds.image_height)
            check_patch_fits(sim, ds.image_width, ds.image_height)
        except InfeasibleGeometry as e:
            raise ValueError(f"[occlusion] {name}{e}") from e


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
