"""Experiment configuration: JSON schema, strict parsing, resolution.

Configs are plain JSON objects. Parsing is strict: any key outside the
documented schema aborts with a :class:`ConfigError` naming the offending
dotted path, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError


def _check_keys(obj, path: str):
    if not isinstance(obj, dict):
        return
    allowed = _ALLOWED.get(path)
    if allowed is None:
        return
    for key, value in obj.items():
        if key not in allowed:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {dotted}")
        child = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_keys(value, child)
        elif isinstance(value, list) and child in _ALLOWED:
            for item in value:
                _check_keys(item, child)


@dataclass
class DatasetConfig:
    kind: str = "synthetic"
    # synthetic
    classes: int = 4
    per_class: int = 250
    dim: int = 20
    spread: float = 0.6
    # csv / idx
    path: str | None = None
    columns: list[dict] = field(default_factory=list)
    images: str | None = None
    labels: str | None = None
    halves: list[str] | None = None
    limit: int | None = None
    ranges: list[list[int]] | None = None
    # shared
    parties: int = 2
    test_fraction: float = 0.2


@dataclass
class ModelConfig:
    embedding_dim: int = 16
    extractor_hidden: list[int] = field(default_factory=lambda: [32])
    head_hidden: list[int] = field(default_factory=list)
    activation: str = "tanh"


@dataclass
class TrainingSection:
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 5
    weight_decay: float = 1e-4
    alpha: float = 0.1
    beta: float = 1.0


@dataclass
class PrivacyConfig:
    enabled: bool = True
    epsilon: float = 0.5
    delta: float = 1e-2
    clip_threshold: float = 1.0
    p1: float = 1.0
    allow_large_epsilon: bool = False
    sigma_override: float | None = None


@dataclass
class AdaptiveSection:
    rescale: bool = True
    dist_adjust: bool = True
    p2: float = 0.9987
    confidence_threshold: float = 0.8


@dataclass
class EvaluationConfig:
    with_noise: bool = True
    repeats: int = 1


@dataclass
class AttackConfig:
    decoder_epochs: int = 60
    decoder_lr: float = 0.05
    decoder_hidden: list[int] | None = None
    shadows: int = 4
    shadow_epochs: int | None = None
    eval_per_side: int = 64
    attack_epochs: int = 200
    attack_lr: float = 0.05
    attack_hidden: int = 16
    level: str = "prediction"
    target_party: int = 0
    trials: int = 1


@dataclass
class AblateConfig:
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])


@dataclass
class TimingConfig:
    rounds: int = 30
    batch_size: int | None = None


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str | None = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingSection = field(default_factory=TrainingSection)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    adaptive: AdaptiveSection = field(default_factory=AdaptiveSection)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    ablate: AblateConfig = field(default_factory=AblateConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "training": TrainingSection,
    "privacy": PrivacyConfig,
    "adaptive": AdaptiveSection,
    "evaluation": EvaluationConfig,
    "attack": AttackConfig,
    "ablate": AblateConfig,
    "timing": TimingConfig,
}

# Each section accepts exactly its dataclass's fields; the column entries
# of a CSV dataset are plain dicts with no dataclass of their own.
_ALLOWED = {
    "": {f.name for f in fields(ExperimentConfig)},
    **{name: {f.name for f in fields(section)} for name, section in _SECTIONS.items()},
    "dataset.columns": {"name", "kind"},
}


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, "")
    kwargs = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            try:
                kwargs[key] = _SECTIONS[key](**value)
            except TypeError as exc:
                raise ConfigError(f"bad {key} section: {exc}") from exc
        else:
            kwargs[key] = value
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
