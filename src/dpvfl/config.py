"""Experiment configuration: JSON schema, strict parsing, resolution.

Configs are plain JSON objects. Parsing is strict: any key outside the
documented schema, a value of the wrong type, or a value a section's own
checks refuse aborts with a :class:`ConfigError` naming the offending
dotted path, which the CLI maps to exit code 2. The section dataclasses
are the only settings records: the protocol, the networks, the attack
harness and the data builders read them directly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

# Checkpoints store each layer's activation as its index in this tuple.
ACTIVATIONS = ("identity", "relu", "tanh", "softmax")

NUMERIC, CATEGORICAL, LABEL = "numeric", "categorical", "label"


def _require(ok: bool, dotted: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{dotted} {rule}, got {value!r}")


def _require_seed(seed: int, dotted: str) -> None:
    # numerics.Rng takes 64-bit unsigned seeds.
    _require(0 <= seed < 2**64, dotted, "must lie in [0, 2**64)", seed)


@dataclass(frozen=True)
class ColumnSpec:
    """One CSV column of ``dataset.columns``: its header name and its kind."""

    name: str
    kind: str

    def __post_init__(self):
        _require(self.name != "", "dataset.columns name", "must be non-empty", self.name)
        _require(self.kind in (NUMERIC, CATEGORICAL, LABEL),
                 f"dataset.columns kind of {self.name!r}",
                 "must be numeric, categorical or label", self.kind)


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
    columns: list[ColumnSpec] = field(default_factory=list)
    images: str | None = None
    labels: str | None = None
    halves: list[str] | None = None
    limit: int | None = None
    ranges: list[list[int]] | None = None
    # shared
    parties: int = 2
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.kind == "synthetic":
            _require(self.classes >= 2, "dataset.classes", "must be at least 2", self.classes)
            # One basis-vector mean per class.
            _require(self.dim >= self.classes, "dataset.dim",
                     f"must be at least dataset.classes ({self.classes})", self.dim)
            _require(self.per_class >= 2, "dataset.per_class", "must be at least 2",
                     self.per_class)
            _require(self.spread >= 0, "dataset.spread", "must be non-negative", self.spread)
        elif self.kind == "csv":
            if not self.path or not self.columns:
                raise ConfigError("csv dataset needs 'path' and 'columns'")
            names = [c.name for c in self.columns]
            for i, name in enumerate(names):
                _require(name not in names[:i], f"dataset.columns[{i}].name",
                         "must differ from every earlier column name", name)
            n_labels = sum(c.kind == LABEL for c in self.columns)
            _require(n_labels == 1, "dataset.columns", "must hold exactly one label column",
                     n_labels)
        elif self.kind == "idx":
            if not self.images or not self.labels:
                raise ConfigError("idx dataset needs 'images' and 'labels'")
        else:
            raise ConfigError(
                f"unknown dataset kind {self.kind!r} (dataset.kind takes synthetic, csv or idx)"
            )
        # halves cut images in two; limit keeps a file's first rows.
        for key, kinds in (("halves", ("idx",)), ("limit", ("csv", "idx"))):
            if getattr(self, key) is not None and self.kind not in kinds:
                raise ConfigError(f"dataset.{key} does not apply to a {self.kind} dataset")
        if self.limit is not None:
            _require(self.limit >= 1, "dataset.limit", "must be at least 1", self.limit)
        if self.halves is not None:
            _require(len(self.halves) == 2
                     and set(self.halves) in ({"left", "right"}, {"top", "bottom"}),
                     "dataset.halves", "must be left and right or top and bottom", self.halves)
        if self.kind == "csv":
            _require(len(self.columns) > 1, "dataset.columns",
                     "must hold a numeric or categorical column besides the label",
                     [c.name for c in self.columns])
        _require(self.parties >= 1, "dataset.parties", "must be at least 1", self.parties)
        # halves and ranges each fix the party count; it must be the one
        # dataset.parties states.
        if self.halves is not None:
            _require(self.parties == 2, "dataset.parties", "must be 2 with dataset.halves",
                     self.parties)
        if self.ranges is not None:
            for i, pair in enumerate(self.ranges):
                _require(len(pair) == 2, f"dataset.ranges[{i}]", "must be a [start, stop] pair",
                         pair)
            _require(len(self.ranges) == self.parties, "dataset.ranges",
                     f"must hold one range per party (dataset.parties is {self.parties})",
                     self.ranges)
        _require(0 < self.test_fraction < 1, "dataset.test_fraction", "must lie in (0, 1)",
                 self.test_fraction)


@dataclass
class ModelConfig:
    embedding_dim: int = 16
    extractor_hidden: list[int] = field(default_factory=lambda: [32])
    head_hidden: list[int] = field(default_factory=list)
    activation: str = "tanh"

    def __post_init__(self):
        _require(self.embedding_dim >= 1, "model.embedding_dim", "must be at least 1",
                 self.embedding_dim)
        for key in ("extractor_hidden", "head_hidden"):
            for i, width in enumerate(getattr(self, key)):
                _require(width >= 1, f"model.{key}[{i}]", "must be at least 1", width)
        _require(self.activation in ACTIVATIONS, "model.activation",
                 f"must be one of {', '.join(ACTIVATIONS)}", self.activation)
        # DenseNet takes softmax only as a network's last activation.
        if self.activation == "softmax":
            _require(not self.extractor_hidden and not self.head_hidden, "model.activation",
                     "may be softmax only when extractor_hidden and head_hidden are empty",
                     self.activation)


@dataclass
class TrainingSection:
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 5
    weight_decay: float = 1e-4
    alpha: float = 0.1  # weight of the distance-distribution (KL surrogate) loss
    beta: float = 1.0   # weight of the contrastive adjustment loss

    def __post_init__(self):
        _require(self.learning_rate > 0, "training.learning_rate", "must be positive",
                 self.learning_rate)
        _require(self.weight_decay >= 0, "training.weight_decay", "must be non-negative",
                 self.weight_decay)
        _require(self.batch_size >= 2, "training.batch_size", "must be at least 2",
                 self.batch_size)
        _require(self.epochs >= 0, "training.epochs", "must be non-negative", self.epochs)


@dataclass
class PrivacyConfig:
    enabled: bool = True
    epsilon: float = 0.5
    delta: float = 1e-2
    clip_threshold: float = 1.0
    p1: float = 1.0
    allow_large_epsilon: bool = False
    sigma_override: float | None = None

    def __post_init__(self):
        _require(self.epsilon > 0, "privacy.epsilon", "must be positive", self.epsilon)
        _require(0 < self.delta < 1, "privacy.delta", "must lie in (0, 1)", self.delta)
        _require(self.clip_threshold > 0, "privacy.clip_threshold", "must be positive",
                 self.clip_threshold)
        _require(0 < self.p1 <= 1, "privacy.p1", "must lie in (0, 1]", self.p1)
        if self.sigma_override is not None:
            _require(self.sigma_override >= 0, "privacy.sigma_override", "must be non-negative",
                     self.sigma_override)


@dataclass
class AdaptiveSection:
    rescale: bool = True
    dist_adjust: bool = True
    p2: float = 0.9987
    confidence_threshold: float = 0.8

    def __post_init__(self):
        _require(0 < self.p2 < 1, "adaptive.p2", "must lie in (0, 1)", self.p2)
        _require(0 <= self.confidence_threshold <= 1, "adaptive.confidence_threshold",
                 "must lie in [0, 1]", self.confidence_threshold)


@dataclass
class EvaluationConfig:
    repeats: int = 1

    def __post_init__(self):
        _require(self.repeats >= 1, "evaluation.repeats", "must be at least 1", self.repeats)


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

    def __post_init__(self):
        # These feed the decoder's, the attack model's and the shadows' training.
        _require(self.decoder_lr > 0, "attack.decoder_lr", "must be positive", self.decoder_lr)
        _require(self.attack_lr > 0, "attack.attack_lr", "must be positive", self.attack_lr)
        if self.shadow_epochs is not None:
            _require(self.shadow_epochs >= 0, "attack.shadow_epochs", "must be non-negative",
                     self.shadow_epochs)
        _require(self.level in ("prediction", "embedding"), "attack.level",
                 "must be prediction or embedding", self.level)
        # The upper bound depends on the victims; the attack command checks it.
        _require(self.target_party >= 0, "attack.target_party", "must be non-negative",
                 self.target_party)
        _require(self.shadows >= 2, "attack.shadows", "must be at least 2", self.shadows)
        for key in ("trials", "eval_per_side", "attack_hidden"):
            value = getattr(self, key)
            _require(value >= 1, f"attack.{key}", "must be at least 1", value)
        for i, width in enumerate(self.decoder_hidden or []):
            _require(width >= 1, f"attack.decoder_hidden[{i}]", "must be at least 1", width)


@dataclass
class AblateConfig:
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])

    def __post_init__(self):
        for i, seed in enumerate(self.seeds):
            _require_seed(seed, f"ablate.seeds[{i}]")
            _require(seed not in self.seeds[:i], f"ablate.seeds[{i}]", "repeats an earlier seed",
                     seed)


@dataclass
class TimingConfig:
    rounds: int = 30
    batch_size: int | None = None

    def __post_init__(self):
        _require(self.rounds >= 1, "timing.rounds", "must be at least 1", self.rounds)
        if self.batch_size is not None:
            _require(self.batch_size >= 2, "timing.batch_size", "must be at least 2",
                     self.batch_size)


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

    def __post_init__(self):
        _require_seed(self.seed, "seed")
        # delta' = delta / (p1 * p2) is the failure probability the summary
        # reports for the quantile-based rescale.
        if self.privacy.enabled:
            relaxed = self.privacy.delta / (self.privacy.p1 * self.adaptive.p2)
            _require(relaxed < 1, "privacy.delta / (privacy.p1 * adaptive.p2)",
                     "must stay below 1", relaxed)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# The records a config may nest, by the name their annotations use.
_RECORDS = {cls.__name__: cls for cls in (
    ColumnSpec, DatasetConfig, ModelConfig, TrainingSection, PrivacyConfig, AdaptiveSection,
    EvaluationConfig, AttackConfig, AblateConfig, TimingConfig,
)}

_KINDS = {
    "bool": (bool, "a boolean"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
}


def _checked(value, annotation: str, dotted: str):
    """``value`` checked against an annotation ``T`` or ``T | None``.

    ``T`` is a scalar, a record of ``_RECORDS``, which ``_record`` builds
    from a JSON object, or ``list[U]``, whose items are checked against
    ``U`` under ``dotted[i]``. ``int`` takes integral floats (as ints) but
    not booleans, ``float`` takes ints, and ``bool`` takes only booleans.
    The annotations are strings: this module defers their evaluation.
    """
    options = annotation.split(" | ")
    if value is None and "None" in options:
        return value
    kind_name = options[0]
    if kind_name in _RECORDS:
        kind, name = dict, "an object"
    elif kind_name.startswith("list["):
        kind, name = list, "a list"
    else:
        kind, name = _KINDS[kind_name]
    if isinstance(value, bool):
        accepted = kind is bool
    elif kind is int:
        accepted = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        value = int(value) if accepted else value
    elif kind is float:
        accepted = isinstance(value, (int, float))
    else:
        accepted = isinstance(value, kind)
    if not accepted:
        expected = name + (" or null" if len(options) > 1 else "")
        raise ConfigError(f"{dotted} must be {expected}, got {value!r}")
    if kind is dict:
        return _record(_RECORDS[kind_name], value, dotted)
    if kind is list:
        item = kind_name[len("list["):-1]
        value = [_checked(v, item, f"{dotted}[{i}]") for i, v in enumerate(value)]
    return value


def _record(cls, raw: dict, path: str):
    """``cls`` built from the JSON object ``raw`` found at ``path``.

    Every key must name a field of ``cls``, every field without a default
    must be given, and each value must match its field's annotation; the
    record's own ``__post_init__`` then checks the values.
    """
    known = cls.__dataclass_fields__  # a dataclass's fields, by name
    kwargs = {}
    for key, value in raw.items():
        dotted = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key: {dotted}")
        kwargs[key] = _checked(value, known[key].type, dotted)
    for name, f in known.items():
        if name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key: {path}.{name}")
    return cls(**kwargs)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _record(ExperimentConfig, raw, "")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
