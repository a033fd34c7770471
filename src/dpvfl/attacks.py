"""Adversarial evaluation: feature inversion and shadow-model membership
inference against released artifacts.

Both attacks operate strictly on what a victim actually exposes: released
(post-pipeline) embeddings for inversion, final prediction confidence
vectors for membership inference. Victim internals enter only through the
callables supplied by the caller, so the same harness runs against
unprotected, noise-only, and fully adjusted victims.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import AttackConfig, TrainingSection
from .errors import ArgumentError
from .neural import DenseNet, cross_entropy_softmax, sgd_step, squared_error
from .numerics import Rng

logger = logging.getLogger(__name__)

# Rows per decoder SGD step.
DECODER_BATCH = 32


@dataclass(frozen=True)
class AttackReport:
    kind: str                  # "inversion" | "membership_inference"
    victim: str                # victim configuration tag
    metric: float              # inversion: per-feature MSE; MI: accuracy
    trials: int
    failed_trials: int
    seed: int
    details: dict = field(default_factory=dict)


@dataclass
class _Decoder:
    """A fitted decoder plus the attacker-side input standardization."""

    net: DenseNet
    mean: np.ndarray
    std: np.ndarray

    def reconstruct(self, released: np.ndarray) -> np.ndarray:
        return self.net.forward((released - self.mean) / self.std)


def _fit_decoder(
    release_fn,
    attacker_features: np.ndarray,
    decoder_dims: list[int],
    config: AttackConfig,
    rng: Rng,
) -> _Decoder | None:
    """Train one decoder on (released embedding, raw feature) pairs.

    The attacker standardizes observed embeddings with statistics from a
    calibration query, so training stays stable whatever the noise scale.
    Returns None when the fit still diverges (non-finite loss), which
    callers count as a failed trial.
    """
    decoder = DenseNet.create(
        decoder_dims, ["tanh"] * (len(decoder_dims) - 2) + ["identity"],
        rng.split("decoder-init"),
    )
    calibration = release_fn(attacker_features, rng.split("calibrate"))
    mean = calibration.mean(axis=0)
    std = np.maximum(calibration.std(axis=0), 1e-9)
    n = attacker_features.shape[0]
    batch = min(DECODER_BATCH, n)
    sgd = TrainingSection(
        learning_rate=config.decoder_lr, batch_size=max(batch, 2), epochs=1, weight_decay=0.0
    )
    order_rng = rng.split("order")
    for epoch in range(config.decoder_epochs):
        # Unlimited query access: re-query each epoch so the decoder sees
        # fresh noise draws and learns the conditional mean.
        released = (release_fn(attacker_features, rng.split("query", epoch)) - mean) / std
        order = order_rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            if rows.size < 2:
                continue
            pred = decoder.forward(released[rows])
            loss, grad = squared_error(pred, attacker_features[rows])
            if not math.isfinite(loss):
                logger.warning("decoder fit diverged at epoch %d", epoch)
                return None
            grads, _ = decoder.backward(grad)
            sgd_step(decoder, grads, sgd)
    return _Decoder(net=decoder, mean=mean, std=std)


def inversion_attack(
    release_fn,
    extractor_dims: list[int],
    attacker_features: np.ndarray,
    holdout_features: np.ndarray,
    config: AttackConfig,
    rng: Rng,
    victim_tag: str = "victim",
) -> AttackReport:
    """Train a mirror-architecture decoder and report reconstruction MSE.

    ``release_fn(x, rng)`` must return the victim's released embeddings for
    raw features ``x``. The decoder reverses the extractor's layer widths,
    unless ``config.decoder_hidden`` names its hidden widths (an empty list
    also mirrors the extractor).
    The metric is the mean per-feature squared error reconstructing the
    victim's held-out rows from their released embeddings.
    """
    attacker_features = np.asarray(attacker_features, dtype=np.float64)
    holdout_features = np.asarray(holdout_features, dtype=np.float64)
    if attacker_features.size == 0:
        raise ArgumentError("inversion needs a non-empty attacker dataset")
    if config.trials < 1:
        raise ArgumentError("need at least one trial")
    if config.decoder_hidden:
        decoder_dims = [extractor_dims[-1], *config.decoder_hidden, extractor_dims[0]]
    else:
        decoder_dims = list(reversed(extractor_dims))

    errors = []
    failed = 0
    for trial in range(config.trials):
        trial_rng = rng.split("trial", trial)
        decoder = _fit_decoder(
            release_fn, attacker_features, decoder_dims, config, trial_rng
        )
        if decoder is None:
            failed += 1
            continue
        released = release_fn(holdout_features, trial_rng.split("holdout"))
        recon = decoder.reconstruct(released)
        errors.append(float(np.mean((recon - holdout_features) ** 2)))
    metric = float(np.mean(errors)) if errors else float("nan")
    return AttackReport(
        kind="inversion",
        victim=victim_tag,
        metric=metric,
        trials=config.trials,
        failed_trials=failed,
        seed=rng.seed,
        details={"decoder_dims": decoder_dims, "per_trial_mse": errors},
    )


def _confidence_features(probs: np.ndarray, sort: bool = True) -> np.ndarray:
    """Attack features from a victim observation (sorted descending by default)."""
    arr = np.asarray(probs, dtype=np.float64)
    return -np.sort(-arr, axis=1) if sort else arr.copy()


def membership_inference(
    victim_conf_fn,
    member_inputs,
    nonmember_inputs,
    shadow_factory,
    config: AttackConfig,
    rng: Rng,
    victim_tag: str = "victim",
) -> AttackReport:
    """Shadow-model membership inference against final predictions.

    ``shadow_factory(i, rng)`` must return ``(conf_fn, in_inputs, out_inputs)``
    for the i-th shadow: a model mimicking the victim plus inputs it did and
    did not train on. Confidence vectors from all shadows train a single
    hidden-layer member/non-member classifier, which is then scored on the
    true victim's balanced member/non-member sets.
    """
    if config.shadows < 2:
        raise ArgumentError(f"need at least 2 shadow models, got {config.shadows}")
    # Sorting makes prediction vectors class-agnostic; the embedding-level
    # variant keeps raw coordinates.
    sort_features = config.level != "embedding"

    features, labels = [], []
    for i in range(config.shadows):
        conf_fn, in_inputs, out_inputs = shadow_factory(i, rng.split("shadow", i))
        for inputs, is_member in ((in_inputs, 1), (out_inputs, 0)):
            probs = conf_fn(inputs, rng.split("shadow-query", i, is_member))
            features.append(_confidence_features(probs, sort_features))
            labels.append(np.full(probs.shape[0], is_member, dtype=np.int64))
    x = np.vstack(features)
    y = np.concatenate(labels)

    attack_net = DenseNet.create(
        [x.shape[1], config.attack_hidden, 2], ["relu", "identity"],
        rng.split("attack-init"),
    )
    sgd = TrainingSection(
        learning_rate=config.attack_lr, batch_size=max(2, min(64, x.shape[0])), epochs=1,
        weight_decay=0.0,
    )
    order_rng = rng.split("attack-order")
    for _ in range(config.attack_epochs):
        order = order_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], sgd.batch_size):
            rows = order[start:start + sgd.batch_size]
            if rows.size < 2:
                continue
            loss, grad = cross_entropy_softmax(attack_net.forward(x[rows]), y[rows])
            grads, _ = attack_net.backward(grad)
            sgd_step(attack_net, grads, sgd)

    member_probs = victim_conf_fn(member_inputs, rng.split("victim-members"))
    nonmember_probs = victim_conf_fn(nonmember_inputs, rng.split("victim-nonmembers"))
    if member_probs.shape[0] != nonmember_probs.shape[0]:
        raise ArgumentError(
            f"evaluation set must be balanced: {member_probs.shape[0]} members "
            f"vs {nonmember_probs.shape[0]} non-members"
        )
    eval_x = np.vstack([
        _confidence_features(member_probs, sort_features),
        _confidence_features(nonmember_probs, sort_features),
    ])
    eval_y = np.concatenate([
        np.ones(member_probs.shape[0], dtype=np.int64),
        np.zeros(nonmember_probs.shape[0], dtype=np.int64),
    ])
    preds = np.argmax(attack_net.forward(eval_x), axis=1)
    accuracy = float(np.mean(preds == eval_y))
    return AttackReport(
        kind="membership_inference",
        victim=victim_tag,
        metric=accuracy,
        trials=config.shadows,
        failed_trials=0,
        seed=rng.seed,
        details={
            "members": int(member_probs.shape[0]),
            "nonmembers": int(nonmember_probs.shape[0]),
            "shadow_samples": int(x.shape[0]),
        },
    )
