"""Round orchestration: passive-party release pipelines, active-party
aggregation, gradient exchange, and local updates.

Each communication round runs, in order:

1. every passive party embeds its mini-batch and shares its :func:`release`:
   clipped to row norm ``t``, (optionally) rescaled by the estimate of its
   local output disparity, and noised;
2. the active party concatenates the shared embeddings in ascending party
   id order, optimizes the supervised loss, updates its head, and returns
   each party's embedding gradient;
3. every passive party derives weak cluster labels from its returned
   gradients (optional), evaluates the auxiliary losses on its private
   pre-noise (clipped, then rescaled) embeddings, and takes an SGD step.

Only post-noise embeddings and gradients ever cross a party boundary; the
message channel keeps a log so tests can audit that. A training opens one
channel per round, so it holds one round's messages at a time; a caller that
passes its own channel to :func:`run_round` keeps everything it was sent.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .adaptive import (
    MIN_RETAINED_ROWS,
    FuzzyAssignment,
    SensitivityEstimate,
    contrastive_loss,
    estimate_local_sensitivity,
    fcm,
    kl_surrogate_loss,
    purity,
    rescale,
    rescale_factor,
)
from .config import AdaptiveSection, TrainingSection
from .data import DatasetSplits, VerticalDataset
from .errors import ArgumentError, ProtocolError
from .mechanism import PrivacyParams, add_noise, clip_norm, clip_norm_vjp
from .neural import DenseNet, cross_entropy_softmax, sgd_step
# Unused here, but perfbench traces numerics.pairwise_distances through this name.
from .numerics import Rng, pairwise_distances  # noqa: F401

logger = logging.getLogger(__name__)

EMBEDDING_UP = "embedding_up"
GRADIENT_DOWN = "gradient_down"


@dataclass(frozen=True)
class Message:
    """A released embedding batch or its gradient, as a read-only float64 copy."""

    kind: str
    party_id: int
    batch_index: int
    payload: np.ndarray

    def __post_init__(self):
        payload = np.array(self.payload, dtype=np.float64)
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)


class MessageChannel:
    """In-process exchange with the same schema a socket transport would carry.

    Each (kind, party, round) holds at most one pending message; everything
    sent stays in ``log`` so a test spy can audit boundary hygiene. The log
    lives as long as the channel: :func:`train` and ``measure_stage_times``
    open one channel per round, while a channel a caller keeps across rounds
    keeps every message it was sent.
    """

    def __init__(self):
        self._pending: dict[tuple[str, int, int], Message] = {}
        self.log: list[Message] = []

    def send(self, message: Message) -> None:
        key = (message.kind, message.party_id, message.batch_index)
        if key in self._pending:
            raise ProtocolError(
                f"a {message.kind} message for party {message.party_id} "
                f"in round {message.batch_index} is still pending"
            )
        self._pending[key] = message
        self.log.append(message)

    def receive(self, kind: str, party_id: int, batch_index: int) -> Message:
        message = self._pending.pop((kind, party_id, batch_index), None)
        if message is None:
            raise ProtocolError(
                f"no {kind} message from/for party {party_id} in round {batch_index}"
            )
        return message


class StageTimer:
    """Wall-clock accumulator for the pipeline stage breakdown."""

    BASE = "base"
    NOISE = "noise"
    RESCALE = "rescale"
    DIST_ADJUST = "dist_adjust"

    def __init__(self):
        self.seconds = dict.fromkeys((self.BASE, self.NOISE, self.RESCALE, self.DIST_ADJUST), 0.0)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def _stage(timer: StageTimer | None, name: str):
    return timer.stage(name) if timer is not None else nullcontext()


def _check_finite(values, batch_index: int, party: str, what: str) -> None:
    """Fail a diverged round loudly, naming the round and the party."""
    if not np.isfinite(values).all():
        where = f"round {batch_index}" if batch_index >= 0 else "outside a round"
        raise ProtocolError(f"{where}, {party}: non-finite values in {what}; training diverged")


@contextmanager
def _in_epoch(epoch: int):
    """Prefix the epoch to any ProtocolError raised inside."""
    try:
        yield
    except ProtocolError as exc:
        raise ProtocolError(f"epoch {epoch}, {exc}") from exc


@dataclass
class ReleaseTrace:
    """The private buffers of one release.

    ``adjusted`` is the pre-noise state the auxiliary losses see: the
    clipped batch times ``factor``, the (optional) rescale step.
    """

    raw: np.ndarray
    estimate: SensitivityEstimate | None
    factor: float
    adjusted: np.ndarray
    released: np.ndarray


def release(
    raw: np.ndarray,
    privacy: PrivacyParams | None,
    adaptive: AdaptiveSection,
    rng: Rng,
    *,
    timer: StageTimer | None = None,
) -> ReleaseTrace:
    """Clip each row of ``raw`` to ``t``, estimate and rescale if
    ``adaptive.rescale`` is on (for two rows or more), then add noise from
    ``rng`` at the record's ``noise_std``. The timer buckets are base,
    rescale and noise. ``privacy=None`` releases ``raw``.
    """
    if privacy is None:
        return ReleaseTrace(raw=raw, estimate=None, factor=1.0, adjusted=raw, released=raw)
    t = privacy.clip_threshold
    with _stage(timer, StageTimer.BASE):
        clipped = clip_norm(raw, t)
    estimate, factor, adjusted = None, 1.0, clipped
    if adaptive.rescale and clipped.shape[0] >= 2:
        with _stage(timer, StageTimer.RESCALE):
            estimate = estimate_local_sensitivity(clipped, adaptive.p2, t)
            factor = rescale_factor(estimate, t)
            adjusted = rescale(clipped, estimate, t)
    with _stage(timer, StageTimer.NOISE):
        released = add_noise(adjusted, privacy, rng)
    return ReleaseTrace(
        raw=raw, estimate=estimate, factor=factor, adjusted=adjusted, released=released,
    )


@dataclass
class PartyRoundStats:
    delta_local: float | None = None
    purity: float | None = None
    assignment: FuzzyAssignment | None = None
    kl_loss: float | None = None
    cl_loss: float | None = None


class PassiveParty:
    """Feature-holding participant: extractor + release pipeline + local update.

    Holds its raw feature slice and never sees labels. ``privacy=None``
    models the unprotected baseline that shares raw embeddings. FCM splits
    the returned gradients into ``n_clusters`` weak clusters, starting from
    the centers of the party's last non-degenerate round; the first round,
    and a round after a degenerate one, draw them from the round's stream.
    """

    def __init__(
        self,
        party_id: int,
        features: np.ndarray,
        extractor: DenseNet,
        config: TrainingSection,
        adaptive: AdaptiveSection,
        n_clusters: int,
        rng: Rng,
        privacy: PrivacyParams | None = None,
    ):
        if privacy is None and (adaptive.rescale or adaptive.dist_adjust):
            raise ArgumentError("adaptive adjustments require the privacy mechanism")
        self.party_id = int(party_id)
        self.features = features
        self.extractor = extractor
        self.config = config
        self.privacy = privacy
        self.adaptive = adaptive
        self.n_clusters = n_clusters
        self._noise_rng = rng.split("noise", self.party_id)
        self._fcm_rng = rng.split("fcm", self.party_id)
        # FCM centers of the last round, in gradient space; None to redraw.
        self._fcm_centers: np.ndarray | None = None
        # The round whose update is still to come, and its release.
        self._pending: tuple[int, ReleaseTrace] | None = None

    def compute_release(
        self,
        x: np.ndarray,
        noise_rng: Rng,
        batch_index: int = -1,
        timer: StageTimer | None = None,
    ) -> ReleaseTrace:
        """Run the extractor forward, then :func:`release` on its output."""
        with _stage(timer, StageTimer.BASE):
            raw = self.extractor.forward(x)
        _check_finite(raw, batch_index, f"party {self.party_id}", "the extractor output")
        return release(raw, self.privacy, self.adaptive, noise_rng, timer=timer)

    def embed_and_share(
        self,
        indices: np.ndarray,
        batch_index: int,
        channel: MessageChannel,
        timer: StageTimer | None = None,
    ) -> None:
        x = self.features[indices]
        trace = self.compute_release(x, self._noise_rng, batch_index, timer)
        self._pending = (batch_index, trace)
        channel.send(Message(EMBEDDING_UP, self.party_id, batch_index, trace.released))

    def receive_and_update(
        self,
        batch_index: int,
        channel: MessageChannel,
        timer: StageTimer | None = None,
    ) -> PartyRoundStats:
        """Consume the returned gradient, add auxiliary losses, step the extractor."""
        if self._pending is None or self._pending[0] != batch_index:
            raise ProtocolError(
                f"party {self.party_id} has no pending batch {batch_index}"
            )
        trace = self._pending[1]
        message = channel.receive(GRADIENT_DOWN, self.party_id, batch_index)
        grad = message.payload
        _check_finite(grad, batch_index, f"party {self.party_id}", "the returned gradient")
        stats = PartyRoundStats(
            delta_local=None if trace.estimate is None else trace.estimate.delta_local
        )

        # The auxiliary losses see the pre-noise adjusted (clipped, then
        # rescaled) batch; their gradients live in the same space as the
        # returned task gradient, and the whole sum maps back to clipped
        # space by the round's constant rescale factor (noise is additive).
        adjusted_grad = grad

        if self.adaptive.dist_adjust and grad.shape[0] >= self.n_clusters:
            with _stage(timer, StageTimer.DIST_ADJUST):
                assignment, centers = fcm(
                    grad,
                    self.n_clusters,
                    rng=self._fcm_rng.split("round", batch_index),
                    init=self._fcm_centers,
                )
                self._fcm_centers = None if assignment.degenerate else centers
                assignment = assignment.filtered(self.adaptive.confidence_threshold)
                cl_loss, cl_grad = contrastive_loss(
                    trace.adjusted, assignment, self.config.beta
                )
            adjusted_grad = adjusted_grad + cl_grad
            stats.cl_loss = cl_loss
            stats.assignment = assignment

        if self.adaptive.rescale and self.config.alpha != 0.0 and trace.adjusted.shape[0] >= 4:
            with _stage(timer, StageTimer.RESCALE):
                kl_loss, kl_grad = kl_surrogate_loss(trace.adjusted, self.config.alpha)
            adjusted_grad = adjusted_grad + kl_grad
            stats.kl_loss = kl_loss

        clipped_grad = trace.factor * adjusted_grad

        with _stage(timer, StageTimer.BASE):
            if self.privacy is not None:
                embedding_grad = clip_norm_vjp(
                    trace.raw, self.privacy.clip_threshold, clipped_grad
                )
            else:
                embedding_grad = clipped_grad
            grads, _ = self.extractor.backward(embedding_grad)
            sgd_step(self.extractor, grads, self.config)
        self._pending = None
        return stats


class ActiveParty:
    """Label-holding coordinator: concatenates embeddings, trains the head."""

    def __init__(
        self,
        head: DenseNet,
        labels: np.ndarray,
        config: TrainingSection,
    ):
        self.head = head
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config

    def aggregate_and_step(
        self,
        passive_ids: list[int],
        indices: np.ndarray,
        batch_index: int,
        channel: MessageChannel,
        timer: StageTimer | None = None,
    ) -> tuple[float, float]:
        """Lines: concatenate, optimize, exchange per-party gradients."""
        messages = [channel.receive(EMBEDDING_UP, pid, batch_index) for pid in passive_ids]
        with _stage(timer, StageTimer.BASE):
            concat = np.hstack([m.payload for m in messages])
            if concat.shape[1] != self.head.input_dim:
                raise ProtocolError(
                    f"concatenated width {concat.shape[1]} does not match the "
                    f"head input {self.head.input_dim} in round {batch_index}"
                )
            y = self.labels[indices]
            logits = self.head.forward(concat)
            _check_finite(logits, batch_index, "the active party", "the head logits")
            loss, logit_grad = cross_entropy_softmax(logits, y)
            accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
            grads, input_grad = self.head.backward(logit_grad)
            sgd_step(self.head, grads, self.config)
            offset = 0
            for message in messages:
                width = message.payload.shape[1]
                channel.send(Message(
                    GRADIENT_DOWN, message.party_id, batch_index,
                    input_grad[:, offset:offset + width],
                ))
                offset += width
        return loss, accuracy


@dataclass
class Parties:
    """The passive parties, kept in ascending party id order, and the active party.

    That order is the head's input layout: training, evaluation and victim
    queries all concatenate the released embeddings in ``passives`` order.
    """

    passives: tuple[PassiveParty, ...]
    active: ActiveParty

    def __post_init__(self):
        ids = [p.party_id for p in self.passives]
        if len(set(ids)) != len(ids):
            raise ArgumentError(f"duplicate passive party ids: {ids}")
        self.passives = tuple(sorted(self.passives, key=lambda p: p.party_id))


def sample_aligned_batch(total: int, batch_size: int, rng: Rng) -> np.ndarray:
    """Uniform without-replacement indices, broadcast to all parties."""
    if batch_size > total:
        raise ArgumentError(f"cannot sample {batch_size} of {total} rows")
    return np.asarray(rng.choice(total, size=batch_size, replace=False), dtype=np.int64)


@dataclass
class RoundMetrics:
    round_index: int
    loss: float
    accuracy: float
    party_stats: dict[int, PartyRoundStats] = field(default_factory=dict)


def run_round(
    parties: Parties,
    indices: np.ndarray,
    batch_index: int,
    channel: MessageChannel,
    timer: StageTimer | None = None,
) -> RoundMetrics:
    """One full communication round over an aligned mini-batch. The active party's
    labels score each party's confidence-filtered weak clusters by purity, untimed."""
    for party in parties.passives:
        party.embed_and_share(indices, batch_index, channel, timer)
    loss, accuracy = parties.active.aggregate_and_step(
        [p.party_id for p in parties.passives], indices, batch_index, channel, timer
    )
    labels = parties.active.labels[indices]
    stats = {}
    for party in parties.passives:
        party_stats = party.receive_and_update(batch_index, channel, timer=timer)
        kept = party_stats.assignment
        if kept is not None and not kept.degenerate and kept.n_retained > 0:
            party_stats.purity = purity(kept, labels, use_mask=True)
        stats[party.party_id] = party_stats
    return RoundMetrics(
        round_index=batch_index, loss=loss, accuracy=accuracy, party_stats=stats
    )


def evaluate(
    parties: Parties,
    dataset: VerticalDataset,
    rng: Rng,
    repeats: int = 1,
) -> float:
    """Accuracy of the deployed joint model on a dataset split: the head
    sees the released embeddings, as it would in deployment.

    ``repeats`` averages the accuracy over several release draws for a
    lower-variance estimate of the same quantity. The repeats share one
    pre-noise (forward, clip, rescale) pass per batch and party and only
    redraw the noise, draw ``i`` from ``rng.split("repeat", i)``. A single
    draw (``repeats == 1``) uses ``rng`` itself.

    Evaluation runs the trained extractors themselves, so it refuses to run
    while a party has a round pending: the forward pass would overwrite the
    activations that round's update still needs.
    """
    n = dataset.n_rows
    if n == 0:
        raise ArgumentError("cannot evaluate an empty split")
    for party in parties.passives:
        if party._pending is not None:
            raise ProtocolError(
                f"party {party.party_id} has round {party._pending[0]} pending; "
                "evaluate only between rounds"
            )
    step = parties.active.config.batch_size
    streams = [rng]
    if repeats > 1:
        streams = [rng.split("repeat", i) for i in range(repeats)]
    head = parties.active.head.copy()
    correct = [0] * len(streams)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        released = [[] for _ in streams]
        for party in parties.passives:
            x = dataset.party_features[party.party_id][rows]
            trace = party.compute_release(x, streams[0].split("eval", party.party_id, start))
            released[0].append(trace.released)
            for draws, stream in zip(released[1:], streams[1:]):
                if party.privacy is not None:
                    noise_rng = stream.split("eval", party.party_id, start)
                    draws.append(add_noise(trace.adjusted, party.privacy, noise_rng))
                else:
                    draws.append(trace.released)
        for i, draws in enumerate(released):
            logits = head.forward(np.hstack(draws))
            correct[i] += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[rows]))
    return float(np.mean([c / n for c in correct]))


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float | None
    mean_delta: float | None
    mean_purity: float | None


@dataclass
class TrainingHistory:
    epochs: list[EpochMetrics] = field(default_factory=list)
    rounds: int = 0


def _mean_of_party_means(values: dict[int, list]) -> float | None:
    means = [float(np.mean(v)) for v in values.values() if v]
    return sum(means) / len(means) if means else None


def train(
    parties: Parties,
    data: DatasetSplits,
    rng: Rng,
    *,
    eval_repeats: int = 1,
    evaluate_each_epoch: bool = True,
    on_round=None,
) -> TrainingHistory:
    """Epoch x mini-batch loop of communication rounds.

    Zero configured epochs returns an empty history without touching any
    party. Every round gets a fresh :class:`MessageChannel`, so only one
    round's embeddings and gradients are held at a time and memory does not
    grow with the number of rounds. ``on_round`` (epoch, RoundMetrics)
    observes every round for logging. ``evaluate_each_epoch=False`` skips
    the per-epoch test evaluation and records ``test_accuracy=None``; the
    trained parties are the same, because evaluation changes no weight and
    only splits RNG streams. A round with a non-finite value in an extractor output, the
    head logits or a returned gradient raises ``ProtocolError`` naming the
    epoch, round and party. Party-rounds whose confidence filter kept too
    few rows for a contrastive term are counted in one warning at the end.
    """
    config = parties.active.config
    n_train = data.train.n_rows
    if config.batch_size > n_train:
        raise ArgumentError(
            f"batch size {config.batch_size} exceeds the {n_train} training rows"
        )
    rounds_per_epoch = n_train // config.batch_size
    batch_rng = rng.split("batch")
    history = TrainingHistory()
    batch_index = 0
    clustered = skipped = 0
    for epoch in range(config.epochs):
        with _in_epoch(epoch):
            losses, accuracies = [], []
            deltas: dict[int, list] = {p.party_id: [] for p in parties.passives}
            purities: dict[int, list] = {p.party_id: [] for p in parties.passives}
            for _ in range(rounds_per_epoch):
                indices = sample_aligned_batch(n_train, config.batch_size, batch_rng)
                metrics = run_round(parties, indices, batch_index, MessageChannel())
                if on_round is not None:
                    on_round(epoch, metrics)
                losses.append(metrics.loss)
                accuracies.append(metrics.accuracy)
                for pid, stats in metrics.party_stats.items():
                    if stats.delta_local is not None:
                        deltas[pid].append(stats.delta_local)
                    if stats.purity is not None:
                        purities[pid].append(stats.purity)
                    if stats.assignment is not None:
                        clustered += 1
                        skipped += stats.assignment.n_retained < MIN_RETAINED_ROWS
                batch_index += 1
            test_accuracy = None
            if evaluate_each_epoch:
                test_accuracy = evaluate(
                    parties, data.test, rng.split("eval-epoch", epoch), repeats=eval_repeats,
                )
            history.epochs.append(EpochMetrics(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                train_accuracy=float(np.mean(accuracies)),
                test_accuracy=test_accuracy,
                mean_delta=_mean_of_party_means(deltas),
                mean_purity=_mean_of_party_means(purities),
            ))
    history.rounds = batch_index
    if skipped:
        logger.warning(
            "contrastive adjustment skipped in %d of %d party-rounds: "
            "fewer than %d rows retained", skipped, clustered, MIN_RETAINED_ROWS,
        )
    return history
