"""Run-directory layout and deterministic serialization.

Every run directory contains the resolved config, a per-epoch CSV, a JSON
summary, a round-level event log, and model checkpoints. CSV floats use
``repr`` (shortest round-trip) so identical runs are byte-identical; wall
times appear only in ``summary.json`` and the timing table. A run directory
appears only once its command succeeds; see ``run_directory``.
"""

from __future__ import annotations

import csv
import json
import shutil
import uuid
from contextlib import contextmanager
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .experiment import RunResult, build_dataset, build_parties
from .neural import load_checkpoint, save_checkpoint
from .protocol import Parties, TrainingHistory

CONFIG_FILE = "resolved_config.json"
EPOCHS_FILE = "epochs.csv"
SUMMARY_FILE = "summary.json"
EVENTS_FILE = "events.log"
CHECKPOINT_DIR = "checkpoints"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def run_directory(path, force: bool = False):
    """Yield a hidden sibling of ``path`` to write a run into; it becomes ``path`` on success.

    An existing non-empty ``path`` is refused unless ``force``; a forced run
    replaces it only when the block completes. On any exception the sibling
    is deleted and ``path`` is left as it was.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ConfigError(f"run directory {path} is not a directory")
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"run directory {path} already exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    # In the same directory, so the final rename stays on one filesystem.
    staging = path.parent / f".{path.name}.{uuid.uuid4().hex}"
    staging.mkdir()
    try:
        yield staging
        if force:
            shutil.rmtree(path, ignore_errors=True)
        staging.rename(path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def write_config(run_dir: Path, cfg: ExperimentConfig) -> None:
    (run_dir / CONFIG_FILE).write_text(cfg.to_json() + "\n", encoding="utf-8")


def write_epochs_csv(run_dir: Path, history: TrainingHistory) -> Path:
    return write_table_csv(run_dir / EPOCHS_FILE, [
        "epoch", "train_loss", "train_accuracy", "test_accuracy", "mean_delta", "mean_purity",
    ], [[em.epoch, em.train_loss, em.train_accuracy, em.test_accuracy, em.mean_delta,
         em.mean_purity] for em in history.epochs])


class EventLog:
    """Round-level structured log, one sorted-key JSON object per line."""

    def __init__(self, run_dir: Path):
        self._path = Path(run_dir) / EVENTS_FILE
        self._handle = self._path.open("w", encoding="utf-8")

    def on_round(self, epoch: int, metrics) -> None:
        record = {
            "epoch": epoch,
            "round": metrics.round_index,
            "loss": metrics.loss,
            "accuracy": metrics.accuracy,
            "delta": {
                str(pid): s.delta_local
                for pid, s in metrics.party_stats.items() if s.delta_local is not None
            },
            "purity": {
                str(pid): s.purity
                for pid, s in metrics.party_stats.items() if s.purity is not None
            },
        }
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.close()


def write_summary(run_dir: Path, payload: dict) -> None:
    (run_dir / SUMMARY_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def training_summary(result: RunResult, runtime_seconds: float) -> dict:
    cfg = result.config
    history = result.history
    final = history.epochs[-1] if history.epochs else None
    privacy = None
    passives = result.parties.passives
    if passives and passives[0].privacy is not None:
        p = passives[0].privacy
        override = p.noise_sigma
        note = "per-round budget; no cross-round composition is claimed"
        if override is not None and override < p.sigma:
            note = (f"sigma_override {override} is below the calibrated sigma {p.sigma}: "
                    "the stated (epsilon, delta) does not hold for this run")
        privacy = {
            "epsilon": p.epsilon,
            "delta": p.delta,
            "clip_threshold": p.clip_threshold,
            "sigma": p.sigma,
            "delta_prime": p.delta / (cfg.privacy.p1 * cfg.adaptive.p2),
            "sigma_override": override,
            "note": note,
        }
    return {
        "dataset": {
            "kind": cfg.dataset.kind,
            "train_rows": result.data.train.n_rows,
            "test_rows": result.data.test.n_rows,
            "parties": result.data.train.n_parties,
            "n_classes": result.data.train.n_classes,
        },
        "privacy": privacy,
        "adaptive": {
            "rescale": cfg.adaptive.rescale,
            "dist_adjust": cfg.adaptive.dist_adjust,
        },
        "rounds": history.rounds,
        "final": None if final is None else {
            "train_loss": final.train_loss,
            "train_accuracy": final.train_accuracy,
            "test_accuracy": final.test_accuracy,
        },
        "seed": cfg.seed,
        "runtime_seconds": runtime_seconds,
    }


def save_checkpoints(run_dir: Path, parties: Parties) -> None:
    cp = run_dir / CHECKPOINT_DIR
    cp.mkdir(exist_ok=True)
    for party in parties.passives:
        save_checkpoint(party.extractor, cp / f"party_{party.party_id}.bin")
    save_checkpoint(parties.active.head, cp / "head.bin")


def load_run(run_dir) -> RunResult:
    """Rebuild a finished run from its directory (config, summary, checkpoints).

    The dataset is regenerated deterministically from the resolved config;
    network weights come from the checkpoints.
    """
    run_dir = Path(run_dir)
    for name in (CONFIG_FILE, SUMMARY_FILE):
        if not (run_dir / name).exists():
            raise ConfigError(f"{run_dir}: missing {name}")
    cfg = load_config(run_dir / CONFIG_FILE)
    data = build_dataset(cfg)
    parties = build_parties(cfg, data)
    cp = run_dir / CHECKPOINT_DIR
    for party in parties.passives:
        party.extractor = load_checkpoint(cp / f"party_{party.party_id}.bin")
    parties.active.head = load_checkpoint(cp / "head.bin")
    return RunResult(config=cfg, data=data, parties=parties, history=TrainingHistory())


def write_table_csv(path, header: list[str], rows: list[list]) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    return path
