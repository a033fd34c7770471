"""Config-driven experiment runner.

Subcommands: ``train`` (one run), ``ablate`` (the 4-row toggle grid over
seeds), ``attack`` (inversion + membership inference against trained
victims), ``timing`` (stage wall-time breakdown). Exit codes: 0 success,
1 runtime failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import CheckpointError, ConfigError, VflError
from .experiment import measure_stage_times, run_attack_suite, run_training
from . import runs

OUT_ROOT_ENV = "DPVFL_OUT"

logger = logging.getLogger(__name__)

ABLATION_GRID = (
    ("vanilla", False, False),
    ("vanilla+rescale", True, False),
    ("vanilla+distadj", False, True),
    ("full", True, True),
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpvfl",
        description="Differentially private vertical federated learning "
                    "with utility-recovering embedding adjustments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_ROOT_ENV} or ./runs)")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")
        return p

    def toggles(p):
        # ablate sets both adjustments per cell, and attack reads only cfg.attack.
        p.add_argument("--toggle-rescale", type=_parse_bool, default=None,
                       metavar="BOOL", help="override adaptive.rescale")
        p.add_argument("--toggle-distadj", type=_parse_bool, default=None,
                       metavar="BOOL", help="override adaptive.dist_adjust")

    toggles(common(sub.add_parser("train", help="train one configuration")))
    common(sub.add_parser("ablate", help="run the vanilla/+R/+D/full grid"))
    attack = common(sub.add_parser("attack", help="attack trained victim runs"))
    attack.add_argument("--victims", required=True,
                        help="directory of victim run directories (one per tag)")
    toggles(common(sub.add_parser("timing", help="measure the stage time breakdown")))
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _resolve_toggled_config(args) -> ExperimentConfig:
    """The config with the ``--toggle-*`` overrides of ``train`` and ``timing``; the
    adjustments act on the clipped batch, which only the mechanism makes."""
    cfg = _resolve_config(args)
    for key, flag, value in (("rescale", "--toggle-rescale", args.toggle_rescale),
                             ("dist_adjust", "--toggle-distadj", args.toggle_distadj)):
        if value is not None:
            cfg = replace(cfg, adaptive=replace(cfg.adaptive, **{key: value}))
        if not cfg.privacy.enabled and getattr(cfg.adaptive, key):
            raise ConfigError(f"adaptive.{key} needs privacy.enabled; set privacy.enabled "
                              f"to true or pass {flag} false")
    return cfg


@contextmanager
def _open_run_dir(args, cfg: ExperimentConfig):
    """The run directory to write into, with the resolved config in it; see runs.run_directory."""
    default = Path(os.environ.get(OUT_ROOT_ENV, "runs"), f"{args.command}-seed{cfg.seed}")
    path = Path(args.out or cfg.out_dir or default)
    with runs.run_directory(path, force=args.force) as run_dir:
        runs.write_config(run_dir, cfg)
        yield run_dir
    print(f"run directory: {path}")


def cmd_train(args) -> int:
    cfg = _resolve_toggled_config(args)
    with _open_run_dir(args, cfg) as run_dir:
        log = runs.EventLog(run_dir)
        started = time.perf_counter()
        try:
            result = run_training(cfg, on_round=log.on_round)
        finally:
            log.close()
        runtime = time.perf_counter() - started
        runs.write_epochs_csv(run_dir, result.history)
        runs.save_checkpoints(run_dir, result.parties)
        runs.write_summary(run_dir, runs.training_summary(result, runtime))
        final = result.history.epochs[-1] if result.history.epochs else None
        if final is not None:
            print(f"train: test_accuracy={final.test_accuracy:.4f} "
                  f"loss={final.train_loss:.4f} rounds={result.history.rounds}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    if cfg.training.epochs < 1:
        # Each cell reports its final epoch's test accuracy.
        raise ConfigError("ablate needs training.epochs of at least 1")
    if not cfg.privacy.enabled:
        # Its +rescale, +distadj and full cells add the adjustments to the mechanism.
        raise ConfigError("privacy.enabled must be true for ablate, got False")
    seeds = cfg.ablate.seeds or [cfg.seed]
    rows = []
    cell_accuracies: dict[str, list[float]] = {}
    with _open_run_dir(args, cfg) as run_dir:
        for method, rescale_on, distadj_on in ABLATION_GRID:
            cell_cfg = replace(
                cfg,
                adaptive=replace(cfg.adaptive, rescale=rescale_on, dist_adjust=distadj_on),
            )
            accuracies = []
            for seed in seeds:
                cell_dir = run_dir / f"{method.replace('+', '_')}-seed{seed}"
                cell_dir.mkdir()
                seeded = replace(cell_cfg, seed=seed)
                runs.write_config(cell_dir, seeded)
                result = run_training(seeded)
                runs.write_epochs_csv(cell_dir, result.history)
                accuracies.append(result.history.epochs[-1].test_accuracy)
            cell_accuracies[method] = accuracies
            mean = statistics.fmean(accuracies)
            std = statistics.pstdev(accuracies) if len(accuracies) > 1 else 0.0
            rows.append([method, len(seeds), mean, std])
            print(f"ablate: {method:16s} accuracy={mean:.4f} +- {std:.4f}")
        runs.write_table_csv(
            run_dir / "ablation.csv",
            ["method", "seeds", "accuracy_mean", "accuracy_std"],
            rows,
        )
        runs.write_summary(run_dir, {
            "seeds": seeds,
            "cells": cell_accuracies,
        })
    return 0


def cmd_attack(args) -> int:
    cfg = _resolve_config(args)
    with _open_run_dir(args, cfg) as run_dir:
        victims_root = Path(args.victims)
        if not victims_root.is_dir():
            raise ConfigError(f"victims directory not found: {victims_root}")
        # A hidden entry is a run still being written, or one that was cut off.
        victim_dirs = sorted(p for p in victims_root.glob("[!.]*") if p.is_dir())
        if not victim_dirs:
            raise ConfigError(f"no victim run directories under {victims_root}")
        victims = {p.name: runs.load_run(p) for p in victim_dirs}
        target, shadows = cfg.attack.target_party, cfg.attack.shadows
        for tag, run in victims.items():
            parties = run.data.train.n_parties
            if target >= parties:
                raise ConfigError(f"attack.target_party must be below the {parties} passive "
                                  f"parties of victim {tag!r}, got {target}")
            # A file-backed victim's shadows train on every other one of 2 * shadows chunks
            # of its held-out rows; np.array_split leaves the last of them, the smallest,
            # 2 rows or more exactly from 4 * shadows - 1 rows up.
            held_out = run.data.test.n_rows
            if run.config.dataset.kind != "synthetic" and held_out < 4 * shadows - 1:
                raise ConfigError(f"attack.shadows {shadows} needs at least {4 * shadows - 1} "
                                  f"held-out rows of victim {tag!r}, which has {held_out}")
        reports = run_attack_suite(cfg, victims)
        by_victim: dict[str, dict] = {}
        for report in reports:
            by_victim.setdefault(report.victim, {})[report.kind] = report
        rows = []
        for tag in sorted(by_victim):
            # run_attack_suite reports one inversion and one MI result per victim.
            inversion = by_victim[tag]["inversion"].metric
            mi = by_victim[tag]["membership_inference"].metric
            rows.append([tag, mi, inversion])
            print(f"attack: {tag:12s} mi_accuracy={mi:.4f} inversion_mse={inversion:.6f}")
        runs.write_table_csv(
            run_dir / "attacks.csv",
            ["victim", "mi_accuracy", "inversion_mse"],
            rows,
        )
        runs.write_summary(run_dir, {
            "reports": [
                {
                    "kind": r.kind, "victim": r.victim, "metric": r.metric,
                    "trials": r.trials, "failed_trials": r.failed_trials,
                    "seed": r.seed, "details": r.details,
                }
                for r in reports
            ],
        })
    return 0


def cmd_timing(args) -> int:
    cfg = _resolve_toggled_config(args)
    with _open_run_dir(args, cfg) as run_dir:
        seconds = measure_stage_times(cfg)
        total = sum(seconds.values())
        rows = []
        for stage, stage_seconds in seconds.items():
            share = 100.0 * stage_seconds / total if total > 0 else 0.0
            rows.append([stage, stage_seconds * 1000.0, share])
            print(f"timing: {stage:12s} {stage_seconds * 1000.0:10.2f} ms  {share:6.2f}%")
        runs.write_table_csv(
            run_dir / "timing.csv", ["stage", "time_ms", "share_pct"], rows
        )
        runs.write_summary(run_dir, {
            "rounds": cfg.timing.rounds,
            "batch_size": cfg.timing.batch_size or cfg.training.batch_size,
            "seconds": seconds,
        })
    return 0


_COMMANDS = {
    "train": cmd_train,
    "ablate": cmd_ablate,
    "attack": cmd_attack,
    "timing": cmd_timing,
}


def main(argv=None) -> int:
    level = os.environ.get("DPVFL_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: DPVFL_LOG must name a logging level such as DEBUG or INFO, "
              f"got {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Any other failure is a bug, not a bad input: one line on stderr,
        # the traceback only in the DEBUG log.
        logger.debug("unexpected failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
