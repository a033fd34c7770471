"""The benchmark's workloads as ``dpvfl`` command lines, and their outputs.

A job is one pass of a workload: the ``cli.main`` calls below, run one
after another in a fresh directory. Every call of a job uses the workload
seed, so repeated jobs of one run must write byte-identical artefacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

UTILITY = "configs/utility.json"
ATTACK = "configs/attack_victim.json"
VANILLA = ["--toggle-rescale", "false", "--toggle-distadj", "false"]
VANILLA_SEEDS = 5

WHY = {
    "train_full": "the paper's utility run with rescale and dist_adjust on, "
                  "where the O(n^2) adjustments do most of the work",
    "train_vanilla": "the same run with both adjustments off over five seeds, "
                     "so adjustment-only changes must not move it",
    "attack_seed": "three victims plus the attack suite: tiny batches, "
                   "twelve shadow trainings, checkpoints and release queries",
}


def config_paths(workload: str, root: Path, inputs: Path) -> list[Path]:
    """Config files the workload reads, the first one used by its first call."""
    if workload == "attack_seed":
        return [inputs / "unprotected.json", root / ATTACK]
    return [root / UTILITY]


def prepare_inputs(workload: str, root: Path, inputs: Path) -> None:
    """Write the config copy with privacy off that the unprotected victim needs."""
    if workload != "attack_seed":
        return
    inputs.mkdir(parents=True, exist_ok=True)
    raw = json.loads((root / ATTACK).read_text(encoding="utf-8"))
    raw["privacy"]["enabled"] = False
    (inputs / "unprotected.json").write_text(json.dumps(raw, indent=2), encoding="utf-8")


def calls(workload: str, seed: int, root: Path, inputs: Path, job: Path) -> list[dict]:
    """The job's ``cli.main`` argument lists, with the artefacts each must write."""
    trained = ["epochs.csv", "events.log"]
    if workload == "train_full":
        return [_call("train", root / UTILITY, seed, job / "train", trained)]
    if workload == "train_vanilla":
        return [
            _call("train", root / UTILITY, s, job / f"seed{s}", trained, VANILLA)
            for s in range(seed, seed + VANILLA_SEEDS)
        ]
    if workload == "attack_seed":
        victims = job / "victims"
        return [
            _call("train", inputs / "unprotected.json", seed, victims / "unprotected",
                  trained, VANILLA),
            _call("train", root / ATTACK, seed, victims / "vanilla", trained, VANILLA),
            _call("train", root / ATTACK, seed, victims / "full", trained),
            _call("attack", root / ATTACK, seed, job / "attack", ["attacks.csv"],
                  ["--victims", str(victims)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _call(command: str, config: Path, seed: int, out: Path, artefacts: list[str],
          extra: tuple | list = ()) -> dict:
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out), *extra]
    return {"argv": argv, "out": str(out), "artefacts": artefacts}


def read_outputs(job_calls: list[dict], job: Path) -> dict:
    """sha256 of each call's artefacts, plus the quality figures the job produced.

    A training's accuracy is its mean test accuracy over the last quarter of
    its epochs: the attack victims' final-epoch accuracy alone, on 120 test
    rows, varies about twice as much from seed to seed.
    """
    digests, accuracies, attack = [], [], {}
    for call in job_calls:
        out = Path(call["out"])
        digests.append({
            str((out / name).relative_to(job)): _sha256(out / name)
            for name in call["artefacts"]
        })
        if call["argv"][0] == "train" and (out / "epochs.csv").exists():
            with (out / "epochs.csv").open(encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            tail = rows[-math.ceil(len(rows) / 4):]
            accuracies.append(
                sum(float(r["test_accuracy"]) for r in tail) / len(tail) if tail else math.nan)
        if call["argv"][0] == "attack" and (out / "attacks.csv").exists():
            attack = _attack_outputs(out)
    return {"digests": digests, "test_accuracy": accuracies, "attack": attack}


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def _attack_outputs(out: Path) -> dict:
    with (out / "attacks.csv").open(encoding="utf-8") as handle:
        rows = {row["victim"]: row for row in csv.DictReader(handle)}

    def value(victim: str, column: str) -> float:
        cell = rows.get(victim, {}).get(column) or "nan"
        return float(cell)

    reports = json.loads((out / "summary.json").read_text(encoding="utf-8"))["reports"]
    inversions = [r for r in reports if r["kind"] == "inversion"]
    return {
        "mi_gap": value("unprotected", "mi_accuracy") - value("full", "mi_accuracy"),
        "inversion_ratio": _ratio(value("full", "inversion_mse"),
                                  value("unprotected", "inversion_mse")),
        "inversion_trials": sum(r["trials"] for r in inversions),
        "inversion_failed": sum(r["failed_trials"] for r in inversions),
        "victims": sorted(rows),
    }
