"""Paired parent/change benchmark runs, written to one BENCH_<label>.json.

    python3 tools/bench_pairs.py --label attack_speedup --parent HEAD~1 --change HEAD \\
        --pairs attack_seed=701-710 --pairs train_full=801-810 \\
        --traced train_full=1041-1044 --tier1 3

Run it from the root of a dpvfl git checkout. Each revision is exported
with ``git archive`` into its own temporary directory, so uncommitted
files take no part. For every seed of a ``--pairs`` workload it runs
``perfbench/run.py --trace 0`` once on each side, alternating which side
goes first (even pair index: parent first), for ``run_seconds`` of
``BENCHMARK.json``. ``--traced`` adds one ``--trace 1`` run per side and
seed, in the same alternating order, and ``--tier1 N`` runs the Tier-1
suite N times per side (``--tier1`` alone: once), alternating in the same
way. Each Tier-1 run records its wall time, counts, slowest tests and the
``PASS/FAIL criterion N: ... [detail]`` line of every acceptance criterion
that printed one, read from the captured output that ``-rP`` shows for
passed tests (and pytest shows for failed ones), so criterion 10's stage
shares land in the record. The record holds each side's
``src/dpvfl/*.py`` line total (what ``wc -l`` counts in the exported
checkout), every run's metrics, artefact sha256s and provenance, each
side's quartiles of the end-to-end metrics of ``BENCHMARK.json``, the
change's wins and losses over the pairs, and each side's mean of every
per-layer metric (``bench.tracing_overhead_pct`` included) over the
traced seeds of a workload. One traced run can land in a fast or slow
spell of a shared machine, so read the means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "-rP"]
CRITERION_LINE = re.compile(r"^(?:PASS|FAIL) criterion (\d+): .*$", re.MULTILINE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=SEEDS",
                        help="seeds as 'a-b' or 'a,b,c'; repeat for more workloads")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD=SEED")
    parser.add_argument("--tier1", type=int, nargs="?", const=1, default=0, metavar="RUNS",
                        help="time the Tier-1 suite RUNS times per side (default 1)")
    parser.add_argument("--title", default="")
    parser.add_argument("--workdir", default=None, help="parent of the temporary checkouts")
    return parser.parse_args(argv)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def workload_seeds(specs: list[str]) -> list[tuple[str, list[int]]]:
    out = []
    for spec in specs:
        workload, _, seeds = spec.partition("=")
        if not seeds:
            raise SystemExit(f"bench_pairs: expected WORKLOAD=SEEDS, got {spec!r}")
        out.append((workload, parse_seeds(seeds)))
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, directory: Path) -> None:
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def src_lines(root: Path) -> int:
    """The total ``wc -l src/dpvfl/*.py`` prints in a checkout: its newline count."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "dpvfl").glob("*.py"))


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; returns its result.json, which it writes in the checkout."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {root} failed:\n{done.stderr}")
    out = root / ".bench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return json.loads(out.read_text(encoding="utf-8"))


def run_record(order: int, side: str, seed: int, result: dict) -> dict:
    jobs = result["jobs"]
    return {
        "order": order, "side": side, "seed": seed,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "problems": result["problems"], "jobs": len(jobs),
        "metrics": result["metrics"],
        "sha256": jobs[0]["digests"],
        "provenance": result["provenance"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles and the change's wins over the pairs."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [sides for sides in by_seed.values() if len(sides) == 2]
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gaps = [c - p if lower else p - c for p, c in zip(values["parent"], values["change"])]
        summary[name] = {
            "parent": parent, "change": change,
            "change_vs_parent_median_pct":
                100.0 * (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "change_wins": sum(gap < 0 for gap in gaps),
            "change_losses": sum(gap > 0 for gap in gaps),
            "pairs": len(pairs),
            "bound": metric["bound"],
        }
    return summary


def layer_means(traced_runs: list[dict], names: list[str]) -> dict:
    """Each side's mean of every named per-layer metric over one workload's traced runs."""
    return {
        side: {name: float(np.mean([run[side]["metrics"][name] for run in traced_runs]))
               for name in names}
        for side in SIDES
    }


def tier1(root: Path) -> dict:
    """Wall time and outcome of the Tier-1 suite, with the slowest tests' durations
    and each acceptance criterion's PASS/FAIL line, keyed by its number."""
    started = time.perf_counter()
    done = subprocess.run(TIER1, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - started
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", tail)}
    durations = {test: float(seconds) for seconds, test in
                 re.findall(r"^([\d.]+)s call\s+(\S+)$", done.stdout, re.MULTILINE)}
    slowest = dict(sorted(durations.items(), key=lambda kv: -kv[1])[:5])
    criteria = {match.group(1): match.group(0) for match in CRITERION_LINE.finditer(done.stdout)}
    return {"wall_s": wall, "returncode": done.returncode, "summary": tail,
            "counts": counts, "slowest_call_s": slowest,
            "criteria": dict(sorted(criteria.items(), key=lambda kv: int(kv[0])))}


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd().resolve()
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    record = {
        "title": args.title,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {seconds:g} --trace 0",
            "checkouts": "git archive of each revision into its own temporary directory",
            "order": "one run per side and seed; even pair index runs the parent first "
                     "(traced seeds too)",
            "quartiles": "numpy linear-interpolation 25th/50th/75th percentiles "
                         "over the paired runs of one side",
            "src_lines": "newlines in src/dpvfl/*.py of each exported checkout, "
                         "the total wc -l prints",
            "wins": "pairs where the change's value is better than the parent's; "
                    "ties count for neither side",
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-", dir=args.workdir) as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], roots[side])
        record["src_lines"] = {side: src_lines(roots[side]) for side in SIDES}
        for workload, seeds in workload_seeds(args.pairs):
            runs = []
            for index, seed in enumerate(seeds):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = perfbench(roots[side], workload, seed, seconds, 0)
                    runs.append(run_record(len(runs), side, seed, result))
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s={result['metrics']['wall_s']:.3f}", flush=True)
            identical = all(
                a["sha256"] == b["sha256"]
                for a in runs for b in runs if a["seed"] == b["seed"])
            record["workloads"][workload] = {
                "pairs": len(seeds),
                "artefacts_identical_per_seed": identical,
                "summary": summarize(runs, bench["end_to_end"]),
                "runs": runs,
            }
        per_layer = [metric["name"] for metric in bench["per_layer"]]
        for workload, seeds in workload_seeds(args.traced):
            traced_runs = []
            for index, seed in enumerate(seeds):
                traced = {}
                for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                    result = perfbench(roots[side], workload, seed, seconds, 1)
                    traced[side] = {key: result[key] for key in
                                    ("correct", "failed", "problems", "metrics")}
                    traced[side]["sha256"] = result["jobs"][0]["digests"]
                    print(f"traced {workload} seed {seed} {side} done", flush=True)
                record[f"traced_{workload}_seed{seed}"] = traced
                traced_runs.append(traced)
            record[f"traced_{workload}_mean"] = {
                "seeds": seeds, **layer_means(traced_runs, per_layer),
            }
        if args.tier1:
            record["tier1"] = {side: [] for side in SIDES}
            for index in range(args.tier1):
                for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                    run = tier1(roots[side])
                    record["tier1"][side].append(run)
                    print(f"tier1 {side} run {index}: {run['summary']} "
                          f"{run['criteria'].get('10', 'no criterion 10 line')}", flush=True)
    out = repo / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
