"""dpvfl benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 44 --trace 0

Run it from the root of a dpvfl checkout; it runs the code under ``src``.
Every measurement happens in a fresh ``worker.py`` process with one BLAS
thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced job side by side and prints the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Work files go to ``.bench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
# Worker wall-clock limit for the whole run; the run must exit within 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "round_ms.p50": "ms",
    "round_ms.p95": "ms",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
}
REQUIRED = ("src/dpvfl/cli.py", workloads.UTILITY, workloads.ATTACK)


class BenchError(RuntimeError):
    """A worker process failed or ran out of time."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    missing = [path for path in REQUIRED if not (root / path).is_file()]
    if missing:
        print(f"perfbench: {root} is not a dpvfl checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 - workloads.VANILLA_SEEDS:
        print(f"perfbench: seed {args.seed} out of range", file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = out / "inputs"
    workloads.prepare_inputs(args.workload, root, inputs)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "root": str(root), "inputs": str(inputs), "out": str(out), "max_jobs": 1000}
    runner = Runner(root, out, time.monotonic() + DEADLINE_S)
    try:
        report = runner.traced(spec) if args.trace else runner.timed(spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report["provenance"] = provenance(root, spec, runner.env, report.pop("versions"))
    (out / "result.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print_report(args, report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": report["units"][name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


class Runner:
    """Starts worker processes and turns their results into a report."""

    def __init__(self, root: Path, out: Path, deadline: float):
        self.root, self.out, self.deadline = root, out, deadline
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_VARS})
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def workers(self, *tasks: tuple[str, dict, str]) -> list[dict]:
        """Run worker processes side by side, one per (mode, spec, tag), and wait for all."""
        running = []
        with contextlib.ExitStack() as stack:
            for mode, spec, tag in tasks:
                log = stack.enter_context((self.out / f"{tag}.log").open("w", encoding="utf-8"))
                command = [sys.executable, str(HERE / "worker.py"), mode,
                           str(self.out / f"{tag}.json"), json.dumps(spec)]
                started = time.monotonic()
                process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                           stdout=log, stderr=subprocess.STDOUT)
                stack.callback(_stop, process)
                running.append((tag, started, process))
            for tag, _, process in running:
                try:
                    process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    raise BenchError(f"{tag} did not finish before the deadline") from None
        results = []
        for tag, started, process in running:
            if process.returncode != 0:
                raise BenchError(f"{tag} exited with code {process.returncode}; "
                                 f"see {self.out / tag}.log")
            result = json.loads((self.out / f"{tag}.json").read_text(encoding="utf-8"))
            result["started"] = started
            results.append(result)
        return results

    def worker(self, mode: str, spec: dict, tag: str) -> dict:
        return self.workers((mode, spec, tag))[0]

    def timed(self, spec: dict) -> dict:
        # Half the set-up probes run before the timed worker and half after,
        # so one burst of machine contention cannot cover them all.
        setup = [self.probe(spec, k) for k in range(SETUP_PROBES // 2)]
        result = self.worker("untraced", spec, "untraced")
        setup += [self.probe(spec, k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
        jobs = result["jobs"]
        trainings = result["round_ms"]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "round_ms.p50": statistics.fmean(percentile(t, 50) for t in trainings),
            "round_ms.p95": statistics.fmean(percentile(t, 95) for t in trainings),
            "peak_rss_mb": result["peak_rss_mb"],
            "test_accuracy": statistics.median(
                statistics.fmean(j["test_accuracy"]) for j in jobs),
        }
        rounds = f"{sum(map(len, trainings))} rounds in {len(trainings)} trainings"
        samples = {"setup_s": f"{len(setup)} processes", "wall_s": f"{len(jobs)} jobs",
                   "round_ms.p50": rounds, "round_ms.p95": rounds,
                   "peak_rss_mb": "1 process", "test_accuracy": f"{len(jobs)} jobs"}
        report = assess(spec, jobs, jobs[0], metrics, END_TO_END)
        report.update(samples=samples, setup_s_samples=setup, versions=result["versions"],
                      jobs=jobs)
        return report

    def probe(self, spec: dict, k: int) -> float:
        """Seconds from starting a fresh process to its first training round."""
        probe_out = Path(spec["out"]) / f"probe{k}"
        probe = self.worker("probe", {**spec, "out": str(probe_out)}, f"probe{k}")
        shutil.rmtree(probe_out, ignore_errors=True)
        if probe["first_round"] is None:
            raise BenchError(f"probe{k} ended before the first training round")
        return probe["first_round"] - probe["started"]

    def traced(self, spec: dict) -> dict:
        # Side by side, so that both jobs see the same machine load.
        one = {**spec, "max_jobs": 1}
        plain, traced = self.workers(
            ("untraced", {**one, "out": str(self.out / "untraced")}, "untraced"),
            ("traced", {**one, "out": str(self.out / "traced")}, "traced"),
        )
        base, job = plain["jobs"][0], traced["jobs"][0]
        attack = job["attack"]
        metrics = dict(traced["layers"])
        metrics.update({
            "attacks.inversion.mse_ratio": attack.get("inversion_ratio", 0.0),
            "attacks.membership_inference.gap": attack.get("mi_gap", 0.0),
            "bench.cpu_s": plain["cpu_s"],
            "bench.tracing_overhead_pct": 100.0 * (job["wall_s"] - base["wall_s"]) / base["wall_s"],
        })
        units = tracing.metric_units()
        metrics = {name: metrics[name] for name in units}
        report = assess(spec, [base, job], base, metrics, units)
        report.update(samples={}, spans=traced["spans"], missing_sites=traced["missing_sites"],
                      versions=plain["versions"], jobs=[base, job])
        return report


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def assess(spec: dict, jobs: list[dict], reference: dict, metrics: dict, units: dict) -> dict:
    """Failure accounting and output checks for the jobs of one run.

    An operation is one ``cli.main`` call or one inversion trial. A call
    fails when it raises or returns non-zero, misses an artefact, or writes
    an artefact whose sha256 differs from the reference job's (every job of
    a run uses the same seed). A non-finite metric adds one failure.
    """
    attempted = failed = 0
    problems = []
    for job in jobs:
        for index, call in enumerate(job["calls"]):
            attempted += 1
            digests = job["digests"][index]
            if call["rc"] != 0:
                last = (call["error"] or "").strip().splitlines()[-1:]
                problems.append(f"{call['argv'][0]} returned {call['rc']} {' '.join(last)}")
            elif None in digests.values():
                problems.append(f"missing artefact in {sorted(digests)}")
            elif digests != reference["digests"][index]:
                problems.append(f"artefacts differ from the first job: {sorted(digests)}")
            else:
                continue
            failed += 1
        attack = job["attack"]
        if attack:
            attempted += attack["inversion_trials"]
            failed += attack["inversion_failed"]
            if attack["victims"] != ["full", "unprotected", "vanilla"]:
                problems.append(f"attacks.csv victims are {attack['victims']}")
    accuracies = [a for job in jobs for a in job["test_accuracy"]]
    if not accuracies or not all(0.0 < a <= 1.0 for a in accuracies):
        problems.append(f"test accuracies out of range: {accuracies}")
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        problems.append(f"non-finite metrics: {bad}")
        failed += 1
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "units": units,
    }


def provenance(root: Path, spec: dict, env: dict, versions: dict) -> dict:
    seeds = [spec["seed"]]
    if spec["workload"] == "train_vanilla":
        seeds = list(range(spec["seed"], spec["seed"] + workloads.VANILLA_SEEDS))
    configs = workloads.config_paths(spec["workload"], root, Path(spec["inputs"]))
    return {
        "git_sha": git_sha(root),
        "source_sha256": tree_sha256(root / "src" / "dpvfl"),
        "configs_sha256": {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in configs},
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_env": {name: env.get(name) for name in THREAD_VARS},
        "workload_seeds": seeds,
        "seconds": spec["seconds"],
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def tree_sha256(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every .py file in the tree."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def print_report(args, report: dict) -> None:
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {workloads.WHY[args.workload]}")
    samples = report["samples"]
    for name, value in report["metrics"].items():
        count = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:50s} {value:14.6g} {report['units'][name]}{count}")
    for index, job in enumerate(report["jobs"]):
        for digests in job["digests"]:
            for path, digest in digests.items():
                print(f"  job{index} sha256 {path} {digest}")
        attack = job["attack"]
        if attack:
            print(f"  job{index} mi_gap={attack['mi_gap']:.6g} "
                  f"inversion_ratio={attack['inversion_ratio']:.6g}")
    if "spans" in report:
        print(f"  {report['spans']} spans; lookup sites not found: {report['missing_sites']}")
    print(f"  failed_ratio {report['failed']}/{report['attempted']}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(f"  provenance {json.dumps(report['provenance'], sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
