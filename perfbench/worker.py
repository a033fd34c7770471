"""One fresh benchmark process: runs a workload's jobs through ``dpvfl.cli.main``.

    python3 perfbench/worker.py MODE RESULT_JSON SPEC_JSON

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and every BLAS/OpenMP thread variable set to 1. MODE is one of

* ``probe``: stop at the first training round and report the monotonic
  time it began, so the parent can time set-up from process start;
* ``untraced``: time each job and each ``protocol.run_round`` call, and
  nothing else; rounds are grouped by training;
* ``traced``: record a span at every layer in ``tracing.LAYERS``.

Jobs run one after another (a closed loop) until the next one would end
after SPEC's ``seconds``; at least one always runs.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


class FirstRound(BaseException):
    """Raised by the probe's round hook; BaseException so no handler in dpvfl catches it."""


def main(argv: list[str]) -> int:
    mode, result_path, spec = argv[1], Path(argv[2]), json.loads(argv[3])
    root, out = Path(spec["root"]), Path(spec["out"])
    inputs = Path(spec["inputs"])

    from dpvfl import cli, protocol

    if mode == "probe":
        result = {"first_round": _probe(cli, protocol, spec, root, inputs, out)}
    else:
        result = _run_jobs(mode, cli, protocol, spec, root, inputs, out)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _probe(cli, protocol, spec, root, inputs, out) -> float | None:
    def first_round(*args, **kwargs):
        raise FirstRound(time.monotonic())

    protocol.run_round = first_round
    call = workloads.calls(spec["workload"], spec["seed"], root, inputs, out)[0]
    try:
        cli.main(call["argv"])
    except FirstRound as stop:
        return stop.args[0]
    return None


def _run_jobs(mode, cli, protocol, spec, root, inputs, out) -> dict:
    # Round latencies in ms, one list per training (a training owns its Parties).
    trainings: list[list[float]] = []
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(_confidence_threshold(spec, root, inputs))
        tracer.install()
    else:
        original = protocol.run_round
        clock = time.perf_counter
        owner = [None]

        def timed_round(parties, *args, **kwargs):
            if parties is not owner[0]:
                owner[0] = parties
                trainings.append([])
            start = clock()
            try:
                return original(parties, *args, **kwargs)
            finally:
                trainings[-1].append(1000.0 * (clock() - start))

        protocol.run_round = timed_round

    jobs = []
    cpu_before = _cpu_s()
    began = time.perf_counter()
    for index in range(spec["max_jobs"]):
        job = out / f"job{index}"
        job_calls = workloads.calls(spec["workload"], spec["seed"], root, inputs, job)
        if tracer is not None:
            tracer.begin_job()
        results = []
        start = time.perf_counter()
        for call in job_calls:
            call_start = time.perf_counter()
            try:
                rc, error = cli.main(call["argv"]), None
            except Exception:
                rc, error = None, traceback.format_exc(limit=8)
            results.append({"argv": call["argv"], "rc": rc, "error": error,
                            "seconds": time.perf_counter() - call_start})
        wall = time.perf_counter() - start
        jobs.append({"wall_s": wall, "calls": results, **workloads.read_outputs(job_calls, job)})
        if index > 0:
            shutil.rmtree(job)
        elapsed = time.perf_counter() - began
        if elapsed + max(j["wall_s"] for j in jobs) > spec["seconds"]:
            break
    result = {
        "jobs": jobs,
        "round_ms": trainings,
        "cpu_s": _cpu_s() - cpu_before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(j["wall_s"] for j in jobs))
        result["missing_sites"] = tracer.missing
        result["spans"] = len(tracer.starts)
        tracer.save(out / "spans.npz", f"{spec['workload']}-seed{spec['seed']}")
    return result


def _confidence_threshold(spec, root, inputs) -> float:
    from dpvfl.config import load_config

    config = workloads.config_paths(spec["workload"], root, inputs)[-1]
    return load_config(config).adaptive.confidence_threshold


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
