"""sha256 of every artefact of the seed-7 run matrix, written as one JSON.

    python3 tools/run_digests.py --out digests.json

The script runs the ``dpvfl`` CLI of the checkout it sits in (its ``src`` on
``PYTHONPATH``, BLAS pinned to one thread) in a temporary directory:

- ``train configs/utility.json``;
- the ``unprotected`` (privacy off, both adjustments off), ``vanilla`` (both
  adjustments off) and ``full`` victims of ``configs/attack_victim.json``,
  then ``attack`` on them;
- ``ablate configs/attack_victim.json``;
- ``train`` on a copy of ``configs/attack_victim.json`` with
  ``privacy.sigma_override`` 0.1, below its calibrated sigma (about 0.31),
  and ``evaluation.repeats`` 2, so the noise-multiplier override reaches
  every release: training rounds and both evaluation draws;
- ``train`` on a seeded 400-row CSV (numeric, categorical and label
  columns, ``ranges`` and ``limit``) and on a seeded gzipped IDX pair of
  200 8x8 images (``halves`` and ``limit``), both written into the
  temporary directory first.

Every command gets ``--seed 7``. The JSON maps each file the commands wrote,
by its path inside the temporary directory, to its sha256; ``summary.json``
of a training is hashed without its ``runtime_seconds``, and the generated
inputs are not hashed. Two checkouts that
behave the same write identical JSON, so comparing the files of a parent
and a change with ``cmp`` checks a byte-identity claim.

The artefacts' bits also depend on the numpy build and on the CPU features
it dispatches to, so the JSON carries a ``provenance`` entry: the Python
and numpy versions and numpy's SIMD extensions (baseline, found and, under
``NPY_DISABLE_CPU_FEATURES``, not found). Files written on different
machines or builds then differ in that entry, not only in the digests.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
UTILITY = ROOT / "configs" / "utility.json"
ATTACK = ROOT / "configs" / "attack_victim.json"
VANILLA = ["--toggle-rescale", "false", "--toggle-distadj", "false"]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Small file-backed runs; the dataset paths are relative to the temporary
# directory, the commands' working directory.
FILE_RUN = {
    "model": {"embedding_dim": 4, "extractor_hidden": [8]},
    "training": {"learning_rate": 0.05, "batch_size": 32, "epochs": 2},
    "privacy": {"epsilon": 0.5, "delta": 0.01, "clip_threshold": 1.0},
}
CSV_DATASET = {
    "kind": "csv", "path": "people.csv", "limit": 250, "ranges": [[0, 4], [4, 9]],
    "columns": [{"name": "age", "kind": "numeric"}, {"name": "job", "kind": "categorical"},
                {"name": "hours", "kind": "numeric"}, {"name": "city", "kind": "categorical"},
                {"name": "income", "kind": "label"}],
}
IDX_DATASET = {"kind": "idx", "images": "images.idx.gz", "labels": "labels.idx.gz",
               "halves": ["left", "right"], "limit": 160}
INPUTS = ("unprotected.json", "override.json", "people.csv", "csv.json", "images.idx.gz", "labels.idx.gz",
          "idx.json")


def write_file_datasets(work: Path) -> None:
    """The seeded CSV and IDX inputs and a config for each."""
    rng = random.Random(SEED)
    lines = ["age,job,hours,city,income"]
    for _ in range(400):
        age, job = rng.randint(18, 80), rng.choice(["clerk", "nurse", "smith", "Émile"])
        hours = round(rng.gauss(40, 8), 2)
        income = "hi" if age + hours + 10 * (job == "smith") > 95 else "lo"
        lines.append(f"{age}, {job} ,{hours},{rng.choice(['Oslo', 'oslo', 'Köln'])},{income}")
    (work / "people.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    count, side = 200, 8
    labels = bytes(rng.randrange(4) for _ in range(count))
    pixels = bytes(min(255, rng.randrange(160) + 24 * label * (i % side >= side // 2))
                   for label in labels for i in range(side * side))
    for name, blob in (
        ("images.idx.gz", struct.pack(">IIII", 0x803, count, side, side) + pixels),
        ("labels.idx.gz", struct.pack(">II", 0x801, count) + labels),
    ):
        (work / name).write_bytes(gzip.compress(blob, mtime=0))
    for name, dataset in (("csv.json", CSV_DATASET), ("idx.json", IDX_DATASET)):
        (work / name).write_text(json.dumps({**FILE_RUN, "dataset": dataset}, indent=2),
                                 encoding="utf-8")


def commands(work: Path) -> list[list[str]]:
    unprotected = work / "unprotected.json"
    raw = json.loads(ATTACK.read_text(encoding="utf-8"))
    raw["privacy"]["enabled"] = False
    unprotected.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    override = work / "override.json"
    raw = json.loads(ATTACK.read_text(encoding="utf-8"))
    raw["privacy"]["sigma_override"] = 0.1
    raw["evaluation"] = {"repeats": 2}
    override.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    victims = work / "victims"

    def call(command, config, out, *extra):
        return [command, "--config", str(config), "--seed", str(SEED),
                "--out", str(work / out), *extra]

    return [
        call("train", UTILITY, "train"),
        call("train", unprotected, "victims/unprotected", *VANILLA),
        call("train", ATTACK, "victims/vanilla", *VANILLA),
        call("train", ATTACK, "victims/full"),
        call("attack", ATTACK, "attack", "--victims", str(victims)),
        call("ablate", ATTACK, "ablate"),
        call("train", override, "override"),
        call("train", work / "csv.json", "csv"),
        call("train", work / "idx.json", "idx"),
    ]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        payload = json.loads(data)
        if isinstance(payload, dict) and "runtime_seconds" in payload:
            del payload["runtime_seconds"]
            data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def provenance() -> dict:
    """The interpreter and numpy build the commands run on (the same ``sys.executable``)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def run_matrix() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory(prefix="run_digests-") as tmp:
        work = Path(tmp)
        write_file_datasets(work)
        for argv in commands(work):
            done = subprocess.run([sys.executable, "-m", "dpvfl.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"run_digests: dpvfl {' '.join(argv)} exited "
                                 f"{done.returncode}:\n{done.stderr}")
            out = Path(argv[argv.index("--out") + 1]).relative_to(work)
            print(f"done: dpvfl {argv[0]} {out}", file=sys.stderr, flush=True)
        artefacts = {
            path.relative_to(work).as_posix(): digest(path)
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.relative_to(work).as_posix() not in INPUTS
        }
    return {"seed": SEED, "provenance": provenance(), "artefacts": artefacts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON file (default: standard output)")
    args = parser.parse_args(argv)
    text = json.dumps(run_matrix(), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
