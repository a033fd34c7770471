"""sha256 of every artefact of the seed-7 run matrix, written as one JSON.

    python3 tools/run_digests.py --out digests.json

The script runs the ``dpvfl`` CLI of the checkout it sits in (its ``src`` on
``PYTHONPATH``, BLAS pinned to one thread) in a temporary directory:

- ``train configs/utility.json``;
- the ``unprotected`` (privacy off, both adjustments off), ``vanilla`` (both
  adjustments off) and ``full`` victims of ``configs/attack_victim.json``,
  then ``attack`` on them;
- ``ablate configs/attack_victim.json``.

Every command gets ``--seed 7``. The JSON maps each file the commands wrote,
by its path inside the temporary directory, to its sha256; ``summary.json``
of a training is hashed without its ``runtime_seconds``. Two checkouts that
behave the same write identical JSON, so comparing the files of a parent
and a change with ``cmp`` checks a byte-identity claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
UTILITY = ROOT / "configs" / "utility.json"
ATTACK = ROOT / "configs" / "attack_victim.json"
VANILLA = ["--toggle-rescale", "false", "--toggle-distadj", "false"]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def commands(work: Path) -> list[list[str]]:
    unprotected = work / "unprotected.json"
    raw = json.loads(ATTACK.read_text(encoding="utf-8"))
    raw["privacy"]["enabled"] = False
    unprotected.write_text(json.dumps(raw, indent=2), encoding="utf-8")
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
    ]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        payload = json.loads(data)
        if isinstance(payload, dict) and "runtime_seconds" in payload:
            del payload["runtime_seconds"]
            data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_matrix() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory(prefix="run_digests-") as tmp:
        work = Path(tmp)
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
            if path.is_file() and path.name != "unprotected.json"
        }
    return {"seed": SEED, "artefacts": artefacts}


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
