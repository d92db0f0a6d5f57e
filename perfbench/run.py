"""Benchmark entry point: run workloads, each in a fresh process.

Usage, from the repository root::

    python3 perfbench/run.py [--workload centers|federation|bulk|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own interpreter (``bench.py``) with a fixed
``PYTHONHASHSEED`` and ``src/`` on the import path.  With one workload
the child's output is passed through, so the last line is that
workload's JSON result.  With ``all`` the workloads run one after
another and the last line merges their results, metrics named
``<workload>/<metric>``.  The exit code is non-zero when any output
check fails.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("centers", "federation", "bulk")

#: A workload process that runs longer than this is killed, with its
#: pool workers.
TIMEOUT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_workload(name: str, args, capture: bool) -> subprocess.CompletedProcess:
    """One workload in a fresh interpreter; its process group is killed
    if it outlives :data:`TIMEOUT_S`."""
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), start_new_session=True,
        stdout=subprocess.PIPE if capture else None, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(f"perfbench: {name} exceeded {TIMEOUT_S:.0f} s", file=sys.stderr)
        return subprocess.CompletedProcess(cmd, 124, out)
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_workload(args.workload, args, capture=False).returncode

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = run_workload(name, args, capture=True)
        lines = (done.stdout or "").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return done.returncode or 1
        code = code or done.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
