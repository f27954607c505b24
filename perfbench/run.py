"""shadowlab benchmark: one workload, one closed-loop client, one thread.

    python3 perfbench/run.py --workload tree-batch --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src`` (no
install needed).  Set-up is measured in three fresh processes (two set-up
probes and the measuring process itself) and reported as their median; the
traced run, which reports no set-up time, starts no probes.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last stdout line is the JSON
result.  A copy of the result with provenance, and the spans of a traced
run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
# every process must be done within the run's 180-second limit
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, role: str, deadline: float, extra=()) -> dict:
    """Run one worker process and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "shadowlab" / "__init__.py").is_file():
        print("src/shadowlab is missing: run from a full checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(out_dir / f"{stem}.spans.json")] if args.trace else []
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [spawn(args, "setup", deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result = spawn(args, "run", deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    metrics = dict(result["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    shown = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    # correct: every output matched its reference, except items of a
    # documented known defect, which are still counted as failed
    correct = result["failed"] == result["known_defect_failures"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['samples']} items in {result['cycles']} cycles")
    for name, m in shown.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for root, shares in result["layer_shares"].items():
            for layer, share in shares.items():
                print(f"share {layer} {share:.4f} of {root} self time")
    else:
        print(f"tail percentile p{result['tail_percentile']:g} over all "
              f"{result['samples']} items of {result['timed_s']:.2f} s")
        print(f"setup runs {' '.join(f'{s:.4f}' for s in setups)} s")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} frac "
          f"({result['failed']} of {result['attempted']}, "
          f"{result['known_defect_failures']} from known defects)")
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "setup_runs_s": setups, **result,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
