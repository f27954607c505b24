"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, on one-second runs of tree-batch:
  1. ``--trace 0`` and ``--trace 1`` print every metric BENCHMARK.json names
     for that mode, with its unit, both on a text line and in the JSON line,
     and every item verifies;
  2. in a copy of perfbench/ whose reference digest of the run's first item
     is corrupted, that item counts as failed and the result is not correct;
  3. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits with a non-zero code and prints no result.
Scratch files go to .bench_out/selftest/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "selftest"
WORKLOAD = "tree-batch"
SEED = 5


def bench(*extra, cwd=ROOT, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def result_of(proc) -> tuple[list, dict]:
    assert proc.returncode == 0, f"benchmark exited with {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        text, result = result_of(bench(trace=trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, result
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        assert set(result["metrics"]) == set(expected), sorted(result["metrics"])
        for name, unit in expected.items():
            assert result["metrics"][name]["unit"] == unit, name
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in text), f"no text line for {name} [{unit}]"
        print(f"trace {trace}: {len(expected)} metrics printed with units")


def copy_tree(name: str, with_src: bool) -> Path:
    """A scratch tree holding BENCHMARK.json, a copy of perfbench/ and, when
    asked, a link to the package source."""
    tree = WORK / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(HERE, tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tree


def check_corrupted_reference() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[WORKLOAD]
    first_index = workload.run_cycle(SEED, 0)[0][0]
    tree = copy_tree("corrupted", with_src=True)
    path = tree / "perfbench" / "refs" / f"{WORKLOAD}.json"
    with open(path) as fh:
        refs = json.load(fh)
    refs["digests"][first_index] = "0" * 16
    with open(path, "w") as fh:
        json.dump(refs, fh)
    _, result = result_of(bench(cwd=tree))
    assert result["failed"] == 1 and not result["correct"], result
    shutil.rmtree(tree)
    print("corrupted reference: 1 item failed, result not correct")


def check_bare_directory() -> None:
    tree = copy_tree("bare", with_src=False)
    proc = bench(cwd=tree)
    assert proc.returncode != 0, "benchmark ran without the package source"
    assert '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(tree)
    print(f"bare directory: exit code {proc.returncode}, no result")


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corrupted_reference()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
