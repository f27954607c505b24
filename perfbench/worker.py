"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` with ``PYTHONPATH=src`` and one-thread BLAS/OpenMP
pools.  ``--role setup`` stops after set-up and reports its time; ``--role
run`` also measures, checks every item's output against the recorded
reference and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# the reported tail percentiles; the highest with ten samples beyond it wins
TAIL_LADDER = (75.0, 90.0, 99.0, 99.9)
# whole cycles a timed run makes at least, so that on a slow host the tail
# stays p90 (four 30-item cycles leave twelve samples beyond it)
MIN_CYCLES = 4


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(ordered: list, p: float):
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples above
    it; the median when none has."""
    return max([50.0] + [p for p in TAIL_LADDER if n - rank(n, p) >= 10])


class Checker:
    """Compares each item's output with its recorded reference."""

    def __init__(self, refs_path: Path, digest):
        with open(refs_path) as fh:
            self.refs = json.load(fh)["digests"]
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: list[dict] = []

    def check(self, index, family, text, passed, detail) -> None:
        self.attempted += 1
        ref = self.refs[index] if index < len(self.refs) else None
        ok = family.expected(passed, detail)
        if family.known_defect is None:
            ok = ok and ref is not None and self.digest(text) == ref
        if ok:
            return
        self.failed += 1
        if family.known_defect is not None:
            self.known += 1
        if len(self.failures) < 20:
            self.failures.append({"index": index, "family": family.name,
                                  "known_defect": family.known_defect})


def run_items(items, checker, direct):
    """Run items in order; returns per-item seconds."""
    out = []
    for index, family, seed, params in items:
        start = perf_counter()
        text, passed, detail = family.run(seed, params, direct)
        out.append(perf_counter() - start)
        checker.check(index, family, text, passed, detail)
    return out


def run_traced(items, checker, tracer, direct):
    """Run each item plainly and with spans, the spanned run followed by its
    replay; the order alternates between items, so drifts in host speed and
    anything the first run leaves warm hit both sides alike.  Returns the
    per-item seconds of the plain and the spanned runs; neither holds the
    replay."""
    plain, spanned = [], []
    for family in {f.name: f for _, f, _, _ in items}.values():
        family.replay_geometry(tracer)
    for i, (index, family, seed, params) in enumerate(items):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.item = index
                start = perf_counter()
                with tracer.span("bench.item"):
                    text, passed, detail = family.run(seed, params, tracer)
                spanned.append(perf_counter() - start)
                with tracer.span("bench.replay"):
                    family.replay(seed, params, detail, tracer)
                checker.check(index, family, text, passed, detail)
            else:
                plain += run_items([(index, family, seed, params)], checker, direct)
    tracer.item = None
    return plain, spanned


def layer_metrics(names: list, tracer, plain: list, spanned: list):
    """The per-layer metrics, and each layer's share of the self time
    under item roots and under replay roots."""
    total, self_s, root_s, root_layers = tracer.summary()
    layer_self: dict = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    values = {}
    for name in names:
        if name in tracer.counts:
            values[name] = tracer.counts[name]
        elif name.endswith(".self_s"):
            values[name] = layer_self.get(name[:-len(".self_s")], 0.0)
        elif name.endswith("_s"):
            values[name] = total.get(name[:-2], 0.0)
        else:
            values[name] = 0
    values["trace.items_per_s"] = len(spanned) / sum(spanned)
    values["trace.overhead_x"] = sum(spanned) / sum(plain)
    shares = {root.split(".", 1)[1]: {layer: s / root_s[root]
                                      for layer, s in sorted(root_layers[root].items())}
              for root in ("bench.item", "bench.replay")}
    return values, shares


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    began = perf_counter()
    import workloads as wl  # imports shadowlab, so it counts toward set-up
    workload = wl.WORKLOADS[args.workload]
    workload.build()
    warmed = set()
    for _, family, seed, params in workload.run_cycle(args.seed, 0):
        if family.name not in warmed:
            warmed.add(family.name)
            family.run(seed, params, wl.DIRECT)
    setup_s = perf_counter() - began
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(HERE / "refs" / f"{args.workload}.json", wl.digest)
    result = {"setup_s": setup_s}
    if args.trace == 0:
        latencies = []
        k = 0
        start = perf_counter()
        while perf_counter() - start < args.seconds or k < MIN_CYCLES:
            latencies += run_items(workload.run_cycle(args.seed, k), checker, wl.DIRECT)
            k += 1
        timed_s = perf_counter() - start
        n = len(latencies)
        tail_p = tail_percentile(n)
        ordered = sorted(latencies)
        result["metrics"] = {
            "items_per_s": n / timed_s,
            "item_p50_ms": 1e3 * statistics.median(ordered),
            "item_tail_ms": 1e3 * percentile(ordered, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["tail_percentile"] = tail_p
        result["samples"] = n
        result["cycles"] = k
        result["timed_s"] = timed_s
    else:
        from tracing import Tracer

        cycles = max(1, round(args.seconds / (3.0 * workload.nominal_cycle_s)))
        items = [it for k in range(cycles) for it in workload.run_cycle(args.seed, k)]
        tracer = Tracer()
        plain, spanned = run_traced(items, checker, tracer, wl.DIRECT)
        with open(HERE.parent / "BENCHMARK.json") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        result["metrics"], result["layer_shares"] = layer_metrics(
            names, tracer, plain, spanned)
        result["samples"] = len(items)
        result["cycles"] = cycles
        if args.spans:
            tracer.write(args.spans)
    result.update(attempted=checker.attempted, failed=checker.failed,
                  known_defect_failures=checker.known, failures=checker.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
