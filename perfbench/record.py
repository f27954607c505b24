"""Record the reference digest of every pool item of the given workloads.

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

Writes ``perfbench/refs/<workload>.json``.  An item is recorded only when it
meets its expected outcome (pass flag, and verdict where one is set).  Items
of a family with a documented known defect get no digest: they are checked
against their correct expected outcome instead of today's bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def record(workload) -> list:
    workload.build()
    digests = []
    for c in range(workload.pool_cycles):
        for index, family, seed, params in workload.pool_cycle(c):
            text, passed, detail = family.run(seed, params, wl.DIRECT)
            if family.known_defect is not None:
                digests.append(None)
                continue
            if not family.expected(passed, detail):
                raise SystemExit(f"{workload.name} item {index} ({family.name}, "
                                 f"seed {seed}) misses its expected outcome")
            digests.append(wl.digest(text))
    return digests


def main(names) -> None:
    for name in names or wl.WORKLOADS:
        workload = wl.WORKLOADS[name]
        digests = record(workload)
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": name, "slots": len(workload.slots),
                       "pool_cycles": workload.pool_cycles,
                       "digests": digests}, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(digests)} items")


if __name__ == "__main__":
    main(sys.argv[1:])
