#!/usr/bin/env python3
"""Rewrite pinned.json: the sha256 of every graph's JSON output at each
workload's default seed.

    python3 perfbench/pin.py

Run it only in a change whose stated goal is to change toriclab's output;
every other change must leave the pinned digests matching.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    pinned = {}
    for name in run.WORKLOADS:
        seed = workloads.DEFAULT_SEEDS[name]
        workload = run.Workload(name, seed, None)
        try:
            result = run.run_pass(workload)
            failures = run.check_pass(workload, result, None, None)
        finally:
            workload.close()
        if failures:
            print(f"{name}: not pinned, {len(failures)} failed: {failures[:5]}",
                  file=sys.stderr)
            return 1
        pinned[name] = {"seed": seed, "argv": workloads.argv(name, seed, "<graph>"),
                        "sha256": result["digests"]}
        print(f"{name}: {len(result['digests'])} digests at seed {seed}")
    with open(run.PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
