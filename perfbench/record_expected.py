#!/usr/bin/env python3
"""Records the simulated outputs perfbench/run.py checks every run against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: for each workload, the golden part's full
record, and a digest of the outputs of every part of the runs of seeds
0-31 and the held-out seed. Run it only when a change is meant to move
simulated results, and say why in that change.
"""

import json
import os

import run

SEEDS = list(range(32)) + [run.HELD_OUT_SEED]


def main():
    binary = run.build()
    expected = {"golden": {}, "seeds": {}}
    extra = ["--max-rounds", "1"]
    for workload in run.WORKLOADS:
        expected["seeds"][workload] = {}
        for seed in SEEDS:
            result = run.run_program(binary, workload, seed, 0, 0, extra)
            expected["golden"][workload] = run.record_of(result["golden"])
            expected["seeds"][workload][str(seed)] = run.digest_of(result["parts_sim"])
            print(workload, seed, flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
