#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds the benchmark program (perfbench/CMakeLists.txt, from the sources in
src/) on first use, runs workload W for T seconds of host time, checks the
simulated outputs, and prints one JSON object as the last line of standard
output: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("tpcc_mems_sptf", "zoo_closed_tiled", "raid5_disk_rebuild")
# Default workload seed, and the seed kept back for confirming a claimed
# gain on inputs not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Stability. Each simulation of a run (one RunOpenLoop stream, Replay or
# RAID run) gets the ratio of the mean foreground latency of its last quarter
# of device services to its first quarter's. The median of these ratios over
# the run's simulations may be at most MAX_QUARTER_GROWTH, and every
# open-loop simulation may end at most MAX_END_BACKLOG_SHARE of its arrival
# span after its last arrival. The median, not the worst simulation: one
# 3000-request tpcc stream at a stable load reads up to 3.7 when a burst
# lands in its last quarter, as high as a 10 % overload reads (README.md,
# "Stability check").
MAX_QUARTER_GROWTH = 1.5
MAX_END_BACKLOG_SHARE = 0.03
OPEN_LOOP = ("tpcc_mems_sptf", "raid5_disk_rebuild")
# kOptimal in src/array/superblock.h.
ARRAY_OPTIMAL = 0
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mstk sources under {ROOT}/src; run from a full checkout", 2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 2)
    return os.path.join(out, "perfbench")


def run_program(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}", 3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def record_of(sim):
    """The checked part of a simulated-output record: counts and the exact
    bits of every value."""
    record = {key: sim[key] for key in ("submitted", "completed", "failed")}
    record["bits"] = {name: v["bits"] for name, v in sim["values"].items()}
    return record


def digest_of(parts_sim):
    """One hash over the checked records of all parts of a run."""
    text = json.dumps([record_of(sim) for sim in parts_sim], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def from_bits(bits):
    return None if bits is None else struct.unpack(">d", bytes.fromhex(bits))[0]


def diff_sim(got, want):
    """Differences between two records made by record_of, as strings."""
    problems = []
    for key in ("submitted", "completed", "failed"):
        if got[key] != want[key]:
            problems.append(f"{key}: got {got[key]}, expected {want[key]}")
    for name in sorted(set(got["bits"]) | set(want["bits"])):
        g = got["bits"].get(name)
        w = want["bits"].get(name)
        if g != w:
            problems.append(f"{name}: got {from_bits(g)}, expected {from_bits(w)}")
    return problems


def values_of(sim):
    return {name: v["value"] for name, v in sim["values"].items()}


def check(result, expected):
    """Returns the list of failed output and stability checks."""
    workload = result["workload"]
    problems = []
    if not result["consistent"]:
        problems.append("simulated outputs differ between repeats of one part")
    if not result["decorated_identical"]:
        problems.append("decorated (traced) run changed the simulated outputs")
    golden = expected["golden"].get(workload)
    if golden is None:
        problems.append("no recorded golden outputs")
    else:
        problems += ["golden " + p for p in diff_sim(record_of(result["golden"]), golden)]
    recorded = expected["seeds"].get(workload, {}).get(str(result["seed"]))
    if recorded is not None and recorded != digest_of(result["parts_sim"]):
        problems.append(f"seed {result['seed']}: outputs differ from the recording")
    for k, sim in enumerate(result["parts_sim"]):
        values = values_of(sim)
        if sim["completed"] != sim["submitted"]:
            problems.append(f"part {k}: completed {sim['completed']} of {sim['submitted']}")
        if workload in OPEN_LOOP:
            backlog = values["end_backlog_ms"]
            if backlog > MAX_END_BACKLOG_SHARE * values["arrival_span_ms"]:
                problems.append(f"part {k}: open loop ends {backlog:.1f} ms after its last "
                                "arrival")
        if workload == "raid5_disk_rebuild":
            if values["array_final_state"] != ARRAY_OPTIMAL:
                problems.append(f"part {k}: array ends in state {values['array_final_state']}")
            chunks = values["array_member_extent_blocks"] / 512
            if values["array_rebuild_chunks"] != chunks:
                problems.append(f"part {k}: rebuilt {values['array_rebuild_chunks']} of "
                                f"{chunks} chunks")
    for s in result["stability"]:
        if s["services"] < 4 or s["first_quarter_ms"] <= 0.0:
            problems.append(f"part {s['part']}, simulation {s['sim']}: too few services "
                            "to compare quarters")
    growth = quarter_growth(result["stability"])
    if growth > MAX_QUARTER_GROWTH:
        problems.append(f"backlog grows: the median simulation's last-quarter latency is "
                        f"{growth:.3f} x its first quarter's")
    return problems


def quarter_growth(stability):
    """Median over simulations of last-quarter over first-quarter mean
    foreground latency. A simulation too short to have quarters counts as
    unbounded growth."""
    def ratio(s):
        first, last = s["first_quarter_ms"], s["last_quarter_ms"]
        return last / first if s["services"] >= 4 and first > 0.0 else float("inf")
    return statistics.median(ratio(s) for s in stability)


def end_to_end(result, attempted, failed):
    """The end-to-end metrics of a run. Simulated means are weighted by
    completions over the run's simulations; p99 is the mean of their p99s.
    `attempted` and `failed` are the run's request counts as reported, so a
    failed check reads as sim_ok_share 0."""
    parts = result["parts_sim"]
    completed = sum(sim["completed"] for sim in parts)
    mean = sum(values_of(sim)["mean_response_ms"] * sim["completed"] for sim in parts)
    p99 = sum(values_of(sim)["p99_response_ms"] for sim in parts)
    return {
        "run_s": result["run_s"],
        "ios_per_s": completed / result["run_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "sim_mean_response_ms": mean / completed,
        "sim_p99_response_ms": p99 / len(parts),
        "sim_ok_share": (attempted - failed) / attempted,
    }


def metric_units(kind):
    """(name, unit) of each metric of `kind` ("end_to_end" or "per_layer") in
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    extra = []
    if args.trace == 1:
        extra += ["--spans", os.path.join(build_dir(), f"spans-{args.workload}.bin")]
    result = run_program(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    problems = check(result, load_expected())
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    rounds = result["rounds"]
    attempted = rounds * sum(sim["submitted"] for sim in result["parts_sim"])
    failed = attempted if problems else rounds * sum(sim["failed"]
                                                     for sim in result["parts_sim"])
    if args.trace == 0:
        values, kind = end_to_end(result, attempted, failed), "end_to_end"
    else:
        values, kind = result["layers"], "per_layer"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units(kind)}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
