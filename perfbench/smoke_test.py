#!/usr/bin/env python3
"""Toy-size smoke test of the benchmark driver.

    python3 perfbench/smoke_test.py

Builds the driver (as run.py does) and runs every workload at toy size
with a fixed amount of work (--units), untraced and traced, twice with the
same seed and engine workers 4 and once with workers 1. It checks that
  * every metric BENCHMARK.json names is printed with its unit,
  * every correctness check passed,
  * the exact counts are identical across the three runs, and
  * the traced run shows the heavy/light split of the layers.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

UNITS = {"solve_general": 2, "solve_mp": 2, "serve_uniform": 20,
         "serve_flap_k2": 20}
EXACT_UNTRACED = ("matching_ratio",)
EXACT_TRACED = ("congest.rounds", "congest.messages", "core.iterations",
                "dyn.rebuild_frac", "mp.bytes_per_round")
SEED = 7


def fail(msg):
    sys.exit(f"smoke_test: FAIL: {msg}")


def run_driver(exe, workload, trace, workers):
    cmd = [exe, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "toy",
           "--units", str(UNITS[workload]), "--workers", str(workers)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    exe = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {run.WORKLOADS}")
    for workload in names:
        traced = {}
        for trace, wanted, exact in ((0, spec["end_to_end"], EXACT_UNTRACED),
                                     (1, spec["per_layer"], EXACT_TRACED)):
            results = [run_driver(run.build_dir() + "/perfbench", workload,
                                  trace, w) for w in (4, 4, 1)]
            for r in results:
                if set(r) != {"correct", "attempted", "failed", "metrics"}:
                    fail(f"{workload}: result keys {sorted(r)}")
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    fail(f"{workload} trace={trace}: checks failed: {r}")
                for m in wanted:
                    got = r["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        fail(f"{workload}: {m['name']} missing or wrong unit")
            for name in exact:
                seen = {r["metrics"][name]["value"] for r in results}
                if len(seen) != 1:
                    fail(f"{workload}: {name} differs across runs: {seen}")
            if trace == 1:
                traced = {k: v["value"]
                          for k, v in results[0]["metrics"].items()}
        mp_active = traced["mp.frames"] > 0
        if mp_active != (workload == "solve_mp"):
            fail(f"{workload}: mp.frames = {traced['mp.frames']}")
        if workload == "serve_uniform" and (traced["dyn.rebuild_frac"] != 1
                                            or traced["dyn.augment_gained"]):
            fail(f"serve_uniform: rebuild/augment split wrong: {traced}")
        if workload == "serve_flap_k2" and traced["dyn.rebuild_frac"] != 0:
            fail(f"serve_flap_k2: rebuilt {traced['dyn.rebuild_frac']}")
        if workload == "solve_general" and traced["core.iterations"] < 1:
            fail("solve_general: no Algorithm-4 iterations")
        print(f"smoke_test: {workload} ok")
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
