"""Fast self-check of the benchmark itself (about ten seconds).

    python3 bench/selfcheck.py

Runs every workload at toy size, untraced and traced, and checks that each
result line carries exactly the metrics BENCHMARK.json names, with their
units, and that every verdict passes. Then it plants a wrong expected cell
count and a wrong exhaustive word count, and checks that each is counted as
a failure rather than passing unnoticed.
"""

from __future__ import annotations

import json
import math

import expected
import run

SEED = 7


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def toy_run(workload: str, trace: bool) -> tuple[dict, dict]:
    result, record = run.run(workload, SEED, 0.1, trace, toy=True)
    json.dumps(result)  # the result line must serialize
    return result, record


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json names every workload")
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, record = toy_run(workload, trace)
            where = f"{workload} trace={int(trace)}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], f"{where}: metrics and units {got}")
            check(all(math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  f"{where}: finite values")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1 and record["fail_ratio"] == 0,
                  f"{where}: every verdict passes {record['problems']}")
            for key in ("python", "nproc", "commit", "seed", "src_lines"):
                check(key in record, f"{where}: run record has {key}")
            if workload == "large" and trace:
                check(all(record["stages"].values()),
                      f"{where}: a stage trace for every cell")


def check_planted_errors() -> None:
    states = expected.states
    expected.states = lambda op, m, n: states(op, m, n) + (op == "K*L")
    try:
        result, record = toy_run("large", False)
    finally:
        expected.states = states
    check(not result["correct"] and record["fail_ratio"] > 0,
          "a wrong expected cell count raises fail_ratio")

    expected.COMBINED_ALPHABET["KL*"] += 1
    try:
        result, record = toy_run("oracle-exhaustive", False)
    finally:
        expected.COMBINED_ALPHABET["KL*"] -= 1
    check(not result["correct"] and record["fail_ratio"] > 0,
          "a wrong exhaustive word count raises fail_ratio")


def main() -> None:
    check_metrics()
    check_planted_errors()
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
