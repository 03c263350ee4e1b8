"""The starbench benchmark.

    python3 bench/run.py --workload table --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark imports ``starbench`` from
the checkout's ``src/`` (never an installed copy) and drives its public API
in this one process, with no threads, as a closed loop with one caller: the
next call is made only when the previous verdict is in. A workload is a
list of calls (a "pass") that is repeated until ``--seconds`` is used up;
every pass runs to the end, and at least one always runs.

Workloads (the seed draws the inputs; fixed workloads ignore it):

* ``table``: a seeded draw of theorem cells over m, n = 3..7, one
  ``verify_cell`` call each. Many small and medium cells, where per-call
  overhead in minimize, product and verify shows.
* ``large``: five fixed big cells, where the subset frontier, inner loops
  and memory per state dominate.
* ``oracle-exhaustive``: ``exhaustive_oracle`` on the 13 combined
  operations at (3,3) with maxlen 8 (fixed): short words sharing prefixes.
* ``oracle-sampled``: ``membership_oracle`` at (4,5) with long random
  words and seeds derived from the workload seed: no shared prefixes.

Every verdict is checked against the benchmark's own expected values
(``expected.py``). With ``--trace 0`` the last line of standard output
holds the end-to-end metrics:

* ``wall_s``: median time of a pass, until every verdict of it is in;
* ``setup_s``: median over five fresh processes (this one and four
  children) of importing starbench and making the inputs;
* ``peak_rss_mb``: this process's peak RSS;
* ``cell_ms.p50``/``.p95``: time per call, one call being one verdict: a
  ``verify_cell`` on `table` and `large`, one oracle run (one operation
  at one size) on the oracle workloads.

All times are normalized by the host's speed (see ``hostclock.py``).

With ``--trace 1`` the last line holds the per-layer metrics of a traced
run, which first runs traced passes for half the time and then untraced
passes for the other half, to measure tracing overhead. The line before
the last is the run record: environment, sample counts, failures, raw
times and, when traced, per-span totals and the per-stage trace of every
`large` cell.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import expected
from hostclock import HostSpeed
from tracing import NFA_SPANS, ORACLE_SPANS, VERIFY_SPANS, Tracer, maxrss_mb

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("table", "large", "oracle-exhaustive", "oracle-sampled")
SETUP_SAMPLES = 5  # this process's own set-up plus four fresh processes

# `table`: cells at or above this many expected states are always drawn.
# They are the slowest tenth of the grid and carry most of its time, so
# wall_s and cell_ms.p95 do not depend on the seed; the rest are drawn two
# from every three in order of size, which keeps cell_ms.p50 steady too.
TABLE_SIZES = range(3, 8)
TABLE_ALWAYS_STATES = 1000
TABLE_DRAW = (2, 3)

EXHAUSTIVE_MAXLEN = 8
SAMPLED_MN = (4, 5)
SAMPLED_WORDS = 1000
SAMPLED_MAXLEN = 64  # well above the CLI default of 12: O(L^2) per word

# Toy sizes for the self-check.
TOY_TABLE_SIZES = range(3, 5)
TOY_LARGE_CELLS = ((expected.CONJECTURE, 3, 3), ("K*L", 4, 4),
                   ("(KL)*", 4, 4), ("K*∪L*", 4, 4))
TOY_EXHAUSTIVE_MAXLEN = 3
TOY_SAMPLED = (20, 16)


@dataclass(frozen=True)
class Task:
    """One call into starbench. ``expected`` is the minimal-DFA size for a
    cell and the number of words for an oracle call."""

    kind: str  # cell | exhaustive | sampled
    op: str
    m: int | None
    n: int
    expected: int
    maxlen: int = 0
    seed: int | None = None


def _table_tasks(seed: int, sizes: range) -> list[Task]:
    cells = []
    for op in expected.THEOREM_STATES:
        pairs = ([(None, n) for n in sizes] if op in expected.UNARY
                 else [(m, n) for m in sizes for n in sizes])
        cells.extend(Task("cell", op, m, n, expected.states(op, m, n))
                     for m, n in pairs)
    rng = random.Random(seed)
    drawn = [t for t in cells if t.expected >= TABLE_ALWAYS_STATES]
    rest = sorted((t for t in cells if t.expected < TABLE_ALWAYS_STATES),
                  key=lambda t: t.expected)  # stable: ties keep table order
    take, group = TABLE_DRAW
    for i in range(0, len(rest), group):
        block = rest[i:i + group]
        drawn.extend(rng.sample(block, min(take, len(block))))
    rng.shuffle(drawn)
    return drawn


def make_tasks(workload: str, seed: int, toy: bool = False) -> list[Task]:
    """The workload's inputs, made from its seed alone."""
    if workload == "table":
        return _table_tasks(seed, TOY_TABLE_SIZES if toy else TABLE_SIZES)
    if workload == "large":
        cells = (TOY_LARGE_CELLS if toy
                 else [c[:3] for c in expected.LARGE_CELLS])
        return [Task("cell", op, m, n, expected.states(op, m, n))
                for op, m, n in cells]
    if workload == "oracle-exhaustive":
        maxlen = TOY_EXHAUSTIVE_MAXLEN if toy else EXHAUSTIVE_MAXLEN
        return [Task("exhaustive", op, 3, 3,
                     expected.exhaustive_words(op, maxlen), maxlen)
                for op in expected.COMBINED_ALPHABET]
    if workload == "oracle-sampled":
        words, maxlen = TOY_SAMPLED if toy else (SAMPLED_WORDS, SAMPLED_MAXLEN)
        rng = random.Random(seed)
        m, n = SAMPLED_MN
        return [Task("sampled", op, None if op in expected.UNARY else m, n,
                     words, maxlen, rng.getrandbits(32))
                for op in expected.THEOREM_STATES]
    raise ValueError(f"unknown workload {workload!r}")


def import_starbench():
    """Import starbench from this checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import starbench

    where = Path(starbench.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"starbench imported from {where}, not from {SRC}")
    return starbench


def setup(workload: str, seed: int, toy: bool = False):
    """Import starbench and make the inputs; returns (module, tasks,
    normalized set-up seconds)."""
    speed = HostSpeed()
    speed.sample()
    start = time.perf_counter()
    starbench = import_starbench()
    tasks = make_tasks(workload, seed, toy)
    end = time.perf_counter()
    speed.sample()
    return starbench, tasks, speed.normalize(start, end, end - start)


def _setup_in_fresh_process(workload: str, seed: int, toy: bool) -> float:
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"print(run.setup({workload!r}, {seed!r}, {toy!r})[2])")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.split()[-1])


def run_task(starbench, task: Task) -> tuple[int, int, int, str | None]:
    """One call and its check: (attempted, failed, oracle words, problem).

    A cell fails when it is skipped, its verdict is not `match`, or its
    count is not the expected one. An oracle call attempts the expected
    number of words; each disagreement fails one, and so does each word
    missing from (or added to) the expected coverage.
    """
    if task.kind == "cell":
        cell = starbench.verify_cell(task.op, task.m, task.n)
        if cell.verdict == "match" and cell.measured == task.expected:
            return 1, 0, 0, None
        return 1, 1, 0, (f"{task.op} ({task.m},{task.n}): {cell.verdict}, "
                         f"measured {cell.measured}, expected {task.expected}")
    if task.kind == "exhaustive":
        report = starbench.exhaustive_oracle(task.op, task.m, task.n,
                                             maxlen=task.maxlen)
    else:
        report = starbench.membership_oracle(
            task.op, task.m, task.n, count=task.expected,
            maxlen=task.maxlen, seed=task.seed)
    failed = min(task.expected,
                 report.disagreements + abs(report.words - task.expected))
    problem = None if failed == 0 else (
        f"{task.op} ({task.m},{task.n}) oracle: {report.words} words "
        f"(expected {task.expected}), {report.disagreements} disagreements")
    return task.expected, failed, report.words, problem


@dataclass
class Measurement:
    """Times are normalized (see hostclock) unless named raw."""

    pass_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    call_ms: list[float] = field(default_factory=list)
    raw_call_s: float = 0.0  # sampler's share included
    attempted: int = 0
    failed: int = 0
    words: int = 0
    problems: list[str] = field(default_factory=list)


def measure(starbench, tasks: list[Task], seconds: float) -> Measurement:
    """Repeat the pass until another one would overrun ``seconds``."""
    out = Measurement()
    now = time.perf_counter
    speed = HostSpeed()
    calls = []  # (start, end, raw seconds without the sampler's share)
    with speed.sampling():
        begin = now()
        while True:
            pass_start = now()
            for task in tasks:
                start, sampled = now(), speed.handler_s
                attempted, failed, words, problem = run_task(starbench, task)
                sampled, end = speed.handler_s - sampled, now()
                calls.append((start, end, end - start - sampled))
                out.attempted += attempted
                out.failed += failed
                out.words += words
                if problem is not None:
                    out.problems.append(problem)
            out.raw_pass_s.append(now() - pass_start)
            if now() - begin + statistics.median(out.raw_pass_s) > seconds:
                break
    out.call_ms = [speed.normalize(*call) * 1000 for call in calls]
    out.raw_call_s = sum(end - start for start, end, _ in calls)
    k = len(tasks)
    out.pass_s = [sum(out.call_ms[i:i + k]) / 1000
                  for i in range(0, len(calls), k)]
    return out


def end_to_end(run: Measurement, setup_s: list[float]) -> dict:
    cuts = statistics.quantiles(run.call_ms, n=20, method="inclusive")
    p50, p95 = cuts[9], cuts[18]
    return {
        "wall_s": (statistics.median(run.pass_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (maxrss_mb(), "MB"),
        "cell_ms.p50": (p50, "ms"),
        "cell_ms.p95": (p95, "ms"),
    }


def per_layer(tracer: Tracer, traced: Measurement, plain: Measurement) -> dict:
    """Per-layer metrics per pass of the traced phase; RSS growth is the
    total over the phase, which is the first pass's since passes repeat."""
    totals = tracer.totals()
    passes = len(traced.pass_s)
    # span times are raw and include the sampler's share; scale them like
    # the traced calls they sit in
    speed = sum(traced.call_ms) / 1000 / traced.raw_call_s

    def total(names, key):
        return sum(totals[n][key] for n in names if n in totals)

    def per_pass(names, key):
        return total(names, key) / passes

    def seconds(names):
        return per_pass(names, "self_s") * speed

    det, mini = ["minimize.determinize"], ["minimize.minimize"]
    prod, build = ["ops.product_dfa"], ["witnesses.build"]
    in_states = total(mini, "in_states")
    oracle_s = seconds(ORACLE_SPANS)
    words = traced.words / passes
    overhead = (statistics.median(traced.pass_s)
                / statistics.median(plain.pass_s) - 1) * 100
    return {
        "minimize.minimize_s": (seconds(mini), "s"),
        "minimize.minimize_calls": (per_pass(mini, "calls"), "count"),
        "minimize.minimize_in_states": (per_pass(mini, "in_states"), "count"),
        "minimize.minimal_states": (per_pass(mini, "out_states"), "count"),
        "minimize.kept_ratio": (total(mini, "out_states") / in_states
                                if in_states else 0.0, "ratio"),
        "minimize.minimize_rss_mb": (total(mini, "rss_growth_mb"), "MB"),
        "minimize.determinize_s": (seconds(det), "s"),
        "minimize.determinize_calls": (per_pass(det, "calls"), "count"),
        "minimize.subset_states": (per_pass(det, "out_states"), "count"),
        "minimize.determinize_rss_mb": (total(det, "rss_growth_mb"), "MB"),
        "ops.product_s": (seconds(prod), "s"),
        "ops.product_calls": (per_pass(prod, "calls"), "count"),
        "ops.product_states": (per_pass(prod, "out_states"), "count"),
        "ops.nfa_s": (seconds(NFA_SPANS), "s"),
        "ops.nfa_calls": (per_pass(NFA_SPANS, "calls"), "count"),
        "ops.nfa_states": (per_pass(NFA_SPANS, "out_states"), "count"),
        "witnesses.build_s": (seconds(build), "s"),
        "witnesses.build_calls": (per_pass(build, "calls"), "count"),
        "verify.self_s": (seconds(VERIFY_SPANS), "s"),
        "oracle.self_s": (oracle_s, "s"),
        "oracle.words": (words, "count"),
        "oracle.words_per_s": (words / oracle_s if oracle_s else 0.0, "1/s"),
        "trace.overhead_pct": (overhead, "%"),
    }


def _large_stage_traces(tracer: Tracer, tasks: list[Task]) -> dict:
    """Stage traces of the first traced pass, one per cell, and whether the
    (K∩L)* (4,4) cell reproduces the recorded baseline: 49,152 subset and
    49,152 minimal states, with minimize slower than determinize."""
    roots = [s for s in tracer.spans if s.parent is None][:len(tasks)]
    traces = {f"{t.op} ({t.m},{t.n})": tracer.stages(root)
              for t, root in zip(tasks, roots)}
    key = f"{expected.CONJECTURE} (4,4)"
    if key not in traces:
        return {"stages": traces}
    stages = traces[key]
    det = max((s for s in stages if s["stage"] == "minimize.determinize"),
              key=lambda s: s["out_states"])
    last_min = [s for s in stages if s["stage"] == "minimize.minimize"][-1]
    baseline = {
        "subset_states": det["out_states"],
        "minimal_states": last_min["out_states"],
        "determinize_ms": det["ms"],
        "minimize_ms": last_min["ms"],
    }
    baseline["reproduced"] = (baseline["subset_states"] == 49_152
                              and baseline["minimal_states"] == 49_152
                              and last_min["ms"] > det["ms"])
    return {"stages": traces, "baseline_KiL_4_4": baseline}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        toy: bool = False) -> tuple[dict, dict]:
    """One benchmark run: returns (result line, run record)."""
    starbench, tasks, own_setup_s = setup(workload, seed, toy)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "toy": toy,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _git_commit(), "src_lines": _src_lines(),
        "calls_per_pass": len(tasks),
    }
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced = measure(starbench, tasks, seconds / 2)
        plain = measure(starbench, tasks, seconds / 2)
        runs = [traced, plain]
        metrics = per_layer(tracer, traced, plain)
        record["traced_pass_s"] = traced.pass_s
        record["untraced_pass_s"] = plain.pass_s
        record["raw_traced_pass_s"] = traced.raw_pass_s
        record["raw_untraced_pass_s"] = plain.raw_pass_s
        record["spans"] = tracer.totals()
        if workload == "large":
            record.update(_large_stage_traces(tracer, tasks))
    else:
        plain = measure(starbench, tasks, seconds)
        runs = [plain]
        setup_s = [own_setup_s] + [
            _setup_in_fresh_process(workload, seed, toy)
            for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(plain, setup_s)
        record["pass_s"] = plain.pass_s
        record["raw_pass_s"] = plain.raw_pass_s
        record["setup_s"] = setup_s
        record["samples"] = {"wall_s": len(plain.pass_s),
                             "setup_s": len(setup_s), "peak_rss_mb": 1,
                             "cell_ms.p50": len(plain.call_ms),
                             "cell_ms.p95": len(plain.call_ms)}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    record["fail_ratio"] = failed / attempted
    record["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except ImportError as e:
        print(f"bench: cannot import starbench from {SRC}: {e}",
              file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
