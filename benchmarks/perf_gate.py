"""Perf gate: judge the simulator's speed against the parent commit.

Usage::

    python benchmarks/perf_gate.py --parent DIR

``DIR`` is a checkout of the parent commit; this script's own tree is
the change.  Every gate compares against the parent or against another
mode of the same run, so no number measured on some other host is ever
read.  Three gates:

1. **perfbench, parent-relative.**  For every workload in
   ``BENCHMARK.json``, one parent/change pair of ``perfbench/run.py
   --seconds SECONDS --trace 0`` per seed in ``SEEDS``, alternating
   which tree runs first.  The change fails when any end-to-end
   metric's median is worse than the parent's median by more than
   ``min(bound, MAX_WORSE)``, when it reports ``correct: false``, or
   when it fails more cases than the parent at the same seed.
2. **Kernel storm, parent-relative.**  :func:`kernel_storm` (a
   ``Scheduler.post`` storm with no simulation payload) runs in a fresh
   interpreter against each tree's ``src/``, best of ``STORM_REPS``
   with the trees alternating.  The change fails below ``STORM_FLOOR``
   of the parent's rate.
3. **Regime ratios, same run.**  On the change tree only, the fixed
   {Base, DVMC} x {oltp, jbb} mix is swept in four modes — wakeup (the
   default), ``REPRO_OBS=1``, ``REPRO_OBS_SPANS=1`` and
   ``REPRO_POLL=1`` — once per rep, in an order reshuffled every rep.
   Each mode is judged by the median over reps of its sweep time over
   the wakeup sweep of the same rep, which cancels whatever the host
   was doing during that rep.  Observing and span recording may cost
   at most ``OVERHEAD_CEILING_PCT``; polling must be at least
   ``POLL_FLOOR`` times slower than waking, or the wake-on-change
   kernel no longer pays.  Poll must simulate the identical machine
   (everything but ``events_processed``), and spans-on must equal
   spans-off.

The storm and the sweeps are timed in CPU seconds of the process
that runs them (:func:`time.process_time`), so time the host spends on
other processes is not counted against either tree or mode.  The
script prints one ``PASS``/``FAIL`` line per check and exits 1 if any
check failed.  For where host time goes, run
``perfbench/run.py --trace 1``: its layer ledger names the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: perfbench pairs: one seed per pair, so each seed is run by both trees.
#: Five pairs keep a clean change's medians well inside the bounds.
SEEDS = (2006, 9176, 2006, 9176, 2006)
SECONDS = 8
#: No end-to-end metric may worsen by more than this, even where
#: ``BENCHMARK.json`` allows more.
MAX_WORSE = 0.20

STORM_EVENTS = 200_000
STORM_REPS = 5
STORM_FLOOR = 0.80

MIX_OPS = 60
MIX_SEEDS = 2
MIX_REPS = 64
OVERHEAD_CEILING_PCT = 3.0
POLL_FLOOR = 1.10


def perfbench(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``; its last JSON line."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def alternating(i: int, parent_tree: str) -> list:
    """Both trees as ``(side, path)``; the parent runs first on even rounds."""
    sides = [("parent", parent_tree), ("change", ROOT)]
    return sides if i % 2 == 0 else sides[::-1]


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction."""
    if metric["better"] == "lower":
        return change / parent - 1.0
    return 1.0 - change / parent


def perfbench_gate(parent_tree: str):
    """Yield ``(ok, check, detail)`` per seed and per end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(SEEDS):
            for side, tree in alternating(i, parent_tree):
                runs[side].append(perfbench(tree, workload, seed))
        for seed, p, c in zip(SEEDS, runs["parent"], runs["change"]):
            yield (
                c["correct"] and c["failed"] <= p["failed"],
                f"{workload} seed {seed}",
                f"correct {c['correct']}, failed {c['failed']}/{c['attempted']} "
                f"(parent {p['failed']})",
            )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = statistics.median(r["metrics"][name]["value"] for r in runs["parent"])
            c = statistics.median(r["metrics"][name]["value"] for r in runs["change"])
            worse = worse_by(metric, p, c)
            bound = min(metric["bound"], MAX_WORSE)
            yield (
                worse <= bound,
                f"{workload} {name}",
                f"parent {p:.6g} change {c:.6g} {metric['unit']} "
                f"(worse by {worse:+.1%}, bound {bound:.0%})",
            )


def kernel_storm() -> float:
    """Raw calendar-queue throughput in events per CPU second.

    Eight chains reschedule themselves through :meth:`Scheduler.post`,
    the call every component uses, at small pseudo-random strides (the
    same-cycle / near-future pattern the simulator produces) plus an
    occasional far-future hop through the overflow heap.
    """
    from repro.common.events import Scheduler

    sched = Scheduler()
    state = {"left": STORM_EVENTS, "x": 12345}

    def tick() -> None:
        if state["left"] <= 0:
            return
        state["left"] -= 1
        x = (state["x"] * 1103515245 + 12345) & 0x7FFFFFFF
        state["x"] = x
        delay = x % 7
        if x % 997 == 0:
            delay = 5000
        sched.post(delay, tick)

    for _ in range(8):
        sched.post(0, tick)
    t0 = time.process_time()
    sched.run()
    return sched.events_processed / (time.process_time() - t0)


def storm_rate(tree: str) -> float:
    """:func:`kernel_storm` in a fresh interpreter on ``tree``'s kernel."""
    done = subprocess.run(
        [sys.executable, "-c", "import perf_gate; print(perf_gate.kernel_storm())"],
        cwd=HERE,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout)


def storm_gate(parent_tree: str):
    best = {"parent": 0.0, "change": 0.0}
    for rep in range(STORM_REPS):
        for side, tree in alternating(rep, parent_tree):
            best[side] = max(best[side], storm_rate(tree))
    ratio = best["change"] / best["parent"]
    yield (
        ratio >= STORM_FLOOR,
        "kernel storm",
        f"parent {best['parent']:,.0f} change {best['change']:,.0f} events/CPU s "
        f"(ratio {ratio:.2f}, floor {STORM_FLOOR:.2f})",
    )


def timed_sweep(specs, env: dict):
    """One serial sweep of ``specs`` with ``env`` set; metrics, CPU seconds."""
    from repro.parallel import run_points

    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        gc.collect()
        t0 = time.process_time()
        metrics = run_points(specs, jobs=1)
        return metrics, time.process_time() - t0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value


def regime_gate():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.config import SystemConfig
    from repro.parallel import RunSpec

    specs = [
        RunSpec(config.with_seed(seed), workload, MIX_OPS)
        for config, workload in (
            (SystemConfig.unprotected(), "oltp"),
            (SystemConfig.protected(), "oltp"),
            (SystemConfig.unprotected(), "jbb"),
            (SystemConfig.protected(), "jbb"),
        )
        for seed in range(1, MIX_SEEDS + 1)
    ]
    modes = {
        "wakeup": {},
        "obs": {"REPRO_OBS": "1"},
        "spans": {"REPRO_OBS_SPANS": "1"},
        "poll": {"REPRO_POLL": "1"},
    }
    timed_sweep(specs, {})  # warm imports, code objects and memo tables
    metrics, seconds = {}, {mode: [] for mode in modes}
    for rep in range(MIX_REPS):
        order = list(modes)
        random.Random(rep).shuffle(order)
        for mode in order:
            metrics[mode], s = timed_sweep(specs, modes[mode])
            seconds[mode].append(s)

    def paired(mode: str) -> float:
        return statistics.median(
            m / w for m, w in zip(seconds[mode], seconds["wakeup"])
        )

    for mode in ("obs", "spans"):
        pct = (paired(mode) - 1.0) * 100.0
        yield (
            pct <= OVERHEAD_CEILING_PCT,
            f"{mode} overhead",
            f"{pct:+.1f}% over wakeup (ceiling {OVERHEAD_CEILING_PCT:.0f}%)",
        )
    ratio = paired("poll")
    yield (
        ratio >= POLL_FLOOR,
        "poll over wakeup",
        f"{ratio:.2f}x the wakeup sweep time (floor {POLL_FLOOR:.2f})",
    )

    def arch(runs):
        return [dataclasses.replace(m, events_processed=0, obs=None) for m in runs]

    yield (
        arch(metrics["poll"]) == arch(metrics["wakeup"]),
        "wakeup == poll",
        "identical but for events_processed",
    )
    yield metrics["spans"] == metrics["wakeup"], "spans-on == spans-off", "identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", required=True, metavar="DIR", help="checkout of the parent commit"
    )
    parent_tree = os.path.abspath(parser.parse_args(argv).parent)
    failures = []
    for gate in (perfbench_gate(parent_tree), storm_gate(parent_tree), regime_gate()):
        for ok, check, detail in gate:
            print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}", flush=True)
            if not ok:
                failures.append(check)
    print(f"perf gate: {'FAIL (' + ', '.join(failures) + ')' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
