"""DVMC simulator benchmark: host time per simulated memory operation.

Run from the repository root::

    python3 perfbench/run.py --workload commercial --seed 1 --seconds 25 --trace 0

One process runs the named workload's plan (see ``plans.py`` and
``README.md``) back to back, checks every point or case, and prints
every end-to-end metric with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 1`` adds one cProfile-traced pass and reports
the per-layer ledger instead.  Full results, with the digest of the
simulated statistics, go to ``perfbench/results/``.
"""

import time

_START = time.perf_counter()  # set-up clock: starts before any import

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
sys.path.insert(0, SRC)

import clock  # noqa: E402
import ledger  # noqa: E402
import plans  # noqa: E402  (imports the simulator from src/)

#: Each of these selects a different program than the default one.
REGIME_VARS = (
    "REPRO_POLL",
    "REPRO_HOPS",
    "REPRO_EAGER_CHECK",
    "REPRO_FLAT_KERNEL",
    "REPRO_CACHE",
)
#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 5


def regime_errors(env) -> list:
    bad = [name for name in REGIME_VARS if name in env]
    bad += sorted(name for name in env if name.startswith("REPRO_OBS"))
    if env.get("REPRO_JOBS", "1") != "1":
        bad.append("REPRO_JOBS")
    return bad


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("commercial", "sync", "differential")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the simulator, build the plan, print the set-up seconds",
    )
    return parser.parse_args(argv)


def setup_samples(args, first: float) -> list:
    """This process's set-up time plus fresh-interpreter repeats."""
    samples = [first]
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(items, built, ref, profile=None):
    """One pass over ``items``; returns the outcomes and, per item, its
    simulator and build time in reference-host seconds."""
    marks, outcomes = [], []
    for item in items:
        marks.append(ref.mark())
        outcomes.append(plans.run_item(item, built, profile))
    ref.close()
    times = [
        (ref.normalise(o.wall_s, mark), ref.normalise(o.build_s, mark))
        for o, mark in zip(outcomes, marks)
    ]
    return outcomes, times


def timed_passes(items, seconds, built, ref):
    """Whole passes, ending at the pass boundary nearest ``seconds``;
    at least one.  Returns the first pass's outcomes, every item's
    simulator and build times (one per pass) and each pass's digest."""
    host = [[] for _ in items]
    build = [[] for _ in items]
    digests, first = [], None
    start = time.perf_counter()
    while True:
        outcomes, times = run_pass(items, built, ref)
        for i, (host_s, build_s) in enumerate(times):
            host[i].append(host_s)
            build[i].append(build_s)
        digests.append(plans.digest(outcomes))
        first = first or outcomes
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(digests) / 2 >= seconds:
            return first, host, build, digests


def main(argv=None) -> int:
    args = parse_args(argv)
    bad = regime_errors(os.environ)
    if bad:
        print(
            f"refusing to run: {', '.join(bad)} set; each selects a "
            "different simulator regime than the one benchmarked",
            file=sys.stderr,
        )
        return 2
    items = plans.plan(args.workload, args.seed)
    setup_raw = time.perf_counter() - _START
    ref = clock.ReferenceClock()
    setup = setup_raw * clock.REF_SECONDS / ref.sample()
    if args.setup_only:
        print(setup)
        return 0

    setups = setup_samples(args, setup)
    built: list = []
    with plans.capture_builds(built):
        outcomes, host, build, digests = timed_passes(
            items, args.seconds, built, ref
        )
        traced = None
        if args.trace:
            profile = cProfile.Profile()
            traced = run_pass(items, built, ref, profile)

    item_s = [statistics.median(h) for h in host]
    wall = sum(item_s)
    ops = sum(o.ops for o in outcomes)
    # A fault can hang a differential machine until its deadline; the
    # idle cycles it then skips through would swamp the figure.
    ran = [(o.cycles, s) for o, s in zip(outcomes, item_s) if o.completed]
    cycles_per_s = sum(c for c, _ in ran) / sum(s for _, s in ran) if ran else 0.0
    failures = [o.failure for o in outcomes if o.failure]
    digest = digests[0]
    checks = {"passes_identical": len(set(digests)) == 1}
    metrics = {
        "host_us_per_op": (wall / ops * 1e6, "us"),
        "sim_cycles_per_s": (cycles_per_s, "cycles/s"),
        "cases_per_s": (len(items) / wall, "cases/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }
    report = {
        "sim_dvmc_slowdown": (
            ledger.paired_geomean(outcomes, lambda o: o.cycles), "ratio"
        ),
        "failed_frac": (len(failures) / len(items), "ratio"),
    }
    layer_metrics = {}
    if traced is not None:
        traced_outcomes, traced_times = traced
        checks["traced_identical"] = plans.digest(traced_outcomes) == digest
        stats = pstats.Stats(profile).stats
        folded = ledger.fold(stats, ledger.LayerMap(os.path.join(SRC, "repro")))
        total = sum(entry[2] for entry in stats.values())
        checks["ledger_sums_to_total"] = math.isclose(
            sum(v["self_s"] for v in folded.values()), total, rel_tol=1e-9
        )
        traced_wall = sum(host_s for host_s, _ in traced_times)
        # Profile seconds are raw host seconds; rescale them to the
        # reference host like every other time.
        scale = traced_wall / sum(o.wall_s for o in traced_outcomes)
        for layer, v in folded.items():
            layer_metrics[f"{layer}.self_us_per_op"] = (
                v["self_s"] * scale / ops * 1e6, "us"
            )
            layer_metrics[f"{layer}.calls_per_op"] = (v["calls"] / ops, "calls")
        for name, value in ledger.counter_metrics(outcomes, ops).items():
            layer_metrics[name] = (value, _unit(name))
        layer_metrics["builder.ms_per_system"] = (
            sum(statistics.median(b) for b in build) / len(items) * 1e3, "ms"
        )
        layer_metrics["trace_overhead_pct"] = ((traced_wall / wall - 1) * 100, "%")

    correct = all(checks.values())
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }
    shown = dict(metrics, **report) if not args.trace else dict(layer_metrics)
    print(
        f"workload={args.workload} seed={args.seed} items={len(items)} "
        f"ops={ops} passes={len(digests)} nproc={environment['nproc']} "
        f"python={environment['python']}"
    )
    print(f"digest={digest}")
    for name, check in checks.items():
        print(f"check {name}: {'ok' if check else 'FAILED'}")
    for failure in failures:
        print(f"failed: {failure}")
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "digest": digest,
                "checks": checks,
                "failures": failures,
                "environment": environment,
                "passes": len(digests),
                "reference_samples": len(ref.samples),
                "reference_median_s": statistics.median(ref.samples),
                "setup_samples_s": setups,
                "item_host_s": host,
                "item_events": [
                    o.payload.get("metrics", {}).get("events_processed", 0)
                    for o in outcomes
                ],
                "metrics": _tagged(metrics),
                "report": _tagged(report),
                "per_layer": _tagged(layer_metrics),
            },
            fh,
            indent=2,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(items),
                "failed": len(failures),
                "metrics": _tagged(layer_metrics if args.trace else metrics),
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_per_op"):
        return "bytes"
    return "count"


def _tagged(metrics: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
