"""Render a differential fuzz campaign's stats file as markdown.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` so every fuzz run
shows its outcome counts and mismatches without digging into artifacts.

Usage::

    python benchmarks/bench_summary.py --fuzz /tmp/fuzz_stats.json
"""

from __future__ import annotations

import argparse
import json
import sys


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def render_fuzz(report: dict) -> str:
    """Markdown section for a differential fuzz campaign stats file
    (the ``--stats-out`` JSON of ``python -m repro.cli fuzz``)."""
    summary = report.get("summary", {})
    lines = [
        "## differential fuzz: DVMC online vs offline oracle",
        "",
        "| outcome | cases |",
        "|---|---:|",
    ]
    for key in (
        "cases",
        "agree_clean",
        "agree_violation",
        "online_only",
        "missed_violation",
        "undecided",
    ):
        lines.append(f"| `{key}` | {_fmt(summary.get(key, 0))} |")
    lines.append("")
    mismatches = report.get("mismatches", [])
    new = [m for m in mismatches if not m.get("known")]
    lines.append(
        f"**Mismatches**: {len(mismatches)} total, {len(new)} new "
        f"(corpus holds {_fmt(report.get('corpus_size', 0))} known "
        f"reproducers); campaign took "
        f"{report.get('elapsed_seconds', 0)} s"
    )
    lines.append("")
    for entry in mismatches:
        tag = "known" if entry.get("known") else "**NEW**"
        lines.append(
            f"- {tag} `{entry.get('outcome')}`: "
            f"`{json.dumps(entry.get('case', {}))}`"
        )
    if mismatches:
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fuzz",
        metavar="FILE",
        required=True,
        help="the --stats-out JSON of python -m repro.cli fuzz",
    )
    args = parser.parse_args(argv)
    with open(args.fuzz) as fh:
        print(render_fuzz(json.load(fh)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
