"""CI perf-regression gate and perf-trajectory dashboard.

``bench_campaign.py`` writes one ``BENCH_campaign.json`` datapoint per
CI run; until now those datapoints were write-only — uploaded and never
compared.  This script closes the loop:

- **Gate** (``--baseline``): diff the current datapoint against the
  baseline restored from the most recent ``main`` run.  The gating
  metric is *cold tasks per second* (the campaign engine's headline
  throughput): warn above ``--warn`` (default 15%) slowdown, exit
  nonzero above ``--fail`` (default 30%).  The full before/after table
  goes to stdout and (with ``--summary``) the GitHub step summary.
  A missing baseline skips the gate with a note — the first run on a
  branch has nothing to compare against.
- **Trajectory** (``--trajectory`` + ``--append``): accumulate the
  current datapoint (stamped with ``--commit``) into an append-only
  ``BENCH_trajectory.jsonl`` carried in the same CI cache, and render
  a markdown trend table of the last ``--window`` commits (cold wall,
  tasks/s, stream-resume, orchestrated wall) — the perf dashboard the
  ROADMAP asks for.

Timing noise note: shared CI runners jitter by a few percent run to
run; the 15/30 thresholds are set so only a real engine regression
(or a badly overloaded runner) trips them.

Run::

    python benchmarks/compare_bench.py --current BENCH_campaign.json \\
        --baseline .perf-baseline/BENCH_campaign.json \\
        --trajectory .perf-baseline/BENCH_trajectory.jsonl --append \\
        --commit "$GITHUB_SHA" --summary "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

#: (field, label, lower-is-better) — the comparison table rows.
METRICS = (
    ("cold_wall_s", "cold wall (s)", True),
    ("tasks_per_s", "cold tasks/s", False),
    ("stream_resume_s", "stream resume (s)", True),
    ("orchestrated_wall_s", "orchestrated wall (s)", True),
    ("distributed_wall_s", "distributed wall (s)", True),
    ("profiled_wall_s", "profiled wall (s)", True),
    ("profiler_overhead_pct", "profiler overhead (%)", True),
    ("vectorized_wall_s", "vectorized wall (s)", True),
    ("rebuild_speedup_x", "rebuild speedup (x)", False),
)

#: The gating metric: cold-campaign throughput.
GATE_METRIC = "tasks_per_s"

#: Trend-table columns (field, short label).
TREND_FIELDS = (
    ("cold_wall_s", "cold (s)"),
    ("tasks_per_s", "tasks/s"),
    ("stream_resume_s", "stream-resume (s)"),
    ("orchestrated_wall_s", "orchestrated (s)"),
    ("distributed_wall_s", "distributed (s)"),
    ("profiled_wall_s", "profiled (s)"),
    ("vectorized_wall_s", "vectorized (s)"),
)


def load_report(path: Path) -> dict | None:
    """A bench datapoint, or ``None`` when absent/unreadable."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(report, dict):
        return None
    return report


def fmt_delta(
    base: float, current: float, lower_is_better: bool,
    warn: float = 0.15,
) -> str:
    """``+3.2%`` style delta, marked when it regresses past ``warn``.

    ``warn`` is the gate's ``--warn`` threshold, so the table's ⚠
    markers agree with the gate verdict when the default is overridden.
    """
    if not base:
        return "n/a"
    change = (current - base) / base
    worse = change > 0 if lower_is_better else change < 0
    marker = " ⚠" if worse and abs(change) >= warn else ""
    return f"{change:+.1%}{marker}"


def compare_table(
    baseline: dict, current: dict, warn: float = 0.15
) -> str:
    """Markdown before/after table over every tracked metric."""
    lines = [
        "| metric | baseline | current | change |",
        "|---|---:|---:|---:|",
    ]
    for field, label, lower_is_better in METRICS:
        base, cur = baseline.get(field), current.get(field)
        if not isinstance(base, (int, float)) or not isinstance(
            cur, (int, float)
        ):
            continue
        lines.append(
            f"| {label} | {base:.3f} | {cur:.3f} "
            f"| {fmt_delta(base, cur, lower_is_better, warn)} |"
        )
    return "\n".join(lines)


def gate_slowdown(baseline: dict, current: dict) -> float | None:
    """Fractional throughput loss on the gate metric (negative = faster)."""
    base, cur = baseline.get(GATE_METRIC), current.get(GATE_METRIC)
    if (
        not isinstance(base, (int, float))
        or not isinstance(cur, (int, float))
        or not base
    ):
        return None
    return (base - cur) / base


def append_trajectory(
    path: Path, current: dict, commit: str | None
) -> None:
    """Append the current datapoint as one trajectory JSONL line."""
    entry = {
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%d %H:%M"
        ),
        **{
            field: current.get(field)
            for field, _, _ in METRICS
            if isinstance(current.get(field), (int, float))
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load_trajectory(path: Path) -> list[dict]:
    """All decodable trajectory entries, oldest first."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    entries = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def trend_table(entries: list[dict], window: int) -> str:
    """Markdown trend table over the last ``window`` entries.

    Re-runs of one commit keep only the latest datapoint, so a
    restarted CI job does not duplicate rows.
    """
    latest: dict[str, dict] = {}
    order: list[str] = []
    for entry in entries:
        commit = str(entry.get("commit", "unknown"))
        if commit not in latest:
            order.append(commit)
        else:
            order.remove(commit)
            order.append(commit)
        latest[commit] = entry
    recent = [latest[commit] for commit in order[-window:]]
    if not recent:
        return "(no trajectory datapoints yet)"
    header = "| commit | date | " + " | ".join(
        label for _, label in TREND_FIELDS
    ) + " |"
    lines = [header, "|---|---|" + "---:|" * len(TREND_FIELDS)]
    for entry in recent:
        cells = []
        for field, _ in TREND_FIELDS:
            value = entry.get(field)
            cells.append(
                f"{value:.3f}" if isinstance(value, (int, float)) else "–"
            )
        commit = str(entry.get("commit", "unknown"))[:10]
        lines.append(
            f"| `{commit}` | {entry.get('date', '–')} | "
            + " | ".join(cells) + " |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True, help="this run's BENCH_campaign.json"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline BENCH_campaign.json (absent file = gate skipped)",
    )
    parser.add_argument(
        "--warn", type=float, default=0.15,
        help="warn at this fractional tasks/s slowdown (default: 0.15)",
    )
    parser.add_argument(
        "--fail", type=float, default=0.30,
        help="fail at this fractional tasks/s slowdown (default: 0.30)",
    )
    parser.add_argument(
        "--trajectory", default=None,
        help="BENCH_trajectory.jsonl accumulating per-commit datapoints",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="append the current datapoint to --trajectory before "
        "rendering the trend",
    )
    parser.add_argument(
        "--commit", default=None, help="commit SHA stamping the datapoint"
    )
    parser.add_argument(
        "--window", type=int, default=20,
        help="trend-table length in commits (default: 20)",
    )
    parser.add_argument(
        "--summary", default=None,
        help="also append the markdown to this file "
        "(CI: $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.warn <= args.fail:
        parser.error("need 0 < --warn <= --fail")

    current = load_report(Path(args.current))
    if current is None:
        print(f"error: cannot read current datapoint {args.current}",
              file=sys.stderr)
        return 2

    sections: list[str] = ["## Campaign perf gate", ""]
    exit_code = 0
    baseline = (
        load_report(Path(args.baseline)) if args.baseline is not None
        else None
    )
    if baseline is None:
        sections.append(
            "No baseline datapoint to compare against (first run on "
            "this branch, or the cache expired); gate skipped."
        )
    else:
        sections.append(compare_table(baseline, current, args.warn))
        sections.append("")
        slowdown = gate_slowdown(baseline, current)
        if slowdown is None:
            sections.append(
                f"Baseline lacks `{GATE_METRIC}`; gate skipped."
            )
        elif slowdown >= args.fail:
            sections.append(
                f"**FAIL**: cold throughput fell {slowdown:.1%} vs "
                f"baseline (fail threshold {args.fail:.0%})."
            )
            exit_code = 1
        elif slowdown >= args.warn:
            sections.append(
                f"**WARNING**: cold throughput fell {slowdown:.1%} vs "
                f"baseline (warn threshold {args.warn:.0%}, fail at "
                f"{args.fail:.0%})."
            )
        else:
            sections.append(
                f"OK: cold throughput change {-slowdown:+.1%} vs "
                f"baseline (warn at -{args.warn:.0%})."
            )

    if args.trajectory is not None:
        trajectory_path = Path(args.trajectory)
        if args.append:
            append_trajectory(trajectory_path, current, args.commit)
        entries = load_trajectory(trajectory_path)
        sections += [
            "",
            f"## Perf trajectory (last {args.window} commits)",
            "",
            trend_table(entries, args.window),
        ]

    markdown = "\n".join(sections) + "\n"
    print(markdown)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(markdown)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
