"""Compare the two sides of a BENCH file, one row per workload and metric.

    python3 tools/bench_compare.py BENCH_<pr>-<label>.json [--aa BENCH_<pr>-aa.json ...]

A BENCH file holds one JSON line per ``perfbench/run.py --trace 0`` run:
``workload``, ``seed``, ``side``, ``position`` (the run's place in its pair)
and ``result``, the run's last line of stdout.  Each workload has two sides,
the base and the change: the base is the side named ``parent``, or else the
side of the file's first line of that workload.  The two runs of one seed are
a pair.

For each workload and each end-to-end metric of the repository's
``BENCHMARK.json`` it prints:

- both sides' medians and the change in percent;
- the pair wins: the pairs whose change run is strictly better than its base
  run, in the metric's ``better`` direction, out of all pairs;
- the base side's IQR, ``q3 - q1`` with inclusive quartiles
  (``statistics.quantiles(values, n=4, method="inclusive")``);
- whether the median's gap is larger than that IQR;
- whether the change's median stays inside the metric's bound, a relative
  loss of at most ``bound`` against the base median.

With ``--aa``, each row also gives the same workload's and metric's figures
from A/A files, runs of one commit against itself: the gap and the win count
that noise alone reached.  ``--aa`` may be given more than once; a row then
gives the largest change in percent (by size, with its sign) and the most
lopsided pair wins (farthest from half the pairs) over every A/A file that
holds its workload.  Both are blank for a workload that no A/A file holds.

One line per workload gives each side's runs, failed ops and attempted ops.
A run without ``metrics`` (one that gave no result) counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
BASE_SIDE = "parent"


@dataclass
class Row:
    """One workload's figures for one end-to-end metric."""

    workload: str
    metric: str
    base: str
    change: str
    base_median: float
    change_median: float
    wins: int
    pairs: int
    base_iqr: float
    bound: float
    higher_is_better: bool

    @property
    def gap(self) -> float:
        return self.change_median - self.base_median

    @property
    def relative(self) -> float:
        return self.gap / self.base_median

    @property
    def beyond_iqr(self) -> bool:
        return abs(self.gap) > self.base_iqr

    @property
    def inside_bound(self) -> bool:
        loss = -self.relative if self.higher_is_better else self.relative
        return loss <= self.bound


def read_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sides_of(runs: list[dict]) -> dict[str, tuple[str, str]]:
    """``(base, change)`` side names per workload, in file order."""
    seen: dict[str, list[str]] = defaultdict(list)
    for run in runs:
        if run["side"] not in seen[run["workload"]]:
            seen[run["workload"]].append(run["side"])
    sides = {}
    for workload, names in seen.items():
        if len(names) != 2:
            raise ValueError(f"{workload}: expected two sides, got {names}")
        base = BASE_SIDE if BASE_SIDE in names else names[0]
        sides[workload] = base, names[1] if names[0] == base else names[0]
    return sides


def quartile_gap(values: list[float]) -> float:
    """``q3 - q1`` with inclusive quartiles; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(runs: list[dict], end_to_end: list[dict]) -> list[Row]:
    """One :class:`Row` per workload (in file order) and metric (in ``end_to_end`` order)."""
    rows = []
    for workload, (base, change) in sides_of(runs).items():
        by_seed: dict[int, dict[str, dict]] = defaultdict(dict)
        for run in runs:
            if run["workload"] == workload and "metrics" in run["result"]:
                by_seed[run["seed"]][run["side"]] = run["result"]["metrics"]
        for spec in end_to_end:
            name = spec["name"]
            higher = spec["better"] == "higher"
            values = {side: [m[side][name]["value"] for m in by_seed.values() if side in m] for side in (base, change)}
            pairs = [(m[base][name]["value"], m[change][name]["value"])
                     for m in by_seed.values() if base in m and change in m]
            wins = sum(new > old if higher else new < old for old, new in pairs)
            rows.append(Row(workload, name, base, change, statistics.median(values[base]),
                            statistics.median(values[change]), wins, len(pairs), quartile_gap(values[base]),
                            spec["bound"], higher))
    return rows


def failures(runs: list[dict]) -> dict[tuple[str, str], tuple[int, int, int]]:
    """``(runs, failed ops, attempted ops)`` per (workload, side); a run with no result fails."""
    totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
    for run in runs:
        total = totals[run["workload"], run["side"]]
        total[0] += 1
        result = run["result"]
        if "metrics" in result:
            total[1] += result["failed"]
            total[2] += result["attempted"]
        else:
            total[1] += 1
            total[2] += 1
    return {key: tuple(value) for key, value in totals.items()}


def noise(aa_files: list[list[dict]], end_to_end: list[dict]) -> dict[tuple[str, str], tuple[float, int, int]]:
    """``(relative gap, wins, pairs)`` per (workload, metric): the widest that the A/A files holding it reach.

    The gap is the largest in size, sign kept; the wins are the most
    lopsided, farthest from half their pairs.  Each is the first file's on a tie.
    """
    widest: dict[tuple[str, str], tuple[float, int, int]] = {}
    for aa_runs in aa_files:
        for row in compare(aa_runs, end_to_end):
            key = row.workload, row.metric
            gap, wins, pairs = widest.get(key, (row.relative, row.wins, row.pairs))
            if abs(row.relative) > abs(gap):
                gap = row.relative
            if abs(row.wins / row.pairs - 0.5) > abs(wins / pairs - 0.5):
                wins, pairs = row.wins, row.pairs
            widest[key] = gap, wins, pairs
    return widest


def report(runs: list[dict], end_to_end: list[dict], aa_files: list[list[dict]] | None = None) -> list[str]:
    """The printed lines: a header, the metric rows, then one failure line per workload.

    With ``aa_files``, each metric row ends with the widest A/A change in
    percent and pair wins of its workload and metric (see :func:`noise`),
    blank where no A/A file holds the workload.
    """
    rows = compare(runs, end_to_end)
    lines = [f"{'workload':<12} {'metric':<12} {'base':>10} {'change':>10} {'change%':>8} {'wins':>6} "
             f"{'base IQR':>10} {'>IQR':>5} {'bound':>6} {'inside':>6}"]
    if aa_files is not None:
        aa = noise(aa_files, end_to_end)
        lines[0] += f" {'A/A%':>8} {'A/A wins':>8}"
    for row in rows:
        line = (f"{row.workload:<12} {row.metric:<12} {row.base_median:>10.4g} {row.change_median:>10.4g} "
                f"{row.relative:>+8.1%} {f'{row.wins}/{row.pairs}':>6} {row.base_iqr:>10.4g} "
                f"{'yes' if row.beyond_iqr else 'no':>5} {row.bound:>6.0%} "
                f"{'yes' if row.inside_bound else 'NO':>6}")
        if aa_files is not None:
            widest = aa.get((row.workload, row.metric))
            line += f" {widest[0]:>+8.1%} {f'{widest[1]}/{widest[2]}':>8}" if widest else f" {'':>8} {'':>8}"
        lines.append(line.rstrip())
    counts = failures(runs)
    for workload, sides in sides_of(runs).items():
        parts = []
        for side in sides:
            n, failed, attempted = counts[workload, side]
            parts.append(f"{side} {n} runs, {failed} of {attempted} ops failed")
        lines.append(f"{workload}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the two sides of a BENCH file.")
    parser.add_argument("bench", help="a BENCH_<pr>-<label>.json file")
    parser.add_argument("--aa", metavar="FILE", action="append",
                        help="an A/A BENCH file whose gaps and wins to print on each row; repeatable, widest shown")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    aa_files = [read_runs(path) for path in args.aa] if args.aa else None
    print("\n".join(report(read_runs(args.bench), end_to_end, aa_files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
