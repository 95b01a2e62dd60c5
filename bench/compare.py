"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``bench/run.py --out``, at
any depth (``PARENT_DIR/01/paper-spec.json``, ...).  Files are grouped by
workload and sorted by path; the i-th parent file and the i-th change
file of a workload form pair i, so run the two commits alternately and
number the runs.  Each metric's unit, direction and bound come from
``BENCHMARK.json``.  For every workload and end-to-end metric the verdict
is one of:

``gain``        at least 10 pairs, the change wins at least 9 in 10 of
                them (ties count for neither) and its median beats the
                parent's by more than the parent's interquartile range;
``regression``  the change's median is worse than the parent's by more
                than the bound;
``unresolved``  the parent's or the change's runs spread wider than the
                bound, so no change within the bound can be told apart;
``better``      spread wider than the bound, yet every change run reads
                better than every parent run;
``ok``          within the bound.

Per-layer metrics have no bound and are listed with their medians.  The
exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    return iqr(values) / abs(statistics.median(values))


def judge(better: str, bound: float, parent: list[float],
          change: list[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > iqr(parent)):
        return "gain"
    if spread(parent) > bound or spread(change) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        return "unresolved"
    if gain < -bound * abs(base):
        return "regression"
    return "ok"


def load(root: Path) -> dict[tuple[str, int], list[dict]]:
    """Result files under ``root`` by (workload, trace), in path order."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(root.rglob("*.json")):
        result = json.loads(path.read_text())
        groups[result["workload"], result["trace"]].append(result)
    return groups


def values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results]


def compare(spec: dict, parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any end-to-end metric regressed."""
    lines = []
    regressed = False
    for (workload, trace), parent_runs in sorted(parent.items()):
        change_runs = change.get((workload, trace))
        if not change_runs:
            lines.append(f"{workload}: no change runs (trace {trace})")
            continue
        hosts = {json.dumps(r["host"] | {"commit": None, "seed": None},
                            sort_keys=True)
                 for r in parent_runs + change_runs}
        if len(hosts) > 1:
            lines.append(f"{workload}: warning, runs come from {len(hosts)} hosts")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in metrics:
            name = metric["name"]
            p, c = values(parent_runs, name), values(change_runs, name)
            verdict = (
                judge(metric["better"], metric["bound"], p, c)
                if "bound" in metric else "-"
            )
            regressed |= verdict == "regression"
            lines.append(
                f"{workload:13s} {name:42s} {statistics.median(p):14.6f} "
                f"-> {statistics.median(c):14.6f} {metric['unit']:6s} "
                f"n={len(p)}/{len(c)} {verdict}"
            )
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    lines, regressed = compare(spec, load(args.parent), load(args.change))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
