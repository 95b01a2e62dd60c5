"""CI gate: the quick repo-benchmark run's simulated speedups are pinned.

``bench/run.py --seed 5 --quick --out DIR`` writes one
``DIR/<workload>.json`` per workload.  Each records ``sim_speedup``, a
speedup priced in simulated cycles, so a seeded quick run reproduces it
exactly: a change that keeps the protocol must match every value to six
decimals, and a change that moves one on purpose updates
:data:`EXPECTED` and says why.

::

    python3 bench/run.py --seed 5 --quick --out DIR
    python benchmarks/check_quick_speedups.py DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: workload -> ``sim_speedup`` of ``bench/run.py --seed 5 --quick``.
EXPECTED = {
    "paper-spec": 3.961951,
    "fail-recover": 1.351838,
    "lift-corpus": 0.899750,
    "serve-mix": 1.488328,
}


def check(directory: pathlib.Path) -> list[str]:
    """One line per workload whose recorded speedup is missing or moved."""
    problems = []
    for workload, expected in EXPECTED.items():
        path = directory / f"{workload}.json"
        try:
            got = json.loads(path.read_text())["metrics"]["sim_speedup"]["value"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{workload}: no sim_speedup in {path} ({exc!r})")
            continue
        if f"{got:.6f}" != f"{expected:.6f}":
            problems.append(
                f"{workload}: sim_speedup {got:.6f}, pinned {expected:.6f}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail unless a quick benchmark run's simulated "
        "speedups match the pinned values to six decimals."
    )
    parser.add_argument(
        "directory", type=pathlib.Path,
        help="the --out directory of `bench/run.py --seed 5 --quick`",
    )
    args = parser.parse_args(argv)
    problems = check(args.directory)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"quick-run simulated speedups match for {len(EXPECTED)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
