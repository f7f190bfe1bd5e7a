"""Command-line scenario sweep: ``python -m repro.scenarios [options]``.

Runs the differential scenario matrix (every applicable algorithm on every
requested engine), prints one row per execution, and exits non-zero if any
verification, bound, or cross-check fails — CI uses ``--quick`` as the
engine-regression smoke test.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis import render_table
from ..core.engine import available_engines
from .generators import KINDS, default_scenarios
from .runner import ScenarioRunner


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="differential scenario sweep over algorithms x engines",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI matrix (default is the wider sweep)",
    )
    parser.add_argument(
        "--engines",
        default="reference,fast",
        help=f"comma-separated engine names; available: "
        f"{','.join(available_engines())}",
    )
    parser.add_argument(
        "--kinds",
        default=",".join(KINDS),
        help="comma-separated scenario kinds to include",
    )
    args = parser.parse_args(argv)

    kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
    unknown_kinds = kinds - set(KINDS)
    if unknown_kinds:
        parser.error(
            f"unknown kind(s) {sorted(unknown_kinds)}; choose from {KINDS}"
        )
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    known = set(available_engines())
    bad_engines = [e for e in engines if e not in known]
    if bad_engines:
        parser.error(
            f"unknown engine(s) {bad_engines}; available: "
            f"{', '.join(available_engines())}"
        )
    scenarios = [
        sc for sc in default_scenarios(quick=args.quick) if sc.kind in kinds
    ]
    if not scenarios:
        parser.error("scenario matrix is empty; nothing to run")
    runner = ScenarioRunner(engines=engines)
    reports = runner.sweep(scenarios)

    rows = [o.row() for rep in reports for o in rep.outcomes]
    print(
        render_table(
            "scenario sweep (differential: algorithms x engines)",
            ["scenario", "algorithm", "engine", "rounds", "bound", "packets",
             "status"],
            rows,
        )
    )
    failures = [f for rep in reports for f in rep.failures]
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"\n{len(reports)} scenarios x {len(engines)} engines ok "
        f"({len(rows)} runs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
