"""CI lint gate: no string-literal engine/backend dispatch outside
their registries, no loop-memory caches constructed outside the
profile package, and no speculative-protocol phase called outside the
one speculative driver.

The execution-engine refactor funneled every ``engine == "..."``
comparison through :mod:`repro.runtime.engines` (capability queries and
registry lookups), and the worker-pool backends likewise compare
``backend`` names only inside :mod:`repro.runtime.parallel_backend`
(``validate_backend`` / ``make_worker_pool``).  The profile-store
refactor did the same for the runtime's cross-run memory: the verdict
cache (``ScheduleCache``) and the jit warm-up ledger (``KernelCache``)
are internal components of :mod:`repro.runtime.profile` and may only be
constructed there — everyone else goes through a
:class:`~repro.runtime.profile.LoopProfileStore`.  This check keeps it
that way: it fails when a string-literal engine or backend comparison,
or a direct cache construction, reappears anywhere else under
``src/repro``, so dispatch and loop memory cannot quietly re-scatter
across call sites.  Likewise the speculative protocol: checkpoint,
commit (``finalize_doall``) and the serial re-run are called only from
:mod:`repro.runtime.speculative`, whose phase functions every strategy
shares.  And the runtime's serial executions run compiled: inside
``repro/runtime`` only the ``walk`` engine and the marking inspector
drive the tree walker (``.exec_iteration(`` / ``.exec_block(``).

::

    python benchmarks/check_engine_dispatch.py            # lint src/repro
    python benchmarks/check_engine_dispatch.py --root src/repro
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

#: a string literal compared against something called ``engine`` (or an
#: attribute/key ending in it), in either order.
PATTERNS = (
    re.compile(r"""\bengine\s*[=!]=\s*["']"""),
    re.compile(r"""["'][A-Za-z_]+["']\s*[=!]=\s*\w*\.?engine\b"""),
)

#: a string literal compared against something called ``backend``.
BACKEND_PATTERNS = (
    re.compile(r"""\bbackend\s*[=!]=\s*["']"""),
    re.compile(r"""["'][A-Za-z_]+["']\s*[=!]=\s*\w*\.?backend\b"""),
)

#: direct construction of the profile store's internal caches.
CACHE_PATTERNS = (
    re.compile(r"\bScheduleCache\s*\("),
    re.compile(r"\bKernelCache\s*\("),
)

#: the DOACROSS recovery tier dispatched by enum/string comparison.  The
#: orchestrator routes strategies through a dict and the recovery engine
#: is resolved by capability (``recovery_engine()``); a scattered
#: ``== Strategy.DOACROSS_RECOVERY`` or ``== "doacross_recovery"``
#: comparison would fork that decision.  Dict keys and ``.value``
#: assignments deliberately do not match — only comparisons do.
RECOVERY_PATTERNS = (
    re.compile(r"(?:[=!]=|\bis(?:\s+not)?)\s+Strategy\.DOACROSS_RECOVERY\b"),
    re.compile(r"\bStrategy\.DOACROSS_RECOVERY\s+(?:[=!]=|is(?:\s+not)?)\s"),
    re.compile(r"""[=!]=\s*["']doacross_recovery["']"""),
    re.compile(r"""["']doacross_recovery["']\s*[=!]="""),
)

#: direct Program construction outside the frontend layer.  The frontend
#: refactor made :mod:`repro.frontend` the only door into the IR: every
#: ``Program`` comes from a registered frontend's ``lift()`` (the dsl
#: parser and the python lifter included).  ``parse(`` matches the
#: bare parser call but not methods (``self.parse(``) or other names
#: (``parse_args(``); workloads keep their stored-source ``parse`` and
#: the dsl package implements the parser itself.
FRONTEND_PATTERNS = (
    re.compile(r"(?<![\w.])parse\s*\("),
    re.compile(r"\bProgramBuilder\s*\("),
)

#: direct construction of engines, worker pools or shadow arenas — the
#: service layer must stay a pure front end over the orchestrator, so
#: every engine comes from the registry and every pool from
#: ``make_worker_pool`` / a :class:`WorkerPoolCache`.  (``WorkerPool(``
#: deliberately does not match ``WorkerPoolCache(``.)
SERVICE_PATTERNS = (
    re.compile(r"\b[A-Z]\w*Engine\s*\("),
    re.compile(r"\b(?:Thread)?WorkerPool\s*\("),
    re.compile(r"\b(?:Shared|Thread)ShadowArena\s*\("),
    re.compile(r"\brun_parallel_doall\s*\("),
)

#: the speculative protocol's phases called outside the one driver.
#: Checkpointing, committing a doall's private state and re-running
#: iterations serially are phases of :mod:`repro.runtime.speculative`
#: (``commit``, ``roll_back``, ``run_with_verdict``), which times and
#: prices each of them in one place; a second call site would fork the
#: protocol again.
DRIVER_PATTERNS = {
    "Checkpoint": re.compile(r"\bCheckpoint\s*\("),
    "finalize_doall": re.compile(r"\bfinalize_doall\s*\("),
    "rerun_values_serially": re.compile(r"\brerun_values_serially\s*\("),
}

#: where each driver phase may appear: its defining module and the
#: driver.
DRIVER = pathlib.PurePosixPath("repro/runtime/speculative.py")
DRIVER_ALLOWED = {
    "Checkpoint": (pathlib.PurePosixPath("repro/core/checkpoint.py"), DRIVER),
    "finalize_doall": (pathlib.PurePosixPath("repro/runtime/doall.py"), DRIVER),
    "rerun_values_serially": (
        pathlib.PurePosixPath("repro/runtime/serial.py"),
        DRIVER,
    ),
}

#: statements executed by the tree walker.  Every serial execution the
#: runtime performs — the reference, the entry and exit blocks, rollback
#: and recovery re-runs — runs on the compiled serial executor
#: (:mod:`repro.interp.compiled`); inside ``repro/runtime`` the walker
#: executes statements only where it is asked for (the ``walk`` engine)
#: or is the instrument (the marking inspector).
WALKER_PATTERNS = (
    re.compile(r"\.exec_iteration\s*\("),
    re.compile(r"\.exec_block\s*\("),
)
WALKER_CHECKED = pathlib.PurePosixPath("repro/runtime")
WALKER_ALLOWED = (
    pathlib.PurePosixPath("repro/runtime/engines/walk.py"),
    pathlib.PurePosixPath("repro/runtime/inspector.py"),
)

#: the one place engine names may be compared/declared.
ALLOWED = pathlib.PurePosixPath("repro/runtime/engines")

#: the one module backend names may be compared/declared in.
BACKEND_ALLOWED = pathlib.PurePosixPath("repro/runtime/parallel_backend.py")

#: the one package the schedule/kernel caches may be constructed in.
CACHE_ALLOWED = pathlib.PurePosixPath("repro/runtime/profile")

#: the package held to the stricter no-direct-construction rule.
SERVICE_CHECKED = pathlib.PurePosixPath("repro/service")

#: the only places Program construction (parse/ProgramBuilder) may live:
#: the frontend layer itself, the dsl package that implements it, and
#: the workloads package (whose Workload.program() re-parses stored
#: mini-Fortran source).
FRONTEND_ALLOWED = (
    pathlib.PurePosixPath("repro/frontend"),
    pathlib.PurePosixPath("repro/dsl"),
    pathlib.PurePosixPath("repro/workloads"),
)


def lint(root: pathlib.Path) -> list[str]:
    """All offending ``path:line: text`` hits under ``root``."""
    hits: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relative = pathlib.PurePosixPath("repro") / path.relative_to(root)
        check_engine = ALLOWED not in relative.parents
        check_backend = relative != BACKEND_ALLOWED
        check_cache = CACHE_ALLOWED not in relative.parents
        check_service = SERVICE_CHECKED in relative.parents
        check_frontend = not any(
            allowed in relative.parents for allowed in FRONTEND_ALLOWED
        )
        driver_patterns = [
            pattern for name, pattern in DRIVER_PATTERNS.items()
            if relative not in DRIVER_ALLOWED[name]
        ]
        check_walker = (
            WALKER_CHECKED in relative.parents
            and relative not in WALKER_ALLOWED
        )
        if not (
            check_engine or check_backend or check_cache
            or check_service or check_frontend or driver_patterns
            or check_walker
        ):
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            engine_hit = check_engine and any(
                pattern.search(line)
                for pattern in PATTERNS + RECOVERY_PATTERNS
            )
            backend_hit = check_backend and any(
                pattern.search(line) for pattern in BACKEND_PATTERNS
            )
            cache_hit = check_cache and any(
                pattern.search(line) for pattern in CACHE_PATTERNS
            )
            service_hit = check_service and any(
                pattern.search(line) for pattern in SERVICE_PATTERNS
            )
            frontend_hit = check_frontend and any(
                pattern.search(line) for pattern in FRONTEND_PATTERNS
            )
            driver_hit = any(
                pattern.search(line) for pattern in driver_patterns
            )
            walker_hit = check_walker and any(
                pattern.search(line) for pattern in WALKER_PATTERNS
            )
            if (
                engine_hit or backend_hit or cache_hit
                or service_hit or frontend_hit or driver_hit or walker_hit
            ):
                hits.append(f"{path}:{lineno}: {line.strip()}")
    return hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on string-literal engine comparisons outside "
        "repro/runtime/engines and backend comparisons outside "
        "repro/runtime/parallel_backend.py."
    )
    parser.add_argument(
        "--root", type=pathlib.Path, default=pathlib.Path("src/repro"),
        help="package directory to lint (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if not args.root.is_dir():
        print(f"error: no such directory {args.root}", file=sys.stderr)
        return 2

    hits = lint(args.root)
    if hits:
        print(
            f"{len(hits)} violation(s): string-literal engine/backend "
            f"comparisons belong in their registries (use "
            f"repro.runtime.engines capability queries or "
            f"repro.runtime.parallel_backend's validate_backend/"
            f"make_worker_pool), Strategy.DOACROSS_RECOVERY and "
            f"'doacross_recovery' may not be compared against outside "
            f"repro/runtime/engines (route through the orchestrator's "
            f"strategy table and recovery_engine()), "
            f"ScheduleCache/KernelCache may only "
            f"be constructed inside repro/runtime/profile (go through "
            f"LoopProfileStore), repro/service may not construct "
            f"engines, pools or arenas directly, and Program "
            f"construction (parse/ProgramBuilder) belongs behind the "
            f"frontend registry (repro/frontend; repro/dsl and "
            f"repro/workloads excepted), Checkpoint(, "
            f"finalize_doall( and rerun_values_serially( are phases of "
            f"the one speculative driver (repro/runtime/speculative.py), "
            f"and inside repro/runtime only the walk engine and the "
            f"marking inspector may call .exec_iteration( or "
            f".exec_block( (serial executions run compiled):",
            file=sys.stderr,
        )
        for hit in hits:
            print(f"  {hit}", file=sys.stderr)
        return 1
    print(
        "engine/backend dispatch and profile-cache construction clean: "
        "no violations outside the registries"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
