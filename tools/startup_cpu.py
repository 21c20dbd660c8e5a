"""Time one-shot ``python -m spiketrac.cli`` processes of two source trees, per subcommand.

Run from anywhere, with two checkouts of the repository:

    python3 tools/startup_cpu.py PARENT_TREE CHANGE_TREE --rounds 20 --out startup.json

Each round starts one fresh interpreter per subcommand and tree, on a
golden case of ``tests/golden/inputs`` (``analyze``, ``crescent-active``,
``design`` and ``simulate`` of ``tests/test_golden.py``), in a new copy
of those inputs.  A process is timed by the CPU time it and its children
used (``resource.getrusage(RUSAGE_CHILDREN)`` around it), so the time
covers the interpreter's start, the imports and the command.  The trees
alternate: the side that runs first alternates from round to round.  One
untimed round runs first.  The two checkouts' resolved paths must have
the same length, as for ``tools/bench_pair.py``; the timer exits 2
otherwise.  The JSON file keeps, per subcommand and side, the median and
the quartiles (inclusive method) in milliseconds and the exit codes
seen; the timer exits 1 if any exit code is not 0.  Children run with
``OPENBLAS_NUM_THREADS=1``, as the benchmark's do.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# Subcommand -> the golden case it runs.
CASES = {"analyze": "analyze", "crescent": "crescent-active", "design": "design",
         "simulate": "simulate"}
RUN_TIMEOUT_S = 120


def sibling(name: str):
    """The script ``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The quartiles and the checkout-length check are ``tools/bench_pair.py``'s.
bench_pair = sibling("bench_pair")


def golden_argv() -> dict[str, list[str]]:
    """Each subcommand's argv, from the golden cases ``tools/compare_outputs.py`` reads."""
    cases = sibling("compare_outputs").golden_cases()
    return {command: cases[case] for command, case in CASES.items()}


def run_once(tree: Path, argv: list[str], work: Path) -> tuple[float, int]:
    """CPU seconds and exit code of one CLI process, run in a fresh copy of the inputs."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(ROOT / "tests" / "golden" / "inputs", work)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "spiketrac.cli", *argv], cwd=work, env=env,
                          capture_output=True, timeout=RUN_TIMEOUT_S, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--rounds", type=int, required=True, help="timed processes per side")
    parser.add_argument("--out", type=Path, help="JSON file (default: standard output)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    if bench_pair.lengths_differ(args.parent, args.change, "startup_cpu"):
        return 2
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cases = golden_argv()
    times = {command: {side: [] for side in SIDES} for command in cases}
    codes = {command: {side: set() for side in SIDES} for command in cases}
    with tempfile.TemporaryDirectory(prefix="startup_cpu-") as scratch:
        work = Path(scratch) / "inputs"
        for round_ in range(args.rounds + 1):
            order = SIDES if round_ % 2 == 0 else SIDES[::-1]
            for command, case_argv in cases.items():
                for side in order:
                    cpu, code = run_once(trees[side], case_argv, work)
                    codes[command][side].add(code)
                    if round_:
                        times[command][side].append(cpu * 1e3)

    subcommands = {}
    for command, sides in times.items():
        entry = {}
        for side in SIDES:
            low, median, high = bench_pair.quartiles(sides[side])
            entry[side] = {"median_ms": round(median, 3),
                           "quartiles_ms": [round(low, 3), round(high, 3)],
                           "exit_codes": sorted(codes[command][side])}
        entry["change_minus_parent_ms"] = round(
            entry["change"]["median_ms"] - entry["parent"]["median_ms"], 3)
        subcommands[command] = entry
    record = {
        "command": "python -m spiketrac.cli <golden case>",
        "rounds": args.rounds,
        "note": "CPU time (user + system) of each fresh process, in ms; parent and change "
                "alternate, and the side that runs first alternates from round to round.",
        "subcommands": subcommands,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    failed = [f"{command} ({side})" for command, sides in codes.items()
              for side, seen in sides.items() if seen != {0}]
    if failed:
        print(f"startup_cpu: non-zero exit codes: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
