"""Run the benchmark's operations and the golden cases on two checkouts and compare outputs.

Run from anywhere, with two checkouts of the repository:

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 2 \\
        [--workload design-grid --workload simulate-schedules ...]

For every workload (all four by default) and seed, the operations'
inputs are written once with this repository's ``benchmark/inputs.py``;
the golden cases of ``tests/test_golden.py`` run on a copy of
``tests/golden/inputs`` each.  Each checkout gets its own copy of those
inputs and runs every operation through ``spiketrac.cli.main`` in one
fresh interpreter, with its own ``src`` first on the path.  An operation
differs when its stdout, stderr, exit code, or the set or SHA-256 of the
files it writes differ between the checkouts.  Each differing operation
is named on standard output with what differs; the exit code is 1 if any
differs and 0 otherwise.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800

# Runs in a fresh interpreter: argv is SRC MANIFEST RESULT.
RUNNER = r"""
import contextlib, hashlib, io, json, os, sys
from pathlib import Path
src, manifest, result = sys.argv[1:]
sys.path.insert(0, src)
import spiketrac
from spiketrac.cli import main
if not Path(spiketrac.__file__).resolve().is_relative_to(Path(src).resolve()):
    raise SystemExit(f"spiketrac imported from {spiketrac.__file__}, not {src}")
results = {}
for op in json.loads(Path(manifest).read_text()):
    os.chdir(op["cwd"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {exc!r}"
    files = {
        path.relative_to(op["outputs"]).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(op["outputs"]).rglob("*")) if path.is_file()
    }
    results[op["name"]] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                           "files": files}
Path(result).write_text(json.dumps(results))
"""


def golden_cases() -> dict[str, list[str]]:
    """``CASES`` of ``tests/test_golden.py``, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "CASES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("compare_outputs: no CASES in tests/test_golden.py")


def load_generator():
    """This repository's ``benchmark/inputs.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "benchmark" / "inputs.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    return generator


def write_inputs(
    generator, inputs: Path, workloads: list[str] | None, seeds: list[int]
) -> list[dict]:
    """Write every operation's inputs under ``inputs``; return the operations.

    ``workloads`` None means all four.  An operation's ``cwd`` and
    ``outputs`` are relative to a copy of ``inputs``: it runs in ``cwd``
    and writes what is compared under ``outputs``.
    """
    ops = []
    for workload in workloads or generator.WORKLOADS:
        for seed in seeds:
            cwd = f"{workload}-{seed}"
            for index, op in enumerate(generator.generate(workload, seed, inputs / cwd)):
                outputs = f"out/op{index:03d}"
                ops.append({
                    "name": f"{workload} seed {seed} op {index:03d} ({op['kind']})",
                    "cwd": cwd, "outputs": f"{cwd}/{outputs}",
                    "argv": [arg.replace("{out}", outputs) for arg in op["argv"]],
                })
    for case, argv in golden_cases().items():
        cwd = f"golden-{case}"
        shutil.copytree(ROOT / "tests" / "golden" / "inputs", inputs / cwd)
        ops.append({"name": f"golden {case}", "cwd": cwd, "outputs": cwd, "argv": argv})
    return ops


def run_side(tree: Path, inputs: Path, work: Path, ops: list[dict]) -> dict:
    """Run ``ops`` on a copy of ``inputs`` at ``work`` with ``tree``'s sources."""
    shutil.copytree(inputs, work)
    for op in ops:
        (work / op["outputs"]).mkdir(parents=True, exist_ok=True)
    local = [dict(op, cwd=str(work / op["cwd"]), outputs=str(work / op["outputs"])) for op in ops]
    manifest, result = work.with_suffix(".ops.json"), work.with_suffix(".result.json")
    manifest.write_text(json.dumps(local), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree.resolve() / "src"), str(manifest), str(result)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare_outputs: the run in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between one operation's two results."""
    found = [key for key in ("code", "stdout", "stderr") if parent[key] != change[key]]
    if parent["files"] != change["files"]:
        names = sorted(set(parent["files"]) | set(change["files"]))
        found += [f"file {name}" for name in names
                  if parent["files"].get(name) != change["files"].get(name)]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    generator = load_generator()
    parser.add_argument("--workload", action="append", choices=generator.WORKLOADS,
                        help="a workload, repeatable (default: all four)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as scratch:
        inputs = Path(scratch) / "inputs"
        ops = write_inputs(generator, inputs, args.workload, args.seeds)
        results = {side: run_side(tree, inputs, Path(scratch) / side, ops)
                   for side, tree in zip(SIDES, (args.parent, args.change))}
    differing = 0
    for op in ops:
        found = differences(results["parent"][op["name"]], results["change"][op["name"]])
        if found:
            differing += 1
            print(f"differs: {op['name']}: {', '.join(found)}")
    print(f"{differing} of {len(ops)} operations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
