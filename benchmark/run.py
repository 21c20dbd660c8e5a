"""spiketrac benchmark: one workload, one seed, every metric by name.

Run from the root of a checkout:

    python3 benchmark/run.py --workload field-session --seed 1 --seconds 20 --trace 0

The runner writes the workload's seeded inputs under ``.bench_work/``,
times fresh interpreters importing ``spiketrac.cli`` (``setup_s``), then
starts one worker interpreter that runs the operations in-process for
``--seconds`` (see ``worker.py``).  It checks the warm-up outputs with
``checks.py``, which does not import the package, and prints the
metrics.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Lines before it state bases, sample counts and the
machine.  Child interpreters run one at a time.

End-to-end times are CPU times of the child doing the work, scaled by
the calibration task run next to them (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import checks
import inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 150
# The import is timed on the probe's CPU clock, like the worker's passes;
# the probe then runs the calibration task once.
IMPORT_PROBE = (
    "import sys, time; start = time.process_time(); import spiketrac.cli; "
    "elapsed = time.process_time() - start; "
    f"sys.path.insert(0, {str(HERE)!r}); import calibrate; "
    "print(spiketrac.cli.__file__); print(repr(elapsed)); print(repr(calibrate.measure()))"
)
# Every metric the runner prints, with its unit; BENCHMARK.json lists the same.
END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "cli.self_s": "s", "cli.load_s": "s", "cli.bytes_out": "bytes", "cli.files_out": "count",
    "trials.parse_s": "s", "trials.derive_s": "s", "trials.landslide_s": "s",
    "trials.stability_s": "s", "trials.steps": "count", "trials.events": "count",
    "geometry.calls": "count", "geometry.s": "s",
    "soilmech.scans": "count", "soilmech.scan_s": "s", "soilmech.scan_points": "count",
    "soilmech.critical_depth_calls": "count",
    "design.search_s": "s", "design.evaluate_calls": "count", "design.evaluate_s": "s",
    "design.rank_self_s": "s", "design.feasible": "count", "design.invalid": "count",
    "simulate.onset_s": "s", "simulate.predict_s": "s", "simulate.drafts": "count",
    "simulate.scans_per_draft": "ratio", "simulate.unsustained": "count",
    "trace.overhead_s": "s", "failed_frac": "ratio",
}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # spiketrac makes no BLAS calls.  OpenBLAS's one extra thread only
    # spins while numpy imports, and on two vCPUs that spin slowed the
    # import by 0 to 70 ms, depending on what the host ran next to it.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(src: Path) -> list[tuple[float, float]]:
    """CPU time to import ``spiketrac.cli`` in fresh interpreters, after one warm-up.

    Each sample pairs the import time with the calibration task's time
    in the same interpreter, right after the import.
    """
    samples = []
    for sample in range(SETUP_SAMPLES + 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(src), cwd=src.parent,
            capture_output=True, text=True, timeout=60, check=False,
        )
        lines = probe.stdout.split()
        if probe.returncode != 0 or len(lines) != 3:
            raise RuntimeError(f"import probe failed: {probe.stderr.strip()[-500:]}")
        if Path(lines[0]).resolve().parents[1] != src.resolve():
            raise RuntimeError(f"import probe loaded {lines[0]}, not the checkout's")
        if sample:
            samples.append((float(lines[1]), float(lines[2])))
    return samples


def run_worker(src: Path, work: Path, ops: list[dict], seconds: int, trace: bool) -> dict:
    manifest = work / "manifest.json"
    result = work / "result.json"
    manifest.write_text(json.dumps({
        "src": str(src), "workdir": str(work / "inputs"), "ops": ops,
        "seconds": seconds, "trace": trace,
    }), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(manifest), str(result)],
        env=child_env(src), stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker still running after {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_reference(ops: list[dict], reference: dict, work: Path) -> list[int]:
    """Indices of warm-up operations that failed; the reasons go to stderr."""
    failed = []
    for i, op in enumerate(ops):
        code = reference["codes"][i]
        problem = (
            f"exit code {code}" if code != 0
            else checks.check(op, work / "inputs" / "ref" / f"op{i:03d}",
                              reference["stdouts"][i], work / "inputs")
        )
        if problem is not None:
            print(f"benchmark: op {i} ({' '.join(op['argv'])}): {problem}", file=sys.stderr)
            failed.append(i)
    return failed


def tally(operations: int, bad: list[int], passes: list[dict]) -> tuple[int, int]:
    """Attempted and failed operations over the warm-up and every timed pass.

    An operation whose warm-up output failed its check fails in every
    pass, since later passes are only compared with the warm-up.
    """
    attempted = operations * (1 + len(passes))
    failed = len(bad) * (1 + len(passes)) + sum(
        len(set(p["failed"]) - set(bad)) for p in passes
    )
    return attempted, failed


def scaled(seconds: float, calibrate_s: float) -> float:
    """A CPU time as it would read where the calibration task takes ``NOMINAL_S``."""
    return seconds * calibrate.NOMINAL_S / calibrate_s


def percentile(values: list[float], share: float) -> float:
    """The ``share`` quantile, interpolating linearly between the nearest values."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 21:
        return f"no percentile above the median has ten of {len(ordered)} samples beyond it"
    share = (len(ordered) - 11) / (len(ordered) - 1)
    return f"p{100 * share:.0f} {ordered[len(ordered) - 11]:.6f}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "spiketrac" / "cli.py").is_file():
        return fail(f"no spiketrac sources under {src}; run from the root of a checkout")

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        ops = inputs.generate(args.workload, args.seed, work / "inputs")
        imports = measure_setup(src)
        result = run_worker(src, work, ops, args.seconds, bool(args.trace))
        bad = check_reference(ops, result["reference"], work)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed = tally(len(ops), bad, passes)
    walls = [scaled(p["cpu_s"], p["calibrate_s"]) for p in plain]
    calls = [[scaled(t, p["calibrate_s"]) for t in p["op_cpu_s"]] for p in plain]
    op_times = [t for times in calls for t in times]
    # Each call's median over the timed passes; op_p50/op_p90 are taken over these.
    per_call = [statistics.median(times) for times in zip(*calls)]
    setup = [scaled(t, c) for t, c in imports]

    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={result['python']} numpy={result['numpy']}")
    wall = statistics.median(walls)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass; "
          f"{len(plain)} untraced and {len(traced)} traced passes after one warm-up pass")
    print(f"wall_s: median {wall:.6f} s over {len(walls)} passes; {tail(walls)}; unscaled "
          f"median {statistics.median(p['cpu_s'] for p in plain):.6f} s on the CPU clock, "
          f"{statistics.median(p['wall_s'] for p in plain):.6f} s on the wall clock")
    print(f"op latency: {len(op_times)} invocations; {tail(op_times)}")
    print(f"setup_s: {len(setup)} fresh imports, min {min(setup):.6f} "
          f"median {statistics.median(setup):.6f} s; "
          f"unscaled median {statistics.median(t for t, _ in imports):.6f} s")
    print(f"calibration task: median {statistics.median(p['calibrate_s'] for p in plain):.6f} s "
          f"around passes, {statistics.median(c for _, c in imports):.6f} s after imports; "
          f"nominal {calibrate.NOMINAL_S} s")
    print(f"failed_frac: {failed} failed of {attempted} attempted operations")

    if args.trace:
        values = {
            name: statistics.median_low(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["cli.bytes_out"] = statistics.median_low(p["bytes_out"] for p in traced)
        values["cli.files_out"] = statistics.median_low(p["files_out"] for p in traced)
        traced_wall = statistics.median(scaled(p["cpu_s"], p["calibrate_s"]) for p in traced)
        values["trace.overhead_s"] = traced_wall - wall
        values["failed_frac"] = failed / attempted
        print(f"tracing overhead: traced wall_s {traced_wall:.6f} s minus untraced {wall:.6f} s")
        print(f"simulate.scans_per_draft base: {values.get('simulate.drafts', 0)} drafts")
        trace_file = root / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": {
                "nproc": os.cpu_count(), "cpu": cpu_model(),
                "python": result["python"], "numpy": result["numpy"],
            },
            "spans_per_traced_run": [p["spans"] for p in traced],
        }, indent=1), encoding="utf-8")
        print(f"spans: {trace_file.relative_to(root)}")
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "op_p50_ms": 1000 * percentile(per_call, 0.5),
            "op_p90_ms": 1000 * percentile(per_call, 0.9),
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
