"""Run one workload's operations in this process through ``spiketrac.cli.main``.

Usage: ``python3 worker.py MANIFEST RESULT``.  The runner starts it as a
fresh interpreter so its peak resident memory belongs to one run.

The first pass is a warm-up whose outputs the runner checks.  Timed
passes follow, back to back, until the manifest's seconds have passed;
each is compared byte for byte with the warm-up.  With tracing, timed
passes alternate between untraced and traced.

Passes and operations are timed on two clocks: the wall clock and this
process's CPU clock (user plus system time).  The worker is one thread
that never waits on anything, so the two agree on a core it has to
itself; the CPU clock leaves out the time the core ran something else.
The calibration task (``calibrate.py``) runs before every timed pass and
after the last, so the runner can scale each pass by the host's speed
around it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import calibrate

MIN_PASSES = 3  # timed passes of each kind, whatever the time budget


def run_pass(cli, argvs: list[list[str]]) -> dict:
    """Run every operation once, closed loop, writing under ``out/``.

    Every pass writes to the same paths, since the CLI prints them.
    """
    shutil.rmtree("out", ignore_errors=True)
    dirs = [f"out/op{i:03d}" for i in range(len(argvs))]
    for directory in dirs:
        os.makedirs(directory)
    calls = [[arg.replace("{out}", d) for arg in argv] for argv, d in zip(argvs, dirs)]
    codes, stdouts, times = [], [], []
    gc.collect()
    start, start_cpu = perf_counter(), process_time()
    for call in calls:
        buffer = io.StringIO()
        begin = process_time()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(call)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            code = None
        times.append(process_time() - begin)
        codes.append(code)
        stdouts.append(buffer.getvalue())
    cpu = process_time() - start_cpu
    wall = perf_counter() - start
    digests, sizes, files = [], 0, 0
    for directory in dirs:
        digest = hashlib.sha256()
        for path in sorted(Path(directory).rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                digest.update(str(path.relative_to(directory)).encode() + b"\0" + data)
                sizes += len(data)
                files += 1
        digests.append(digest.hexdigest())
    return {"wall_s": wall, "cpu_s": cpu, "op_cpu_s": times, "codes": codes, "stdouts": stdouts,
            "digests": digests, "bytes_out": sizes, "files_out": files}


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    src = Path(manifest["src"])
    sys.path.insert(0, str(src))
    import spiketrac.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"worker: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 3
    import numpy

    os.chdir(manifest["workdir"])
    argvs = [op["argv"] for op in manifest["ops"]]
    tracer = None
    if manifest["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()

    reference = run_pass(cli, argvs)
    os.rename("out", "ref")  # kept for the runner's checks
    calibrate.measure()  # warm-up
    calibrations = [calibrate.measure()]
    passes = []
    kinds = (False, True) if tracer else (False,)
    deadline = perf_counter() + manifest["seconds"]

    def more() -> bool:
        return perf_counter() < deadline or any(
            sum(p["traced"] == kind for p in passes) < MIN_PASSES for kind in kinds
        )

    while more():
        traced = kinds[len(passes) % len(kinds)]
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = run_pass(cli, argvs)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["failed"] = [
            i for i in range(len(argvs))
            if record["codes"][i] != 0
            or record["stdouts"][i] != reference["stdouts"][i]
            or record["digests"][i] != reference["digests"][i]
        ]
        if traced:
            record["layers"] = tracer.metrics()
            record["spans"] = tracer.snapshot()
        del record["stdouts"], record["codes"], record["digests"]
        calibrations.append(calibrate.measure())
        record["calibrate_s"] = (calibrations[-2] + calibrations[-1]) / 2
        passes.append(record)

    result = {
        "reference": {"codes": reference["codes"], "stdouts": reference["stdouts"]},
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
