"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
"""

import json
import re
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

import inputs
import run
import tracer


def _files(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = inputs.generate(workload, 7, tmp_path / "a")
    second = inputs.generate(workload, 7, tmp_path / "b")
    inputs.generate(workload, 8, tmp_path / "c")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _sample_ops(tmp_path):
    """One operation of each kind from a field session, with file outputs."""
    ops = inputs.generate("field-session", 3, tmp_path / "inputs")
    wanted = {
        "analyze": lambda op: op["expect"]["series"] and op["expect"]["events"],
        "crescent": lambda op: op["expect"]["curve"],
        "design": lambda op: op["expect"]["out"],
        "simulate": lambda op: True,
    }
    return [next(op for op in ops if op["kind"] == kind and keep(op))
            for kind, keep in wanted.items()]


def _bump_leading_digit(path, marker):
    """Change the leading digit of the first number after ``marker``."""
    text = path.read_text(encoding="utf-8")
    match = re.compile(r"(?<![\d.eE+-])-?(\d)").search(text, text.index(marker) + len(marker))
    digit = match.group(1)
    new = "5" if digit != "5" else "6"
    path.write_text(text[: match.start(1)] + new + text[match.end(1):], encoding="utf-8")
    return text


@pytest.mark.parametrize(
    ("kind", "name", "marker"),
    [
        ("analyze", "report.json", '"lift_N": ['),
        ("analyze", "report.json", '"draft_N": ['),
        ("analyze", "series/lift_force.csv", "\n"),
        ("analyze", "series/tip_trajectory.csv", "\n"),
        ("crescent", "curve.csv", "\n"),
        ("design", "ranked.csv", "\n"),
        ("simulate", "sim.csv", "\n"),
    ],
)
def test_changed_digit_is_caught_and_counted(kind, name, marker, tmp_path):
    ops = _sample_ops(tmp_path)
    result = run.run_worker(ROOT / "src", tmp_path, ops, 0, trace=False)
    assert run.check_reference(ops, result["reference"], tmp_path) == []

    index = next(i for i, op in enumerate(ops) if op["kind"] == kind)
    _bump_leading_digit(tmp_path / "inputs" / "ref" / f"op{index:03d}" / name, marker)
    bad = run.check_reference(ops, result["reference"], tmp_path)
    assert bad == [index]
    attempted, failed = run.tally(len(ops), bad, result["passes"])
    assert failed == 1 + len(result["passes"])
    assert attempted == len(ops) * (1 + len(result["passes"]))


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path):
    ops = _sample_ops(tmp_path)
    result = run.run_worker(ROOT / "src", tmp_path, ops, 0, trace=True)
    traced = [p for p in result["passes"] if p["traced"]]
    assert len(traced) >= 3 and len(result["passes"]) > len(traced)
    # Each pass is compared byte for byte with the untraced warm-up.
    assert all(p["failed"] == [] for p in result["passes"])
    assert all(p["calibrate_s"] > 0 for p in result["passes"])
    layers = traced[0]["layers"]
    assert set(tracer.METRICS) <= set(layers)
    assert layers["soilmech.scans"] > 0 and layers["trials.steps"] > 0
    assert layers["design.evaluate_calls"] > 0 and layers["simulate.drafts"] > 0


def test_missing_name_drops_only_its_metrics(monkeypatch):
    import spiketrac.cli
    import spiketrac.simulate

    main = spiketrac.cli.main
    monkeypatch.delattr(spiketrac.simulate, "lateral_onset_depth")
    shims = tracer.Tracer()
    shims.install()
    try:
        assert spiketrac.cli.main is not main
        metrics = shims.metrics()
    finally:
        shims.uninstall()
    assert spiketrac.cli.main is main
    assert "simulate.onset_s" not in metrics
    assert "simulate.predict_s" in metrics and "cli.self_s" in metrics


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
    assert set(tracer.METRICS) <= set(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "design-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
