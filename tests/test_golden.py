"""Golden-file test of the CLI: stdout and every output file, byte for byte.

Each case runs one ``spiketrac`` invocation in a fresh copy of
``golden/inputs`` and compares what it prints and writes with the files
under ``golden/expected/<case>``.  After an intended output change,
regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from spiketrac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
STDOUT = "stdout.txt"

CASES = {
    "analyze": [
        "analyze", "--log", "trial.csv", "--out", "report.json",
        "--series", "series", "--push-distance", "2.0",
    ],
    # trial.csv with CRLF line ends, a space after each comma and a blank
    # line mid-file: the parser's per-line loop reads it, and its outputs
    # equal the analyze case's byte for byte.
    "analyze-spaced": [
        "analyze", "--log", "trial_spaced.csv", "--out", "report.json",
        "--series", "series", "--push-distance", "2.0",
    ],
    # A light vehicle: tip application over-predicts lift, so kappa is bisected.
    "analyze-kappa": [
        "analyze", "--log", "trial_light.csv", "--out", "report.json",
        "--series", "series", "--push-distance", "0.5",
    ],
    # A -0.0 first work term, a depth jump at step 1, airborne steps 2-3,
    # by-index interpolation between equal zero drafts, a near-vertical
    # arm (89 degrees) at the last step and negative penetration work.
    "analyze-edge": [
        "analyze", "--log", "trial_edge.csv", "--out", "report.json",
        "--series", "series", "--push-distance", "1.0",
    ],
    "crescent-active": [
        "crescent", "--depth", "0.3", "--width", "0.021", "--soil", "preset:dry",
        "--out", "curve.csv",
    ],
    "crescent-passive": [
        "crescent", "--depth", "0.25", "--width", "0.012", "--soil", "soil.json",
        "--law", "passive", "--beta-min", "5", "--beta-max", "30", "--out", "curve.csv",
    ],
    # Invalid grid points, the lateral check and rakes rotated past vertical.
    "design": [
        "design", "--space", "space.json", "--constraints", "constraints.json",
        "--soil", "preset:moist", "--out", "ranked.csv",
    ],
    # A shallower, less rake-sensitive critical depth under the lateral check.
    "design-k": [
        "design", "--space", "space.json", "--constraints", "constraints.json",
        "--k0", "2.5", "--k1", "0.5", "--out", "ranked.csv",
    ],
    "design-stdout": ["design", "--space", "space.json", "--top", "3"],
    "simulate": [
        "simulate", "--design", "design.json", "--soil", "preset:dry",
        "--draft-schedule", "drafts.csv", "--out", "sim.csv",
    ],
    # The deep pose rakes the spike past vertical before the lateral onset.
    "simulate-deep": [
        "simulate", "--design", "deep.json", "--soil", "soil.json",
        "--draft-schedule", "drafts.csv", "--out", "sim.csv",
    ],
    # No lateral regime within the design depth: large drafts go unsustained.
    "simulate-unsustained": [
        "simulate", "--design", "design.json", "--soil", "preset:moist",
        "--draft-schedule", "drafts.csv", "--out", "sim.csv", "--k0", "50",
    ],
    # The onset is at the surface: the 0 N draft is crescent, every other lateral at 0 m.
    "simulate-surface": [
        "simulate", "--design", "surface.json", "--soil", "preset:dry",
        "--draft-schedule", "drafts.csv", "--out", "sim.csv", "--k1", "2",
    ],
}


def _files(directory: Path) -> dict[str, bytes]:
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one invocation in a copy of the inputs; return stdout and new files."""
    shutil.copytree(INPUTS, workdir)
    inputs = _files(workdir)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    outputs = {name: data for name, data in _files(workdir).items() if name not in inputs}
    outputs[STDOUT] = stdout.getvalue().encode("utf-8")
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    outputs = run_case(CASES[case], tmp_path / "work")
    expected = _files(EXPECTED / case)
    assert sorted(outputs) == sorted(expected)
    for name, data in expected.items():
        assert outputs[name] == data, f"{case}: {name} differs from the golden file"


def test_design_top_5_writes_the_first_5_rows_of_the_full_table(tmp_path):
    outputs = run_case([*CASES["design"], "--top", "5"], tmp_path / "work")
    expected = _files(EXPECTED / "design")
    assert outputs["ranked.csv"] == b"".join(expected["ranked.csv"].splitlines(True)[:6])
    assert outputs[STDOUT] == expected[STDOUT]


def test_negative_penetration_work_is_a_result(tmp_path):
    # The arm rises to 89 degrees while the hinge advances 4 mm: the tip
    # swings back, so the work is negative and has no efficiency; exit 0.
    outputs = run_case(CASES["analyze-edge"], tmp_path / "work")
    summary = json.loads(outputs["report.json"])["summary"]
    assert summary["penetration_work_J"] < 0
    assert summary["efficiency_at_push"] is None


def regenerate() -> None:
    import tempfile

    shutil.rmtree(EXPECTED, ignore_errors=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, argv in CASES.items():
            for name, data in run_case(argv, Path(scratch) / case).items():
                target = EXPECTED / case / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
