"""tools/startup_cpu.py times fresh CLI processes of two trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("startup_cpu", ROOT / "tools" / "startup_cpu.py")
startup_cpu = importlib.util.module_from_spec(spec)
spec.loader.exec_module(startup_cpu)


def test_a_tree_against_itself_reports_every_subcommand(tmp_path):
    out = tmp_path / "startup.json"
    assert startup_cpu.main([str(ROOT), str(ROOT), "--rounds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["rounds"] == 1
    assert sorted(record["subcommands"]) == ["analyze", "crescent", "design", "simulate"]
    for entry in record["subcommands"].values():
        for side in ("parent", "change"):
            assert entry[side]["exit_codes"] == [0]
            assert entry[side]["median_ms"] > 0


def test_checkout_paths_of_unequal_length_are_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(startup_cpu, "run_once", lambda *args: pytest.fail("a process ran"))
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    assert startup_cpu.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--rounds", "1"]) == 2
    assert "differ in length" in capsys.readouterr().err
