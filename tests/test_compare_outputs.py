"""tools/compare_outputs.py on this checkout, against itself and against a changed copy."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

ARGS = ["--seeds", "1", "--workload", "simulate-schedules"]


def test_a_checkout_against_itself_exits_0(capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), *ARGS]) == 0
    assert capsys.readouterr().out == "0 of 17 operations differ\n"


# Appended to a copy of cli.py: simulate's stdout spells its " m, " out.
IN_METRES = """

import contextlib as _contextlib
import io as _io


def _in_metres(run):
    def run_in_metres(args):
        out = _io.StringIO()
        try:
            with _contextlib.redirect_stdout(out):
                return run(args)
        finally:
            print(out.getvalue().replace(" m, ", " metres, "), end="")
    return run_in_metres


_COMMANDS["simulate"] = _in_metres(_COMMANDS["simulate"])
"""


def test_one_changed_format_string_exits_1_and_names_each_differing_operation(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "spiketrac" / "cli.py"
    with cli.open("a", encoding="utf-8") as handle:
        handle.write(IN_METRES)
    assert compare_outputs.main([str(ROOT), str(tmp_path), *ARGS]) == 1
    lines = capsys.readouterr().out.splitlines()
    # Four schedules and 13 golden cases; the schedules and the four golden
    # simulate cases print their final depth.
    assert lines[-1] == "8 of 17 operations differ"
    differing = sorted(line.partition(": ")[2].rpartition(": ")[0] for line in lines[:-1])
    assert differing == sorted(
        [f"simulate-schedules seed 1 op {i:03d} (simulate)" for i in range(4)]
        + [f"golden {case}" for case in
           ("simulate", "simulate-deep", "simulate-surface", "simulate-unsustained")]
    )
    assert all(line.endswith(": stdout") for line in lines[:-1])


def test_an_unknown_workload_exits_2_and_names_the_workloads(capsys):
    # Exit 1 means "operations differ"; a typo must not read as one.
    with pytest.raises(SystemExit) as exit_info:
        compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "1", "--workload", "bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(repr(name) in err for name in compare_outputs.load_generator().WORKLOADS)
