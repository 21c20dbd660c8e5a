"""tools/compare_outputs.py on this checkout, against itself and against a changed copy."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

ARGS = ["--seeds", "1", "--workload", "simulate-schedules"]


def test_a_checkout_against_itself_exits_0(capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), *ARGS]) == 0
    assert capsys.readouterr().out == "0 of 16 operations differ\n"


def test_one_changed_format_string_exits_1_and_names_each_differing_operation(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "spiketrac" / "cli.py"
    old = 'f"{len(steps)} steps: final depth {_fmt(final.depth_m)} m, "'
    assert old in cli.read_text(encoding="utf-8")
    cli.write_text(cli.read_text(encoding="utf-8").replace(old, old.replace(" m, ", " metres, ")),
                   encoding="utf-8")
    assert compare_outputs.main([str(ROOT), str(tmp_path), *ARGS]) == 1
    lines = capsys.readouterr().out.splitlines()
    # The four schedules and the four golden simulate cases print their final depth.
    assert lines[-1] == "8 of 16 operations differ"
    differing = sorted(line.partition(": ")[2].rpartition(": ")[0] for line in lines[:-1])
    assert differing == sorted(
        [f"simulate-schedules seed 1 op {i:03d} (simulate)" for i in range(4)]
        + [f"golden {case}" for case in
           ("simulate", "simulate-deep", "simulate-surface", "simulate-unsustained")]
    )
    assert all(line.endswith(": stdout") for line in lines[:-1])
