"""Import footprint: the package and the CLI load a library module only when it is used."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES, INPUTS

import spiketrac
import spiketrac.cli

SRC = Path(spiketrac.__file__).resolve().parents[1]
BASE = ["spiketrac", "spiketrac.cli"]
# Golden case -> the library modules its subcommand loads.
LOADED = {
    "analyze": ["geometry", "trials"],
    "crescent-active": ["geometry", "soilmech"],
    "design": ["design", "geometry", "soilmech"],
    "simulate": ["geometry", "simulate", "soilmech"],
}
# Appended to each child's code: prints the package's loaded modules.
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "spiketrac")))
"""


def loaded_after(code: str, *args: str, cwd: Path | None = None) -> list[str]:
    """The package's modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    ("statement", "loaded"), [("import spiketrac.cli", BASE), ("import spiketrac", BASE[:1])]
)
def test_importing_loads_no_library_module(statement, loaded):
    assert loaded_after(statement) == loaded


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_loads_no_library_module(argv):
    code = (
        "import sys\nfrom spiketrac.cli import main\n"
        "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
    )
    assert loaded_after(code, *argv) == BASE


@pytest.mark.parametrize("case", sorted(LOADED))
def test_a_subcommand_loads_only_its_modules(case, tmp_path):
    work = tmp_path / "inputs"
    shutil.copytree(INPUTS, work)
    code = "import sys\nfrom spiketrac.cli import main\nassert main(sys.argv[1:]) == 0\n"
    expected = BASE + [f"spiketrac.{module}" for module in LOADED[case]]
    assert loaded_after(code, *CASES[case], cwd=work) == sorted(expected)


def test_cli_names_are_the_library_objects():
    assert inspect.isfunction(spiketrac.cli.predict_series)
    for name in spiketrac.cli._NAMES:
        library = importlib.import_module(f"spiketrac.{spiketrac._OWNERS[name]}")
        assert getattr(spiketrac.cli, name) is getattr(library, name), name
    with pytest.raises(AttributeError):
        spiketrac.cli.no_such_name


def test_a_stand_in_set_before_the_first_dispatch_is_kept():
    code = (
        "import spiketrac.cli as cli\n"
        "def stand_in(*args, **kwargs):\n    raise ValueError('stand-in')\n"
        "cli.max_crescent_force = stand_in\n"
        "assert cli.main(['crescent', '--depth', '0.3', '--width', '0.021', "
        "'--soil', 'preset:dry']) == 3\n"
    )
    assert loaded_after(code) == BASE + ["spiketrac.geometry", "spiketrac.soilmech"]


def test_the_loaders_work_before_any_dispatch():
    code = (
        "from pathlib import Path\n"
        "import spiketrac, spiketrac.cli as cli\n"
        "assert cli.load_soil('preset:dry') is spiketrac.DRY_SAND\n"
        "assert cli.load_soil('preset:moist') is spiketrac.MOIST_SAND\n"
        "assert cli.load_soil('soil.json').moisture_label == 'moist'\n"
        "assert cli.load_design(Path('design.json')).radius_m > 0\n"
        "assert cli.load_constraints(None) == spiketrac.DesignConstraints()\n"
        "assert cli.load_constraints(Path('constraints.json')).require_lateral_at_design_depth\n"
        "assert cli.load_space(Path('space.json')).size() > 0\n"
    )
    loaded = loaded_after(code, cwd=INPUTS)
    assert loaded == BASE + [f"spiketrac.{module}" for module in ["design", "geometry", "soilmech"]]


def test_importing_builds_no_format_table():
    # Only the report's block formatter builds it; the ``%`` pass needs none.
    code = (
        "import numpy as np\n"
        "import spiketrac.cli as cli\n"
        "assert cli._format_tables.cache_info().currsize == 0\n"
        "cli._fmt_column([0.5] * 400)\n"
        "assert cli._format_tables.cache_info().currsize == 0\n"
        "cli._format_block(np.full(30, 0.5), np.empty((30, 3), np.uint64))\n"
        "assert cli._format_tables.cache_info().currsize == 1\n"
    )
    assert loaded_after(code) == BASE


def test_a_run_function_works_without_main():
    code = (
        "import argparse\n"
        "import spiketrac.cli as cli\n"
        "args = argparse.Namespace(beta_min=None, beta_max=None, soil='preset:dry', depth=0.3, "
        "width=0.021, law='active', out=None)\n"
        "assert cli.run_crescent(args) == 0\n"
    )
    assert loaded_after(code) == BASE + ["spiketrac.geometry", "spiketrac.soilmech"]
