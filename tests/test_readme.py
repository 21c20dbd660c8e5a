"""The README against the code: its library example runs, its Library table names
live callables, its synopses list each subcommand's flags, and it quotes no
measurement, which goes stale."""

import argparse
import importlib
import re
from pathlib import Path

import spiketrac
from spiketrac import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_library_example_runs(capsys):
    example = README.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (code,) = [body for lang, body in BLOCK.findall(example) if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_each_library_call_resolves():
    table = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    names = [name for cell in cells for name in re.findall(r"`([\w.]+)\(", cell)]
    assert len(names) >= len(cells)
    for name in names:
        module, _, attr = name.rpartition(".")
        owner = importlib.import_module(f"spiketrac.{module}") if module else spiketrac
        assert callable(getattr(owner, attr, None)), name


def test_each_synopsis_lists_exactly_its_subcommands_flags():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    synopses = {}
    for lang, body in BLOCK.findall(README):
        words = body.split()
        if lang == "sh" and words[:1] == ["spiketrac"]:
            synopses[words[1]] = set(re.findall(r"--[a-z][a-z0-9-]*", body))
    assert set(synopses) == set(sub.choices)
    for command, flags in synopses.items():
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert flags == {o for o in options if o.startswith("--")} - {"--help"}, command


def test_no_line_quotes_a_measurement():
    measured = [line for line in README.splitlines() if re.search(r"\d ?(ms|µs|MiB|GiB)\b", line)]
    assert measured == []
