"""tools/bench_pair.py aggregates canned result lines; no benchmark runs."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

MACHINE = "machine: nproc=2 cpu='Intel(R) Xeon(R) Processor' python=3.11.7 numpy=2.4.6"
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]
BOUNDS = {metric["name"]: metric for metric in END_TO_END}


def change_tree(tmp_path: Path) -> Path:
    """A change checkout holding only the BENCHMARK.json the recorder reads bounds from."""
    tree = tmp_path / "new"
    tree.mkdir()
    spec = json.dumps({"end_to_end": END_TO_END})
    (tree / "BENCHMARK.json").write_text(spec, encoding="utf-8")
    return tree


def result_line(wall_s: float, rss: float, failed: int = 0, attempted: int = 100) -> dict:
    """A run's last stdout line, as ``benchmark/run.py --trace 0`` prints it."""
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "peak_rss_mib": {"value": rss, "unit": "MiB"}},
    }


def test_summarize_takes_medians_and_inclusive_quartiles():
    pairs = [
        {"parent": result_line(p, 30.0), "change": result_line(c, 31.0, failed=f)}
        for p, c, f in [(1.0, 0.5, 0), (2.0, 2.5, 1), (3.0, 2.0, 0), (4.0, 3.0, 2)]
    ]
    entry = bench_pair.summarize(pairs)
    assert entry["runs"] == {"parent": 4, "change": 4}
    assert entry["failed"] == {"parent": "0 of 400", "change": "3 of 400"}
    wall = entry["metrics"]["wall_s"]
    assert wall == {
        "unit": "s",
        "parent": 2.5, "parent_quartiles": [1.75, 2.5, 3.25],
        "change": 2.25, "change_quartiles": [1.625, 2.25, 2.625],
    }
    assert entry["metrics"]["peak_rss_mib"]["change_quartiles"] == [31.0] * 3
    metrics = bench_pair.summarize(pairs, BOUNDS)["metrics"]
    assert metrics["wall_s"]["pairs_change_won"] == "3 of 4"
    assert metrics["peak_rss_mib"]["pairs_change_won"] == "0 of 4"
    assert entry["pairs"][1] == {
        "first": None,
        "parent": {"wall_s": 2.0, "peak_rss_mib": 30.0},
        "change": {"wall_s": 2.5, "peak_rss_mib": 31.0},
    }


def test_summarize_rounds_to_six_places_and_takes_one_pair():
    entry = bench_pair.summarize([{"parent": result_line(0.1234567, 1.0),
                                   "change": result_line(0.1234564, 1.0)}], BOUNDS)
    assert entry["metrics"]["wall_s"]["parent_quartiles"] == [0.123457] * 3
    assert entry["metrics"]["wall_s"]["change"] == 0.123456
    assert entry["metrics"]["wall_s"]["pairs_change_won"] == "1 of 1"


def test_summarize_flags_only_the_metric_beyond_its_bound():
    pairs = [{"parent": result_line(1.0, 40.0), "change": result_line(1.2, 45.0)}]
    wall, rss = bench_pair.summarize(pairs, BOUNDS)["metrics"].values()
    assert (wall["change_vs_parent"], wall["beyond_bound"]) == (0.2, False)
    assert (rss["change_vs_parent"], rss["beyond_bound"]) == (0.125, True)
    assert "beyond_bound" not in bench_pair.summarize(pairs)["metrics"]["wall_s"]


def test_summarize_honours_higher_is_better():
    bounds = {"wall_s": {"name": "wall_s", "better": "higher", "bound": 0.1}}
    rising = [{"parent": result_line(1.0, 1.0), "change": result_line(1.5, 1.0)}]
    falling = [{"parent": result_line(1.0, 1.0), "change": result_line(0.8, 1.0)}]
    assert bench_pair.summarize(rising, bounds)["metrics"]["wall_s"]["beyond_bound"] is False
    assert bench_pair.summarize(falling, bounds)["metrics"]["wall_s"]["beyond_bound"] is True
    assert bench_pair.summarize(rising, bounds)["metrics"]["wall_s"]["pairs_change_won"] == "1 of 1"
    assert bench_pair.summarize(falling, bounds)["metrics"]["wall_s"]["pairs_change_won"] == "0 of 1"


def test_pairs_won_are_counted_on_every_bounded_metric_in_its_direction():
    """A pair is won only where the change is strictly better; a metric
    without a bound gets no count."""
    bounds = {**BOUNDS, "peak_rss_mib": {"name": "peak_rss_mib", "better": "higher", "bound": 0.1}}
    pairs = [
        {"parent": result_line(p, pr), "change": result_line(c, cr)}
        for p, c, pr, cr in [(1.0, 0.9, 40.0, 41.0), (1.0, 1.0, 40.0, 40.0),
                             (1.0, 1.1, 40.0, 39.0), (1.0, 0.8, 40.0, 42.0)]
    ]
    metrics = bench_pair.summarize(pairs, bounds)["metrics"]
    assert metrics["wall_s"]["pairs_change_won"] == "2 of 4"
    assert metrics["peak_rss_mib"]["pairs_change_won"] == "2 of 4"
    lower = bench_pair.summarize(pairs, BOUNDS)["metrics"]["peak_rss_mib"]
    assert lower["pairs_change_won"] == "1 of 4"
    only_wall = bench_pair.summarize(pairs, {"wall_s": BOUNDS["wall_s"]})["metrics"]
    assert "pairs_change_won" not in only_wall["peak_rss_mib"]
    # A parent median of zero gets a count, but no ratio.
    zero = [{"parent": result_line(0.0, 40.0), "change": result_line(0.1, 40.0)}]
    wall = bench_pair.summarize(zero, BOUNDS)["metrics"]["wall_s"]
    assert wall["pairs_change_won"] == "0 of 1" and "change_vs_parent" not in wall


def test_gain_shown_needs_nine_tenths_of_the_pairs_and_medians_apart_beyond_the_parents_spread():
    parent = [1.0 + k / 100 for k in range(10)]  # quartiles 1.0225 and 1.0675

    def metrics(change, bounds=BOUNDS):
        pairs = [{"parent": result_line(p, 30.0), "change": result_line(c, 30.0)}
                 for p, c in zip(parent, change)]
        return bench_pair.summarize(pairs, bounds)["metrics"]

    far = [p - 0.2 for p in parent]
    assert metrics(far)["wall_s"]["gain_shown"] is True
    assert metrics(far)["peak_rss_mib"]["gain_shown"] is False  # ten ties win nothing
    nine = metrics(far[:9] + [parent[9] + 0.5])["wall_s"]
    assert (nine["pairs_change_won"], nine["gain_shown"]) == ("9 of 10", True)
    eight = metrics(far[:8] + parent[8:])["wall_s"]
    assert (eight["pairs_change_won"], eight["gain_shown"]) == ("8 of 10", False)
    # Every pair won, but the medians lie 0.01 apart within a spread of 0.045.
    near = metrics([p - 0.01 for p in parent])["wall_s"]
    assert (near["pairs_change_won"], near["gain_shown"]) == ("10 of 10", False)
    higher = {"wall_s": {"name": "wall_s", "better": "higher", "bound": 0.1}}
    assert metrics([p + 0.2 for p in parent], higher)["wall_s"]["gain_shown"] is True
    assert metrics(far, higher)["wall_s"]["gain_shown"] is False


def test_main_prints_one_line_per_metric_beyond_its_bound(tmp_path, monkeypatch, capsys):
    def fake_run(tree, workload, seed, seconds):
        return MACHINE, result_line(1.0, 40.0 if tree.name == "old" else 45.0)

    monkeypatch.setattr(bench_pair, "run_once", fake_run)
    args = [str(tmp_path / "old"), str(change_tree(tmp_path)), "--workload", "design-grid:2",
            "--seeds", "1", "--seconds", "5", "--out", str(tmp_path / "bench.json"),
            "--parent-commit", "813b86f"]
    assert bench_pair.main(args) == 0
    flagged = [line for line in capsys.readouterr().err.splitlines() if "bound" in line]
    assert flagged == [
        "bench_pair: design-grid seed 1: peak_rss_mib 40.0 -> 45.0 (+12.5%) is worse "
        "than its bound of 10%"
    ]


def test_checkout_paths_of_unequal_length_are_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: pytest.fail("a benchmark ran"))
    parent = tmp_path / "older"
    args = [str(parent), str(change_tree(tmp_path)), "--workload", "design-grid:2",
            "--seeds", "1", "--seconds", "5", "--out", str(tmp_path / "bench.json")]
    assert bench_pair.main(args) == 2
    lengths = (len(str(parent.resolve())), len(str(parent.resolve())) - 2)
    assert capsys.readouterr().err == (
        f"bench_pair: the checkout paths differ in length (parent {lengths[0]}, "
        f"change {lengths[1]} characters); use paths of one length\n"
    )
    assert not (tmp_path / "bench.json").exists()


def test_host_reads_the_machine_line():
    assert bench_pair.host(MACHINE) == "2 vCPU Intel(R) Xeon(R) Processor, Python 3.11.7, numpy 2.4.6"


def test_workload_pairs():
    assert bench_pair.workload_pairs("design-grid:10") == ("design-grid", 10)
    assert bench_pair.workload_pairs("field-session") == ("field-session", 1)
    with pytest.raises(argparse.ArgumentTypeError, match="must be positive"):
        bench_pair.workload_pairs("field-session:0")


def test_sides_alternate_and_the_file_is_written(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        wall = 1.0 if tree.name == "old" else 0.9
        return MACHINE, result_line(wall + len(calls) / 1000, 30.0)

    monkeypatch.setattr(bench_pair, "run_once", fake_run)
    out = tmp_path / "bench.json"
    args = [str(tmp_path / "old"), str(change_tree(tmp_path)), "--workload", "design-grid:3",
            "--workload", "field-session:1", "--seeds", "1", "2", "--seconds", "5",
            "--out", str(out), "--parent-commit", "813b86f"]
    assert bench_pair.main(args) == 0
    assert [name for name, *_ in calls[:6]] == ["old", "new", "new", "old", "old", "new"]
    assert {(w, s) for _, w, s, _ in calls} == {
        ("design-grid", 1), ("design-grid", 2), ("field-session", 1), ("field-session", 2)
    }
    assert len(calls) == 2 * (3 + 3 + 1 + 1) and {c[3] for c in calls} == {5}
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["host"] == "2 vCPU Intel(R) Xeon(R) Processor, Python 3.11.7, numpy 2.4.6"
    assert record["parent"] == "813b86f"
    assert record["command"].endswith("--seconds 5 --trace 0")
    assert list(record["workloads"]) == ["design-grid", "field-session"]
    assert list(record["workloads"]["design-grid"]) == ["seed 1", "seed 2"]
    metrics = record["workloads"]["design-grid"]["seed 1"]["metrics"]
    assert metrics["wall_s"]["pairs_change_won"] == "3 of 3"
    assert metrics["peak_rss_mib"]["pairs_change_won"] == "0 of 3"  # ties are not won
    # Every run is kept, in run order, with the side that ran first.
    pairs = record["workloads"]["design-grid"]["seed 1"]["pairs"]
    assert [pair["first"] for pair in pairs] == ["parent", "change", "parent"]
    walls = [(pair["parent"]["wall_s"], pair["change"]["wall_s"]) for pair in pairs]
    assert walls == [(1.001, 0.902), (1.004, 0.903), (1.005, 0.906)]
    assert set(pairs[0]["change"]) == {"wall_s", "peak_rss_mib"}
    assert record["workloads"]["field-session"]["seed 2"]["runs"] == {"parent": 1, "change": 1}


def test_a_parent_tree_outside_git_needs_its_commit_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: pytest.fail("a benchmark ran"))
    parent = tmp_path / "old"
    parent.mkdir()
    args = [str(parent), str(change_tree(tmp_path)), "--workload", "design-grid:2",
            "--seeds", "1", "--seconds", "5", "--out", str(tmp_path / "bench.json")]
    assert bench_pair.main(args) == 2
    assert capsys.readouterr().err == (
        f"bench_pair: {parent} is not a git checkout; name its commit with --parent-commit\n"
    )
    assert not (tmp_path / "bench.json").exists()


def test_the_parent_commit_comes_from_git_in_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: (MACHINE, result_line(1.0, 30.0)))
    parent = tmp_path / "old"
    parent.mkdir()
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=parent, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "parent"], cwd=parent, check=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=parent, check=True,
                            capture_output=True, text=True).stdout.strip()
    out = tmp_path / "bench.json"
    args = [str(parent), str(change_tree(tmp_path)), "--workload", "design-grid:1",
            "--seeds", "1", "--seconds", "5", "--out", str(out)]
    assert bench_pair.main(args) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["parent"] == commit
