import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trial_data import sample_log_text

from spiketrac import (
    DRY_SAND,
    max_crescent_force,
    parse_trial_log,
    derive_series,
    tractive_efficiency,
)
from spiketrac.cli import main


def run(*argv: str) -> int:
    return main(list(argv))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestAnalyze:
    def test_report_structure_and_summary(self, sample_log_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            "analyze", "--log", str(sample_log_path), "--out", str(out),
            "--push-distance", "2.0",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"metadata", "series", "events", "summary"}
        assert report["metadata"]["site"] == "dry"
        assert report["events"] == [7, 14]
        assert len(report["series"]["draft_N"]) == 20
        assert report["summary"]["stability"]["first_liftoff_step"] is None
        assert report["summary"]["kappa_estimate"] == 1.0

        log = parse_trial_log(sample_log_path)
        series = derive_series(log)
        expected_eta = tractive_efficiency(
            series.cumulative_work_j[-1], series.draft_n[-1], 2.0
        )
        assert report["summary"]["efficiency_at_push"] == pytest.approx(expected_eta, rel=1e-5)
        assert report["summary"]["max_draft_N"] == pytest.approx(max(series.draft_n), rel=1e-5)
        assert report["summary"]["final_depth_m"] == pytest.approx(series.depth_m[-1], rel=1e-5)
        assert "20 steps" in capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, sample_log_path, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run("analyze", "--log", str(sample_log_path), "--out", str(first)) == 0
        assert run("analyze", "--log", str(sample_log_path), "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_series_csvs_written(self, sample_log_path, tmp_path):
        out = tmp_path / "report.json"
        series_dir = tmp_path / "series"
        code = run(
            "analyze", "--log", str(sample_log_path), "--out", str(out),
            "--series", str(series_dir),
        )
        assert code == 0
        names = sorted(p.name for p in series_dir.iterdir())
        assert names == [
            "depth_filtered.csv",
            "depth_raw.csv",
            "lift_force.csv",
            "penetration_work.csv",
            "thrust_angle.csv",
            "tip_trajectory.csv",
        ]
        lines = (series_dir / "depth_raw.csv").read_text().splitlines()
        assert lines[0] == "draft_N,depth_m"
        assert len(lines) == 21
        lift_header = (series_dir / "lift_force.csv").read_text().splitlines()[0]
        assert lift_header == "draft_N,lift_N,weight_N"

    def test_empty_log_gives_null_summary(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text(
            "# site=moist diameter_mm=21.0 radius_m=1.34 hinge_m=0.09 "
            "rake0_deg=45.0 vehicle_kg=50.0 pulley_mu=0.23\n"
            "step,basket_kg,motion_mm,incl_deg\n"
        )
        out = tmp_path / "report.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["series"]["draft_N"] == []
        assert report["events"] == []
        summary = report["summary"]
        assert summary["max_draft_N"] is None
        assert summary["final_depth_m"] is None
        assert summary["penetration_work_J"] is None
        assert summary["efficiency_at_push"] is None
        assert summary["kappa_estimate"] is None
        assert summary["stability"]["first_liftoff_step"] is None

    def test_missing_log_leaves_no_partial_output(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("analyze", "--log", str(tmp_path / "nope.csv"), "--out", str(out))
        assert code == 4
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_malformed_log_exits_with_parse_code(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text(sample_log_text().replace("13,130.0,", "13,1.0,"))
        out = tmp_path / "report.json"
        code = run("analyze", "--log", str(log), "--out", str(out))
        assert code == 2
        assert "line" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_log_exits_with_parse_code(self, tmp_path, capsys):
        log = tmp_path / "utf16.csv"
        log.write_text(sample_log_text(), encoding="utf-16")  # starts with ff fe
        out = tmp_path / "report.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 2
        assert "can't decode" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_overrides_change_events(self, sample_log_path, tmp_path):
        out = tmp_path / "report.json"
        run(
            "analyze", "--log", str(sample_log_path), "--out", str(out),
            "--depth-threshold", "0.004", "--motion-threshold", "0.004",
        )
        report = json.loads(out.read_text())
        # Every step now clears the thresholds.
        assert report["events"] == list(range(1, 20))

    @pytest.mark.parametrize(
        ("flag", "value", "kind"),
        [
            ("--push-distance", "-1", "nonnegative"),
            ("--depth-threshold", "0", "positive"),
            ("--depth-threshold", "-1", "positive"),
            ("--motion-threshold", "0", "positive"),
            ("--motion-threshold", "-1", "positive"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, flag, value, kind, sample_log_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run("analyze", "--log", str(sample_log_path), "--out", str(out), f"{flag}={value}")
        assert exc.value.code == 2
        assert f"invalid {kind} value: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_push_distance_gives_zero_efficiency(self, sample_log_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "analyze", "--log", str(sample_log_path), "--out", str(out), "--push-distance", "0",
        )
        assert code == 0
        assert json.loads(out.read_text())["summary"]["efficiency_at_push"] == 0.0


class TestCrescent:
    def test_preset_dry_matches_library(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code = run(
            "crescent", "--depth", "0.30", "--width", "0.021",
            "--soil", "preset:dry", "--out", str(curve),
        )
        assert code == 0
        out = capsys.readouterr().out
        result = max_crescent_force(0.30, 0.021, DRY_SAND)
        assert f"beta_star_deg={result.beta_star_deg:.6g}" in out
        assert f"force_N={result.force_n:.6g}" in out
        lines = curve.read_text().splitlines()
        assert lines[0] == "beta_deg,force_N"
        assert len(lines) == 1 + len(result.curve)

    def test_zero_depth_prints_zero_force(self, capsys):
        assert run("crescent", "--depth", "0", "--width", "0.021", "--soil", "preset:dry") == 0
        assert "force_N=0" in capsys.readouterr().out

    def test_soil_json_file(self, tmp_path, capsys):
        soil = tmp_path / "soil.json"
        soil.write_text(json.dumps({
            "bulk_density_kg_m3": 1720.0,
            "friction_angle_deg": 30.0,
            "moisture_label": "dry",
        }))
        assert run("crescent", "--depth", "0.30", "--width", "0.021", "--soil", str(soil)) == 0
        assert "beta_star_deg=45.5" in capsys.readouterr().out

    def test_invalid_beta_range_exits_2(self, capsys):
        code = run(
            "crescent", "--depth", "0.3", "--width", "0.021", "--soil", "preset:dry",
            "--beta-min", "70", "--beta-max", "50",
        )
        assert code == 2
        assert "--beta-min" in capsys.readouterr().err

    def test_empty_scan_domain_exits_3(self):
        code = run(
            "crescent", "--depth", "0.3", "--width", "0.021", "--soil", "preset:dry",
            "--beta-min", "89.95", "--beta-max", "89.99",
        )
        assert code == 3

    def test_unknown_preset_exits_2(self):
        code = run("crescent", "--depth", "0.3", "--width", "0.021", "--soil", "preset:mud")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--depth", "--width", "--beta-min"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exits_2(self, flag, value, capsys):
        flags = {"--depth": "0.3", "--width": "0.021", "--beta-min": "40", flag: value}
        with pytest.raises(SystemExit) as exc:
            run("crescent", "--soil", "preset:dry", *(f"{k}={v}" for k, v in flags.items()))
        assert exc.value.code == 2
        assert f"invalid finite value: '{value}'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["--depth=1e200", "--width=0.021"],
            ["--depth=0.3", "--width=1e308"],
        ],
    )
    def test_overflowing_force_exits_3(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("crescent", "--soil", "preset:dry", *argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(
        depth=_FINITE,
        width=_FINITE,
        beta_min=st.none() | _FINITE,
        beta_max=st.none() | _FINITE,
        law=st.sampled_from(["active", "passive"]),
    )
    def test_exit_codes_and_finite_output(self, depth, width, beta_min, beta_max, law):
        argv = ["crescent", f"--depth={depth!r}", f"--width={width!r}", "--soil", "preset:dry"]
        argv += [f"--beta-min={beta_min!r}"] if beta_min is not None else []
        argv += [f"--beta-max={beta_max!r}"] if beta_max is not None else []
        stdout, stderr = io.StringIO(), io.StringIO()
        # A numpy warning would go to stderr beside the documented outputs.
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([*argv, "--law", law])
        assert code in (0, 2, 3, 4)
        if code == 0:
            numbers = re.fullmatch(r"beta_star_deg=(\S+) force_N=(\S+)\n", stdout.getvalue())
            assert numbers and all(math.isfinite(float(x)) for x in numbers.groups())
            assert stderr.getvalue() == ""
        else:
            assert stdout.getvalue() == "" and stderr.getvalue().count("\n") == 1


class TestDesign:
    @staticmethod
    def write_space(path, **overrides):
        space = {
            "radius_m": {"start": 1.5, "stop": 1.5, "step": 0.1},
            "hinge_height_m": {"start": 0.09, "stop": 0.09, "step": 0.01},
            "initial_rake_deg": {"start": 30.0, "stop": 30.0, "step": 1.0},
            "diameter_mm": {"start": 21.0, "stop": 21.0, "step": 1.0},
            "design_depth_m": {"start": 0.40, "stop": 0.40, "step": 0.1},
        }
        space.update(overrides)
        path.write_text(json.dumps(space))

    def test_single_feasible_point(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        out = tmp_path / "ranked.csv"
        assert run("design", "--space", str(space), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("radius_m,")
        assert len(lines) == 2
        assert lines[1].startswith("1.5,")
        assert "1 feasible" in capsys.readouterr().out

    def test_field_designs_infeasible_with_summary_line(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(
            space,
            radius_m={"start": 0.58, "stop": 1.34, "step": 0.76},
            initial_rake_deg={"start": 45.0, "stop": 45.0, "step": 1.0},
            design_depth_m={"start": 0.15, "stop": 0.15, "step": 0.1},
            diameter_mm={"start": 12.0, "stop": 12.0, "step": 1.0},
        )
        out = tmp_path / "ranked.csv"
        assert run("design", "--space", str(space), "--out", str(out)) == 0
        assert out.read_text().splitlines()[1:] == []
        messages = capsys.readouterr().out
        assert "0 feasible" in messages
        assert "most common violation: penetration_window" in messages

    def test_top_truncates_after_ranking(self, tmp_path):
        space = tmp_path / "space.json"
        # Three radii, all feasible, objectives strictly increasing with
        # radius: --top 1 must keep the 1.8 m design.
        self.write_space(space, radius_m={"start": 1.2, "stop": 1.8, "step": 0.3})
        out = tmp_path / "ranked.csv"
        assert run("design", "--space", str(space), "--top", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1.8,")

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2(self, top, capsys):
        space = str(Path(__file__).parent / "golden" / "inputs" / "space.json")
        with pytest.raises(SystemExit) as exc:
            run("design", "--space", space, "--top", top)
        assert exc.value.code == 2
        assert f"invalid positive_int value: '{top}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", '"0.1"', "null"])
    def test_non_number_space_step_exits_2(self, value, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        space.write_text(space.read_text().replace('"step": 0.01', f'"step": {value}'))
        assert run("design", "--space", str(space)) == 2
        assert f"hinge_height_m: step must be a number, not {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ['"false"', "0"])
    def test_non_boolean_lateral_flag_exits_2(self, value, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        constraints = tmp_path / "constraints.json"
        constraints.write_text('{"require_lateral_at_design_depth": %s}' % value)
        assert run("design", "--space", str(space), "--constraints", str(constraints)) == 2
        assert f"must be true or false, not {value}" in capsys.readouterr().err

    def test_constraints_file(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_thrust_deg": 10.0}))
        assert run("design", "--space", str(space), "--constraints", str(constraints)) == 0
        assert "most common violation: max_thrust" in capsys.readouterr().out

    def test_missing_space_key_exits_2(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"radius_m": {"start": 1, "stop": 1, "step": 1}}))
        assert run("design", "--space", str(space)) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_non_finite_space_step_exits_2(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        space.write_text(space.read_text().replace('"step": 0.01', '"step": NaN'))
        assert run("design", "--space", str(space)) == 2
        assert "NaN is not a finite number" in capsys.readouterr().err


class TestSimulate:
    def test_schedule_to_csv(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({
            "radius_m": 1.34,
            "hinge_height_m": 0.09,
            "initial_rake_deg": 45.0,
            "diameter_mm": 21.0,
            "design_depth_m": 0.50,
            "tip_mass_kg": 2.9,
        }))
        schedule = tmp_path / "drafts.csv"
        schedule.write_text("draft_N\n0\n5\n2000\n")
        out = tmp_path / "sim.csv"
        code = run(
            "simulate", "--design", str(design), "--soil", "preset:dry",
            "--draft-schedule", str(schedule), "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "draft_N,depth_m,regime,sustained,thrust_deg,rake_deg,lift_N"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,crescent,true")
        assert ",lateral,true," in lines[3]
        assert "final depth" in capsys.readouterr().out

    def test_bad_schedule_header_exits_2(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"radius_m": 1.34, "design_depth_m": 0.5}))
        schedule = tmp_path / "drafts.csv"
        schedule.write_text("force\n100\n")
        assert run(
            "simulate", "--design", str(design), "--soil", "preset:dry",
            "--draft-schedule", str(schedule),
        ) == 2

    @staticmethod
    def write_inputs(tmp_path, design=None, schedule="draft_N\n"):
        design_path = tmp_path / "design.json"
        design_path.write_text(design or json.dumps({"radius_m": 1.34, "design_depth_m": 0.5}))
        schedule_path = tmp_path / "drafts.csv"
        schedule_path.write_text(schedule)
        return ["--design", str(design_path), "--draft-schedule", str(schedule_path)]

    @pytest.mark.parametrize("kind", ["soil", "design", "constraints"])
    def test_unknown_design_key_exits_2(self, kind, tmp_path, capsys):
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps({"radius_m": 1.34, "length_m": 2.0}))
        if kind == "constraints":
            space = tmp_path / "space.json"
            TestDesign.write_space(space)
            argv = ["design", "--space", str(space), "--constraints", str(bad)]
        elif kind == "soil":
            argv = ["simulate", *self.write_inputs(tmp_path), "--soil", str(bad)]
        else:
            inputs = self.write_inputs(tmp_path, design=bad.read_text())
            argv = ["simulate", *inputs, "--soil", "preset:dry"]
        assert run(*argv) == 2
        assert f"{kind} file" in (err := capsys.readouterr().err)
        assert "unknown keys" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_design_value_exits_2(self, literal, tmp_path, capsys):
        design = '{"radius_m": 1.34, "design_depth_m": 0.5, "diameter_mm": %s}' % literal
        argv = self.write_inputs(tmp_path, design=design, schedule="draft_N\n100\n")
        assert run("simulate", *argv, "--soil", "preset:dry") == 2
        assert f"{literal} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["radius_m", "design_depth_m"])
    def test_boolean_design_value_exits_2(self, key, tmp_path, capsys):
        design = json.dumps({"radius_m": 1.34, "design_depth_m": 0.5, key: True})
        argv = self.write_inputs(tmp_path, design=design, schedule="draft_N\n100\n")
        assert run("simulate", *argv, "--soil", "preset:dry") == 2
        assert f"design file {argv[1]}: {key} must be a number, not true" in (
            capsys.readouterr().err
        )

    def test_boolean_soil_value_exits_2(self, tmp_path, capsys):
        soil = tmp_path / "soil.json"
        soil.write_text(json.dumps({"bulk_density_kg_m3": 1720.0, "friction_angle_deg": True}))
        argv = self.write_inputs(tmp_path, schedule="draft_N\n100\n")
        assert run("simulate", *argv, "--soil", str(soil)) == 2
        assert "friction_angle_deg must be a number, not true" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["design", "schedule"])
    def test_non_utf8_input_exits_2(self, target, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, schedule="draft_N\n100\n")
        path = Path(argv[1] if target == "design" else argv[3])
        path.write_bytes(path.read_text().encode("utf-16"))  # starts with ff fe
        assert run("simulate", *argv, "--soil", "preset:dry") == 2
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_decreasing_schedule_exits_2(self, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, schedule="draft_N\n2000\n1\n")
        assert run("simulate", *argv, "--soil", "preset:dry") == 2
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "decreased" in err
