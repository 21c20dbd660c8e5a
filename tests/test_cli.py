import io
import json
import math
import re
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trial_data import sample_log_text

from spiketrac import (
    DRY_SAND,
    SpikeDesign,
    evaluate_design,
    max_crescent_force,
    parse_trial_log,
    derive_series,
    detect_landslides,
    tractive_efficiency,
)
from spiketrac import cli
from spiketrac.cli import ConfigError, _atomic_write, load_draft_schedule, main


def run(*argv: str) -> int:
    return main(list(argv))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SPACE_AXES = ("radius_m", "hinge_height_m", "initial_rake_deg", "diameter_mm", "design_depth_m")


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
        ("flags", "given"),
        [
            ([], {}),
            (["--motion-threshold", "0.5"], {"motion_jump_threshold_m": 0.5}),
            (["--depth-threshold", "0.5"], {"depth_jump_threshold_m": 0.5}),
        ],
    )
    def test_a_threshold_left_out_keeps_the_library_default(self, flags, given, tmp_path):
        # Motion and depth increments on either side of 0.01 and 0.02 m.
        motion = [0, 5, 14, 25, 40, 65, 70, 82, 112]
        incl = [4.0, 4.3, 4.9, 5.8, 7.0, 8.5, 10.5, 10.9, 13.9]
        rows = [f"{i},{10.0 * i},{float(m)},{d}" for i, (m, d) in enumerate(zip(motion, incl))]
        log = tmp_path / "trial.csv"
        log.write_text("\n".join([*sample_log_text().splitlines()[:2], *rows]) + "\n")
        out = tmp_path / "report.json"
        assert run("analyze", "--log", str(log), "--out", str(out), *flags) == 0
        series = derive_series(parse_trial_log(log))
        events = detect_landslides(series, **given)
        assert events != detect_landslides(series, 0.02, 0.02)
        assert json.loads(out.read_text())["events"] == events

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

    @pytest.mark.parametrize(
        ("vehicle_kg", "row", "message"),
        [
            ("50.0", "0,1e308,0,10.0", "derived series overflows at step 0"),
        ],
    )
    def test_overflow_exits_3(self, vehicle_kg, row, message, tmp_path, capsys):
        header = sample_log_text(0).replace("vehicle_kg=50.0", f"vehicle_kg={vehicle_kg}")
        log = tmp_path / "log.csv"
        log.write_text(f"{header}{row}\n")
        out = tmp_path / "r.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_vertical_arm_exits_3(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(f"{sample_log_text(0)}0,0,0,10.0\n7,20,5,90.0\n")
        out = tmp_path / "r.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "error: the arm stands vertical at step 7: the lift is unbounded\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("radius_m=1.34", "radius_m=-1",
             "radius_m (-1.0) must exceed hinge_height_m (0.09) and both must be positive"),
            ("hinge_m=0.09", "hinge_m=2",
             "radius_m (1.34) must exceed hinge_height_m (2.0) and both must be positive"),
            ("rake0_deg=45.0", "rake0_deg=90", "initial_rake_deg (90.0) must lie in (0, 90)"),
            ("diameter_mm=21.0", "diameter_mm=-3", "diameter_mm (-3.0) must be positive"),
            ("pulley_mu=0.23", "pulley_mu=1.5", "friction_coefficient (1.5) must lie in [0, 1)"),
            ("vehicle_kg=50.0", "vehicle_kg=0", "total_mass_kg (0.0) must be positive"),
            ("vehicle_kg=50.0", "vehicle_kg=1e308",
             "vehicle weight overflows at total_mass_kg=1e+308"),
        ],
    )
    def test_header_out_of_range_exits_2(self, old, new, message, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(sample_log_text(0).replace(old, new, 1))
        out = tmp_path / "r.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {log}: line 1: bad metadata value: {message}\n"
        assert not out.exists()

    def test_overflowing_push_work_exits_3(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(f"{sample_log_text(0)}0,1e306,0,10.0\n")
        out = tmp_path / "r.json"
        argv = ("analyze", "--log", str(log), "--out", str(out), "--push-distance", "100")
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "error: draft * distance + penetration work overflows at "
            "draft_n=7.553700000000001e+306, push_distance_m=100.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("diameter_mm=21.0", "diameter_mm=nan",
             "bad metadata value: diameter_mm=nan is not a finite number"),
            ("diameter_mm=21.0", "diameter_mm=inf",
             "bad metadata value: diameter_mm=inf is not a finite number"),
            ("pulley_mu=0.23", "pulley_mu=nan",
             "bad metadata value: pulley_mu=nan is not a finite number"),
            ("pulley_mu=0.23", "pulley_mu=0.23 foo=1", "unknown metadata keys: foo"),
            ("site=dry", "site=dry site=moist", "metadata key 'site' is repeated"),
        ],
    )
    def test_header_contract_exits_2(self, old, new, message, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(sample_log_text().replace(old, new, 1))
        out = tmp_path / "r.json"
        assert run("analyze", "--log", str(log), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {log}: line 1: {message}\n"
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

    @pytest.mark.parametrize("law", ["active", "passive"])
    def test_overflowing_depth_names_depth_and_width(self, law, capsys):
        argv = ["--depth", "1e200", "--width", "0.021", "--soil", "preset:dry", "--law", law]
        assert run("crescent", *argv) == 3
        assert capsys.readouterr().err == (
            "error: crescent force overflows at depth_m=1e+200, width_m=0.021\n"
        )

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

    def test_infinite_pull_weight_ratio_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # (h + z) / r = 2e-300 / 1e300 underflows to 0: a valid, feasible
        # design whose zero thrust angle gives an infinite ratio.
        extreme = {"radius_m": 1e300, "hinge_height_m": 1e-300, "design_depth_m": 1e-300}
        assert evaluate_design(
            SpikeDesign(initial_rake_deg=30.0, diameter_mm=21.0, **extreme)
        ).objective == math.inf
        space = tmp_path / "space.json"
        self.write_space(
            space, **{key: {"start": v, "stop": v, "step": 1.0} for key, v in extreme.items()}
        )
        out = tmp_path / "ranked.csv"
        assert run("design", "--space", str(space), "--out", str(out)) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: design radius_m=1e+300, hinge_height_m=1e-300, initial_rake_deg=30, "
            "diameter_mm=21, design_depth_m=1e-300 has a pull/weight ratio of inf\n"
        )

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

    @pytest.mark.parametrize(
        ("flag", "value", "kind"),
        [("--k0", "0", "positive"), ("--k0", "-1", "positive"), ("--k1", "-1", "nonnegative")],
    )
    def test_out_of_range_critical_depth_flag_exits_2(self, flag, value, kind, tmp_path, capsys):
        space = tmp_path / "space.json"
        self.write_space(space)
        with pytest.raises(SystemExit) as exc:
            run("design", "--space", str(space), f"{flag}={value}")
        assert exc.value.code == 2
        assert f"invalid {kind} value: '{value}'" in capsys.readouterr().err

    def test_missing_space_key_exits_2(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"radius_m": {"start": 1, "stop": 1, "step": 1}}))
        assert run("design", "--space", str(space)) == 2
        assert "missing keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("steps", "message"),
        [
            # Five [0, 1] axes at step 0.01: 101**5 points.
            (dict.fromkeys(_SPACE_AXES, 0.01),
             "the grid has 10510100501 points, above the limit of 10000000"),
            ({"radius_m": 1e-300}, "points, above the limit of 10000000"),
            ({"radius_m": 5e-324}, "radius_m: (stop - start) / step overflows at step 5e-324"),
        ],
    )
    def test_oversized_grid_exits_2_at_once(self, steps, message, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {axis: {"start": 0, "stop": 1, "step": steps.get(axis, 1)} for axis in _SPACE_AXES}
        ))
        start = time.perf_counter()
        assert run("design", "--space", str(space)) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: design-space file {space}: ") and err.count("\n") == 1
        assert message in err

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

    def test_stdout_run_formats_no_column(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", *self.write_inputs(tmp_path, schedule="draft_N\n0\n5\n2000\n"),
                "--soil", "preset:dry"]
        out = tmp_path / "sim.csv"
        assert run(*argv, "--out", str(out)) == 0
        with_out = capsys.readouterr().out
        calls = []
        fmt_column = cli._fmt_column
        monkeypatch.setattr(cli, "_fmt_column", lambda values: calls.append(values) or fmt_column(values))
        assert run(*argv) == 0
        assert calls == []
        assert capsys.readouterr().out == with_out
        final_depth = out.read_text().splitlines()[-1].split(",")[1]
        assert with_out.startswith(f"3 steps: final depth {final_depth} m, ")

    def test_bad_schedule_header_exits_2(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"radius_m": 1.34, "design_depth_m": 0.5}))
        schedule = tmp_path / "drafts.csv"
        schedule.write_text("force\n100\n")
        assert run(
            "simulate", "--design", str(design), "--soil", "preset:dry",
            "--draft-schedule", str(schedule),
        ) == 2

    def test_a_lift_past_the_float_range_exits_3_and_writes_nothing(self, tmp_path, capsys):
        design = json.dumps({
            "radius_m": 1.0, "hinge_height_m": 0.6, "initial_rake_deg": 45.0,
            "diameter_mm": 21.0, "design_depth_m": 0.3, "tip_mass_kg": 0,
        })
        argv = self.write_inputs(tmp_path, design, "draft_N\n1e308\n1.7e308\n")
        out = tmp_path / "sim.csv"
        code = run("simulate", *argv, "--soil", "preset:dry", "--out", str(out))
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: draft 1.7e+308 N at depth 0.161679 m has a lift of inf N\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize(
        ("flag", "value", "kind"),
        [("--k0", "0", "positive"), ("--k0", "-1", "positive"), ("--k1", "-1", "nonnegative")],
    )
    def test_out_of_range_critical_depth_flag_exits_2(self, flag, value, kind, tmp_path, capsys):
        argv = self.write_inputs(tmp_path, schedule="draft_N\n100\n")
        with pytest.raises(SystemExit) as exc:
            run("simulate", *argv, "--soil", "preset:dry", f"{flag}={value}")
        assert exc.value.code == 2
        assert f"invalid {kind} value: '{value}'" in capsys.readouterr().err

    def test_vertical_arm_exits_3(self, tmp_path, capsys):
        # No lateral regime in reach: the draft sinks the tip to radius - hinge height.
        design = json.dumps({"radius_m": 1.0, "hinge_height_m": 0.1, "design_depth_m": 0.9})
        argv = self.write_inputs(tmp_path, design=design, schedule="draft_N\n0\n1e7\n")
        out = tmp_path / "sim.csv"
        code = run("simulate", *argv, "--soil", "preset:dry", "--k0", "1000", "--out", str(out))
        assert code == 3
        assert capsys.readouterr().err == (
            "error: draft_n (10000000.0) stands the arm vertical at depth_m=0.9: "
            "the lift is unbounded\n"
        )
        assert not out.exists()

    def test_zero_schedule_scans_no_crescent(self, tmp_path, capsys):
        # This crescent overflows at any depth below the surface, but no
        # draft asks for it.
        design = json.dumps({"radius_m": 1.34, "design_depth_m": 0.5, "diameter_mm": 1.7e308})
        argv = self.write_inputs(tmp_path, design=design, schedule="draft_N\n0\n0\n")
        assert run("simulate", *argv, "--soil", "preset:dry") == 0
        assert capsys.readouterr().out == (
            "2 steps: final depth 0 m, regime crescent, sustained yes\n"
        )
        (tmp_path / "drafts.csv").write_text("draft_N\n0\n1\n")
        assert run("simulate", *argv, "--soil", "preset:dry") == 3
        assert "crescent force overflows" in capsys.readouterr().err


def reference_schedule(path: Path) -> list[float]:
    """``load_draft_schedule`` as one per-line loop: parse, check, then compare with the last."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "draft_N"
    drafts = []
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"draft-schedule file {path}: line {number}: {exc}") from exc
        if value < 0 or not math.isfinite(value):
            raise ConfigError(
                f"draft-schedule file {path}: line {number}: draft must be finite and >= 0"
            )
        if drafts and value < drafts[-1]:
            raise ConfigError(
                f"draft-schedule file {path}: line {number}: draft ({value}) decreased "
                f"(previous {drafts[-1]}); weights are only added"
            )
        drafts.append(value)
    return drafts


def schedule_outcome(load, path: Path):
    try:
        return load(path)
    except ConfigError as exc:
        return str(exc)


_SCHEDULE_LINES = ["0", "1", "2.5", " 3 ", "1_0", "1e400", "-1", "-0.0", "nan", "inf", "-inf",
                   "x", "", "  "]


class TestDraftSchedule:
    # The first line out of contract is the error, whatever kind; on one
    # line a negative or non-finite draft is reported before a decrease.
    @pytest.mark.parametrize(
        "body",
        [
            "", "1\n2\n2\n", "5\n-1\n", "1\nnan\n0.5\n", "1\ninf\n", "1\n-inf\n",
            "1e400\n", "5\n\n \n3\n", "5\n3\nabc\n", "5\nabc\n-1\n", "-1\nabc\n",
            "1\n 2 \n\t\n3\n", "1_0\n9\n", "2\n1\n-1\n",
        ],
    )
    def test_messages_match_the_per_line_loop(self, body, tmp_path):
        path = tmp_path / "drafts.csv"
        path.write_text("draft_N\n" + body, encoding="utf-8")
        assert schedule_outcome(load_draft_schedule, path) == schedule_outcome(
            reference_schedule, path
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_SCHEDULE_LINES), max_size=8))
    def test_random_schedules_match_the_per_line_loop(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("schedule") / "drafts.csv"
        path.write_text("\n".join(["draft_N", *lines]) + "\n", encoding="utf-8")
        assert schedule_outcome(load_draft_schedule, path) == schedule_outcome(
            reference_schedule, path
        )


class TestJsonIntegers:
    # A JSON integer is kept as an int, but one past the float range is
    # rejected like 1e400, naming the file.
    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("kind", ["design", "soil", "constraints", "space"])
    def test_integer_beyond_the_float_range_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        if kind == "space":
            TestDesign.write_space(path)
            path.write_text(path.read_text().replace('"step": 0.1}', f'"step": {self.BIG}}}', 1))
            argv = ["design", "--space", str(path)]
        elif kind == "constraints":
            TestDesign.write_space(tmp_path / "space.json")
            path.write_text('{"max_thrust_deg": %s}' % self.BIG)
            argv = ["design", "--space", str(tmp_path / "space.json"), "--constraints", str(path)]
        else:
            inputs = TestSimulate.write_inputs(tmp_path, schedule="draft_N\n100\n")
            soil = "preset:dry"
            if kind == "design":
                path.write_text('{"radius_m": 1.34, "design_depth_m": 0.5, "diameter_mm": %s}' % self.BIG)
            else:
                path.write_text('{"bulk_density_kg_m3": %s, "friction_angle_deg": 30}' % self.BIG)
                soil = str(path)
            argv = ["simulate", *inputs, "--soil", soil]
        assert run(*argv) == 2
        label = "design-space" if kind == "space" else kind
        assert capsys.readouterr().err == (
            f"error: {label} file {path}: an integer of 401 digits is beyond the float range\n"
        )


class TestParserReuse:
    # main builds its parser once; a bad flag between calls leaves it as it was.
    def test_reused_parser_matches_fresh_calls(self, sample_log_path, tmp_path, monkeypatch):
        from spiketrac import cli

        space = {
            "radius_m": {"start": 1.0, "stop": 1.2, "step": 0.1},
            "hinge_height_m": {"start": 0.05, "stop": 0.09, "step": 0.04},
            "initial_rake_deg": {"start": 30.0, "stop": 50.0, "step": 10.0},
            "diameter_mm": {"start": 10.0, "stop": 20.0, "step": 10.0},
            "design_depth_m": {"start": 0.2, "stop": 0.4, "step": 0.2},
        }
        (tmp_path / "space.json").write_text(json.dumps(space))
        calls = [
            ["crescent", "--depth", "0.3", "--width", "0.021", "--soil", "preset:dry"],
            ["design", "--space", str(tmp_path / "space.json"), "--top", "3"],
            ["analyze", "--log", str(sample_log_path), "--out", str(tmp_path / "r.json"),
             "--push-distance", "-1"],
            ["analyze", "--log", str(sample_log_path), "--out", str(tmp_path / "r.json")],
        ]

        def outcome(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        cli._parser.cache_clear()
        original, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        reused = [outcome(argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
        assert len(built) == 1


class TestAtomicWrite:
    def test_a_failing_chunk_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"old bytes\n")

        def chunks():
            yield b"new "
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            _atomic_write(path, chunks())
        assert path.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob("*.tmp"))
