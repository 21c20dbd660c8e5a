import io
import math

import pytest
from trial_data import LARGE_FIELD_DESIGN

from spiketrac import (
    DerivedSeries,
    PulleyRig,
    TrialLog,
    TrialLogError,
    TrialMetadata,
    TrialStep,
    VehicleConfig,
    derive_series,
    detect_landslides,
    draft_from_basket,
    estimate_effective_application,
    landslide_filter,
    parse_trial_log,
    penetration_work,
    stability_check,
    tractive_efficiency,
    write_trial_log,
)

HEADER = (
    "# site=dry diameter_mm=21.0 radius_m=1.34 hinge_m=0.09 rake0_deg=45.0 "
    "vehicle_kg=50.0 pulley_mu=0.23"
)
COLUMNS = "step,basket_kg,motion_mm,incl_deg"


def log_from_rows(*rows: str) -> TrialLog:
    text = "\n".join([HEADER, COLUMNS, *rows]) + "\n"
    return parse_trial_log(io.StringIO(text))


def make_series(**columns) -> DerivedSeries:
    n = len(columns["draft_n"])
    defaults = dict(
        draft_n=[0.0] * n,
        depth_m=[0.0] * n,
        thrust_deg=[0.0] * n,
        lift_n=[0.0] * n,
        tip_x_m=[0.0] * n,
        cumulative_work_j=[0.0] * n,
        motion_m=[0.0] * n,
        airborne=[False] * n,
    )
    defaults.update(columns)
    return DerivedSeries(**defaults)


class TestDraftFromBasket:
    def test_rig_calibration_point(self):
        # 265 kg at the basket produced a 2 kN draft on the field rig.
        draft = draft_from_basket(265.0, PulleyRig())
        assert draft == pytest.approx(2001.7305)
        assert abs(draft - 2000.0) / 2000.0 < 0.01

    def test_empty_basket(self):
        assert draft_from_basket(0.0) == 0.0

    def test_direct_evaluation(self):
        assert draft_from_basket(100.0) == pytest.approx(755.37)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="basket_mass_kg"):
            draft_from_basket(-1.0)


class TestParseTrialLog:
    def test_well_formed_rows(self):
        log = log_from_rows("0,0,0,5.0", "1,50,120,9.2", "2,80,200,12.5")
        assert len(log) == 3
        assert log.metadata.site == "dry"
        assert log.metadata.radius_m == 1.34
        assert log.steps[2] == TrialStep(index=2, basket_kg=80.0, motion_mm=200.0, incl_deg=12.5)

    def test_header_only_gives_empty_log(self):
        log = log_from_rows()
        assert len(log) == 0

    def test_decreasing_mass_names_line_and_rule(self):
        with pytest.raises(TrialLogError, match="line 5") as excinfo:
            log_from_rows("0,0,0,5.0", "1,50,120,9.2", "2,40,200,12.5")
        assert "basket_kg" in str(excinfo.value)
        assert excinfo.value.line == 5

    def test_decreasing_motion_rejected(self):
        with pytest.raises(TrialLogError, match="motion_mm"):
            log_from_rows("0,0,50,5.0", "1,50,20,9.2")

    def test_inclination_out_of_range(self):
        with pytest.raises(TrialLogError, match="incl_deg"):
            log_from_rows("0,0,0,90.5")

    def test_non_increasing_step_index(self):
        with pytest.raises(TrialLogError, match="step index"):
            log_from_rows("0,0,0,5.0", "0,50,120,9.2")

    def test_missing_metadata_key(self):
        text = "# site=dry diameter_mm=21\n" + COLUMNS + "\n"
        with pytest.raises(TrialLogError, match="missing keys"):
            parse_trial_log(io.StringIO(text))

    def test_bad_column_header(self):
        text = HEADER + "\nstep,mass,motion,incl\n"
        with pytest.raises(TrialLogError, match="line 2"):
            parse_trial_log(io.StringIO(text))

    def test_round_trip_is_exact(self, tmp_path):
        log = log_from_rows("0,0,0,5.0", "1,50.5,120.25,9.2", "3,80,200,12.5")
        path = tmp_path / "out.csv"
        write_trial_log(log, path)
        assert parse_trial_log(path) == log


class TestDeriveSeries:
    def test_moist_small_spike_point(self):
        # 132.5 kg basket (about 1 kN draft) at 28 deg and 220 mm of motion.
        meta = TrialMetadata(
            site="moist", diameter_mm=12.0, radius_m=0.58, hinge_m=0.09,
            rake0_deg=45.0, vehicle_kg=50.0, pulley_mu=0.23,
        )
        log = TrialLog(
            metadata=meta,
            steps=(TrialStep(index=0, basket_kg=132.5, motion_mm=220.0, incl_deg=28.0),),
        )
        series = derive_series(log)
        assert series.draft_n[0] == pytest.approx(1000.865, abs=0.01)
        assert series.depth_m[0] == pytest.approx(0.18229350641581663)
        assert series.thrust_deg[0] == 28.0

    def test_surface_rest_step_is_all_zero(self):
        meta = TrialMetadata(
            site="dry", diameter_mm=21.0, radius_m=1.34, hinge_m=0.09,
            rake0_deg=45.0, vehicle_kg=50.0, pulley_mu=0.23,
        )
        gamma0 = math.degrees(math.asin(0.09 / 1.34))
        log = TrialLog(
            metadata=meta,
            steps=(TrialStep(index=0, basket_kg=0.0, motion_mm=0.0, incl_deg=gamma0),),
        )
        series = derive_series(log)
        assert series.draft_n.tolist() == [0.0]
        assert series.depth_m[0] == pytest.approx(0.0, abs=1e-12)
        assert series.lift_n.tolist() == [0.0]
        assert series.tip_x_m.tolist() == [0.0]
        assert series.cumulative_work_j.tolist() == [0.0]

    def test_two_step_hand_computed(self):
        # Hand-computed from the 1.34 m / 0.09 m geometry and 0.23 pulley
        # friction: steps (50 kg, 100 mm, 10 deg) and (120 kg, 250 mm, 20 deg).
        log = log_from_rows("0,50,100,10.0", "1,120,250,20.0")
        series = derive_series(log)
        assert series.draft_n[0] == pytest.approx(377.685)
        assert series.draft_n[1] == pytest.approx(906.444)
        assert series.depth_m[0] == pytest.approx(0.14268855807368666)
        assert series.depth_m[1] == pytest.approx(0.36830699205639605)
        assert series.lift_n[0] == pytest.approx(66.59605570887659)
        assert series.lift_n[1] == pytest.approx(329.9186350291935)
        assert series.tip_x_m == pytest.approx([0.0, 0.08954572281675854])
        assert series.cumulative_work_j == pytest.approx([0.0, 57.49412974748067])
        assert series.motion_m == pytest.approx([0.10, 0.25])

    def test_airborne_step_clamped_and_flagged(self):
        log = log_from_rows("0,0,0,1.0", "1,30,50,6.0")
        series = derive_series(log)
        assert series.depth_m[0] == 0.0
        assert series.airborne.tolist() == [True, False]


class TestDetectLandslides:
    def test_smooth_series_has_no_events(self):
        series = make_series(
            draft_n=[0.0, 100.0, 200.0],
            depth_m=[0.0, 0.005, 0.012],
            motion_m=[0.0, 0.004, 0.009],
        )
        assert detect_landslides(series) == []

    def test_depth_jump_detected(self):
        depth = [0.0] * 10
        for i in range(1, 10):
            depth[i] = depth[i - 1] + (0.03 if i == 7 else 0.005)
        series = make_series(draft_n=[float(i) for i in range(10)], depth_m=depth)
        assert detect_landslides(series, 0.01, 0.01) == [7]

    def test_motion_jump_detected(self):
        series = make_series(
            draft_n=[0.0, 1.0, 2.0],
            motion_m=[0.0, 0.002, 0.030],
        )
        assert detect_landslides(series) == [2]

    def test_thresholds_dominate(self):
        series = make_series(
            draft_n=[0.0, 1.0],
            depth_m=[0.0, 0.05],
            motion_m=[0.0, 0.05],
        )
        assert detect_landslides(series, 0.1, 0.1) == []

    def test_rejects_nonpositive_thresholds(self):
        series = make_series(draft_n=[0.0])
        with pytest.raises(ValueError, match="thresholds"):
            detect_landslides(series, 0.0, 0.01)


class TestLandslideFilter:
    def test_no_events_interpolates_between_endpoints(self):
        series = make_series(
            draft_n=[0.0, 100.0, 300.0, 400.0],
            depth_m=[0.0, 0.30, 0.10, 0.40],
        )
        out = landslide_filter(series, [])
        assert out.depth_m[0] == 0.0 and out.depth_m[3] == 0.40
        assert out.depth_m[1] == pytest.approx(0.10)  # quarter of the draft span
        assert out.depth_m[2] == pytest.approx(0.30)
        assert out.draft_n.tolist() == series.draft_n.tolist()
        assert out.motion_m.tolist() == series.motion_m.tolist()

    def test_events_everywhere_is_identity(self):
        series = make_series(
            draft_n=[0.0, 100.0, 300.0],
            depth_m=[0.0, 0.30, 0.10],
            thrust_deg=[1.0, 9.0, 4.0],
            lift_n=[0.0, 50.0, 20.0],
        )
        out = landslide_filter(series, [0, 1, 2])
        assert out.depth_m.tolist() == series.depth_m.tolist()
        assert out.thrust_deg.tolist() == series.thrust_deg.tolist()
        assert out.lift_n.tolist() == series.lift_n.tolist()

    def test_six_step_hand_interpolated(self):
        series = make_series(
            draft_n=[0.0, 100.0, 200.0, 300.0, 400.0, 500.0],
            depth_m=[0.0, 0.02, 0.03, 0.10, 0.11, 0.16],
            thrust_deg=[0.0, 2.0, 3.0, 12.0, 13.0, 18.0],
            lift_n=[0.0, 3.5, 10.5, 63.8, 92.3, 162.4],
        )
        out = landslide_filter(series, [3])
        # Retained: 0, 3, 5; interior steps re-read off the draft axis.
        assert out.depth_m == pytest.approx([0.0, 0.10 / 3, 0.20 / 3, 0.10, 0.13, 0.16])
        assert out.thrust_deg == pytest.approx([0.0, 4.0, 8.0, 12.0, 15.0, 18.0])
        assert out.lift_n == pytest.approx(
            [0.0, 63.8 / 3, 2 * 63.8 / 3, 63.8, (63.8 + 162.4) / 2, 162.4]
        )

    def test_idempotent(self):
        series = make_series(
            draft_n=[0.0, 50.0, 120.0, 300.0, 420.0],
            depth_m=[0.0, 0.04, 0.02, 0.09, 0.12],
            thrust_deg=[0.0, 4.0, 2.0, 9.0, 12.0],
            lift_n=[0.0, 10.0, 4.0, 40.0, 70.0],
        )
        once = landslide_filter(series, [2])
        twice = landslide_filter(once, [2])
        assert twice == once

    def test_equal_draft_span_interpolates_by_index(self):
        series = make_series(
            draft_n=[100.0, 100.0, 100.0],
            depth_m=[0.0, 0.5, 0.1],
        )
        out = landslide_filter(series, [])
        assert out.depth_m[1] == pytest.approx(0.05)

    def test_rejects_bad_event_index(self):
        series = make_series(draft_n=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="event index"):
            landslide_filter(series, [5])


class TestPenetrationWork:
    def test_constant_force_over_travel(self):
        # 2 kN held over 175 mm of tip travel costs 350 J.
        series = make_series(
            draft_n=[2000.0, 2000.0],
            tip_x_m=[0.0, 0.175],
        )
        assert penetration_work(series)[-1] == pytest.approx(350.0)

    def test_zero_motion_zero_work(self):
        series = make_series(draft_n=[0.0, 500.0, 900.0])
        assert penetration_work(series).tolist() == [0.0, 0.0, 0.0]

    def test_two_step_trapezoid(self):
        series = make_series(draft_n=[0.0, 1000.0], tip_x_m=[0.0, 0.10])
        assert penetration_work(series) == pytest.approx([0.0, 50.0])

    def test_cumulative_non_decreasing_for_monotone_path(self):
        series = make_series(
            draft_n=[0.0, 200.0, 500.0, 800.0],
            tip_x_m=[0.0, 0.05, 0.07, 0.12],
        )
        work = penetration_work(series)
        assert all(b >= a for a, b in zip(work, work[1:]))


class TestTractiveEfficiency:
    def test_worked_example(self):
        # 350 J of penetration work against a 2 kN push over 2 m: 4/4.35.
        assert tractive_efficiency(350.0, 2000.0, 2.0) == pytest.approx(0.9195402298850575)
        assert abs(tractive_efficiency(350.0, 2000.0, 2.0) - 0.92) < 0.005

    def test_free_penetration(self):
        assert tractive_efficiency(0.0, 1500.0, 1.0) == 1.0

    def test_equal_split(self):
        assert tractive_efficiency(4000.0, 2000.0, 2.0) == 0.5

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="must be positive"):
            tractive_efficiency(0.0, 0.0, 2.0)


class TestStabilityCheck:
    def test_light_vehicle_lifts_off(self):
        series = make_series(draft_n=[730.0], lift_n=[237.19])
        records = stability_check(series, VehicleConfig(total_mass_kg=5.0))
        assert records[0].liftoff
        assert records[0].weight_n == pytest.approx(49.05)
        assert records[0].margin_n == pytest.approx(49.05 - 237.19)

    def test_zero_lift_margin_is_weight(self):
        series = make_series(draft_n=[0.0], lift_n=[0.0])
        records = stability_check(series, VehicleConfig(total_mass_kg=50.0))
        assert not records[0].liftoff
        assert records[0].margin_n == pytest.approx(490.5)

    def test_calculated_liftoff_despite_observed_stability(self):
        # 600 N of calculated lift against a 490.5 N vehicle flags liftoff.
        series = make_series(draft_n=[2000.0], lift_n=[600.0])
        records = stability_check(series, VehicleConfig(total_mass_kg=50.0))
        assert records[0].liftoff


class TestEffectiveApplication:
    def test_all_stable_returns_unity(self):
        series = make_series(draft_n=[500.0], depth_m=[0.2], lift_n=[100.0])
        result = estimate_effective_application(
            series, LARGE_FIELD_DESIGN, VehicleConfig(50.0), [False]
        )
        assert result.kappa == 1.0
        assert not result.inconsistent

    def test_bisection_matches_closed_form_root(self):
        # Tip application gives 600 N of lift at 2 kN draft; the vehicle
        # weighs 490.5 N, so the application point must sit at
        # kappa = (r sin(atan(W/F)) - h) / z of the tip depth.
        depth = 0.29504616665890293
        series = make_series(draft_n=[2000.0], depth_m=[depth], lift_n=[600.0])
        result = estimate_effective_application(
            series, LARGE_FIELD_DESIGN, VehicleConfig(50.0), [False]
        )
        assert not result.inconsistent
        assert result.kappa == pytest.approx(0.7767473019284445, abs=2e-4)

    def test_unballasted_liftoff_point_pins_kappa_to_zero(self):
        # At 730 N draft and 0.34 m depth a 5 kg vehicle held on: even
        # surface application predicts 49.14 N of lift against a 49.05 N
        # weight, so no kappa >= 0 reconciles the observation.
        design = LARGE_FIELD_DESIGN
        lift = 730.0 * math.tan(math.asin((0.09 + 0.34) / 1.34))
        series = make_series(draft_n=[730.0], depth_m=[0.34], lift_n=[lift])
        result = estimate_effective_application(series, design, VehicleConfig(5.0), [False])
        assert result.kappa == 0.0
        assert result.inconsistent

    def test_observed_liftoff_steps_are_not_constraints(self):
        design = LARGE_FIELD_DESIGN
        series = make_series(draft_n=[2000.0], depth_m=[0.3], lift_n=[600.0])
        result = estimate_effective_application(series, design, VehicleConfig(50.0), [True])
        assert result.kappa == 1.0

    def test_length_mismatch_rejected(self):
        series = make_series(draft_n=[1.0, 2.0])
        with pytest.raises(ValueError, match="observed_liftoff length"):
            estimate_effective_application(series, LARGE_FIELD_DESIGN, VehicleConfig(50.0), [False])
