import io
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from trial_data import LARGE_FIELD_DESIGN

from spiketrac import (
    DerivedSeries,
    PulleyRig,
    TrialLog,
    TrialLogError,
    TrialMetadata,
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

    @pytest.mark.parametrize(
        "mass", [math.nan, np.array([1.0, math.nan]), np.array([math.nan, -1.0])],
        ids=["scalar", "array", "array-with-negative"],
    )
    def test_rejects_nan_mass(self, mass):
        with pytest.raises(ValueError, match=r"basket_mass_kg \(nan\) must be >= 0"):
            draft_from_basket(mass, PulleyRig())


class TestParseTrialLog:
    def test_well_formed_rows(self):
        log = log_from_rows("0,0,0,5.0", "1,50,120,9.2", "2,80,200,12.5")
        assert len(log) == 3
        assert log.metadata.site == "dry"
        assert log.metadata.radius_m == 1.34
        assert log.index.dtype == np.int64 and log.index.tolist() == [0, 1, 2]
        assert log.basket_kg.dtype == np.float64 and log.basket_kg.tolist() == [0.0, 50.0, 80.0]
        assert log.motion_mm.tolist() == [0.0, 120.0, 200.0]
        assert log.incl_deg.tolist() == [5.0, 9.2, 12.5]

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

    @pytest.mark.parametrize(
        ("header", "message"),
        [
            (HEADER.replace("diameter_mm=21.0", "diameter_mm=nan"),
             "bad metadata value: diameter_mm=nan is not a finite number"),
            (HEADER.replace("radius_m=1.34", "radius_m=-inf"),
             "bad metadata value: radius_m=-inf is not a finite number"),
            (HEADER.replace("vehicle_kg=50.0", "vehicle_kg=1e999"),
             "bad metadata value: vehicle_kg=1e999 is not a finite number"),
            (HEADER.replace("pulley_mu=0.23", "pulley_mu=nan"),
             "bad metadata value: pulley_mu=nan is not a finite number"),
            (HEADER + " foo=1", "unknown metadata keys: foo"),
            (HEADER.replace("# site=dry", "# site=dry bar=x"), "unknown metadata keys: bar"),
            (HEADER + " site=moist", "metadata key 'site' is repeated"),
            (HEADER + " radius_m=1.34", "metadata key 'radius_m' is repeated"),
        ],
    )
    def test_header_contract(self, header, message):
        with pytest.raises(TrialLogError) as excinfo:
            parse_trial_log(io.StringIO(f"{header}\n{COLUMNS}\n0,0,0,5.0\n"))
        assert str(excinfo.value) == f"line 1: {message}"
        assert excinfo.value.line == 1

    # Each header value must make a valid design, rig and vehicle; a log
    # with no steps is rejected at line 1 all the same.
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
    def test_header_out_of_range(self, old, new, message):
        with pytest.raises(TrialLogError) as excinfo:
            parse_trial_log(io.StringIO(f"{HEADER.replace(old, new)}\n{COLUMNS}\n"))
        assert str(excinfo.value) == f"line 1: bad metadata value: {message}"
        assert excinfo.value.line == 1

    def test_header_builds_its_design_rig_and_vehicle_once(self):
        meta = log_from_rows().metadata
        assert meta.spike_design is meta.spike_design
        assert meta.pulley_rig is meta.pulley_rig
        assert meta.vehicle is meta.vehicle
        assert meta.spike_design.design_depth_m == meta.spike_design.max_depth_m

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
        log = TrialLog(meta, index=[0], basket_kg=[132.5], motion_mm=[220.0], incl_deg=[28.0])
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
        log = TrialLog(meta, index=[0], basket_kg=[0.0], motion_mm=[0.0], incl_deg=[gamma0])
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

    def test_vertical_arm_names_the_step(self):
        # The lift at 90 degrees is unbounded.
        log = log_from_rows("0,0,0,10.0", "3,100,10,90.0", "4,120,10,90.0")
        with pytest.raises(ValueError, match=r"^the arm stands vertical at step 3: "):
            derive_series(log)

    def test_negative_inclination_is_rejected(self):
        # The parser rejects it first; a log built in code meets the lift's range.
        log = replace(log_from_rows("0,0,0,10.0", "1,10,5,12.0"), incl_deg=[10.0, -2.0])
        with pytest.raises(ValueError, match=re.escape("thrust_deg (-2.0) must lie in [0, 90)")):
            derive_series(log)

    @pytest.mark.parametrize(
        "rows",
        [
            ("0,1e308,0,10.0",),  # the draft
            ("0,1e306,0,10.0", "1,1e306,0,89.9"),  # the lift below vertical
            ("0,0,0,10.0", "3,1e306,1e308,80.0"),  # the tip path and the work
        ],
    )
    def test_overflow_names_the_step(self, rows):
        last = rows[-1].split(",")[0]
        log = log_from_rows(*rows)
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")  # numpy does not warn first
            with pytest.raises(ValueError, match=f"derived series overflows at step {last}$"):
                derive_series(log)


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

    def test_result_holds_the_columns_only(self):
        out = landslide_filter(make_series(draft_n=[0.0, 1.0]), [1])
        assert [f.name for f in fields(out)] == [
            "draft_n", "depth_m", "thrust_deg", "lift_n",
            "tip_x_m", "cumulative_work_j", "motion_m", "airborne",
        ]

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

    @pytest.mark.parametrize(
        ("work", "draft", "distance"), [(0.0, 7.5e306, 100.0), (1e308, 1e308, 1.0)]
    )
    def test_overflowing_push_work_names_draft_and_distance(self, work, draft, distance):
        message = (
            "draft * distance + penetration work overflows at "
            f"draft_n={draft}, push_distance_m={distance}"
        )
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            tractive_efficiency(work, draft, distance)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VehicleConfig(total_mass_kg=math.nan), r"total_mass_kg \(nan\) must be positive"),
        (lambda: detect_landslides(make_series(draft_n=[0.0]), math.nan, math.nan), "thresholds"),
        (lambda: detect_landslides(make_series(draft_n=[0.0]), 0.01, math.inf), "thresholds"),
        (lambda: tractive_efficiency(math.nan, 1.0, 1.0), "must be >= 0"),
        (lambda: tractive_efficiency(1.0, math.nan, 1.0), "must be >= 0"),
        (lambda: tractive_efficiency(1.0, 1.0, math.nan), "must be >= 0"),
        (
            lambda: tractive_efficiency(math.inf, 1.0, 1.0),
            r"^penetration_work_j \(inf\), draft_n \(1.0\) and push_distance_m \(1.0\) "
            r"must be finite and >= 0$",
        ),
    ],
    ids=[
        "vehicle-mass", "thresholds-nan", "threshold-inf", "work-nan", "draft-nan", "distance-nan",
        "work-inf",
    ],
)
def test_nan_and_inf_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_vehicle_weight_overflow_is_rejected():
    with pytest.raises(ValueError, match="vehicle weight overflows at total_mass_kg=1e"):
        VehicleConfig(total_mass_kg=1e308)


class TestStabilityCheck:
    def test_light_vehicle_lifts_off(self):
        series = make_series(draft_n=[730.0], lift_n=[237.19])
        vehicle = VehicleConfig(total_mass_kg=5.0)
        assert stability_check(series, vehicle).tolist() == [True]
        assert vehicle.weight_n == pytest.approx(49.05)
        assert series.lift_n.tolist() == [237.19]

    def test_zero_lift_margin_is_weight(self):
        series = make_series(draft_n=[0.0], lift_n=[0.0])
        vehicle = VehicleConfig(total_mass_kg=50.0)
        assert stability_check(series, vehicle).tolist() == [False]
        assert vehicle.weight_n - series.lift_n[0] == pytest.approx(490.5)

    def test_calculated_liftoff_despite_observed_stability(self):
        # 600 N of calculated lift against a 490.5 N vehicle flags liftoff.
        series = make_series(draft_n=[2000.0], lift_n=[600.0])
        liftoff = stability_check(series, VehicleConfig(total_mass_kg=50.0))
        assert np.flatnonzero(liftoff).tolist() == [0]

    def test_columns_and_first_liftoff(self):
        vehicle = VehicleConfig(total_mass_kg=50.0)
        weight = vehicle.weight_n
        series = make_series(draft_n=[1.0] * 4, lift_n=[0.0, weight, math.inf, weight + 1.0])
        liftoff = stability_check(series, vehicle)
        # Lift equal to the weight does not lift the vehicle off.
        assert liftoff.dtype == bool
        assert liftoff.tolist() == [False, False, True, True]
        assert np.flatnonzero(liftoff)[0] == 2
        quiet = make_series(draft_n=[1.0, 1.0], lift_n=[0.0, weight])
        assert not stability_check(quiet, vehicle).any()
        assert stability_check(make_series(draft_n=[]), vehicle).tolist() == []


class TestEffectiveApplication:
    def test_all_stable_returns_unity(self):
        series = make_series(draft_n=[500.0], depth_m=[0.2], lift_n=[100.0])
        result = estimate_effective_application(series, LARGE_FIELD_DESIGN, VehicleConfig(50.0))
        assert result.kappa == 1.0
        assert not result.inconsistent

    def test_bisection_matches_closed_form_root(self):
        # Tip application gives 600 N of lift at 2 kN draft; the vehicle
        # weighs 490.5 N, so the application point must sit at
        # kappa = (r sin(atan(W/F)) - h) / z of the tip depth.
        depth = 0.29504616665890293
        series = make_series(draft_n=[2000.0], depth_m=[depth], lift_n=[600.0])
        result = estimate_effective_application(series, LARGE_FIELD_DESIGN, VehicleConfig(50.0))
        assert not result.inconsistent
        assert result.kappa == pytest.approx(0.7767473019284445, abs=2e-4)

    def test_unballasted_liftoff_point_pins_kappa_to_zero(self):
        # At 730 N draft and 0.34 m depth a 5 kg vehicle held on: even
        # surface application predicts 49.14 N of lift against a 49.05 N
        # weight, so no kappa >= 0 reconciles the observation.
        design = LARGE_FIELD_DESIGN
        lift = 730.0 * math.tan(math.asin((0.09 + 0.34) / 1.34))
        series = make_series(draft_n=[730.0], depth_m=[0.34], lift_n=[lift])
        result = estimate_effective_application(series, design, VehicleConfig(5.0))
        assert result.kappa == 0.0
        assert result.inconsistent

    # Only a hand-built series holds such depths.  At 5 kg the 100 N lift
    # needs the bisection; at 50 kg tip application is already stable.
    @pytest.mark.parametrize("vehicle_kg", [5.0, 50.0])
    @pytest.mark.parametrize(
        "depth", [-5.0, -0.5, math.nextafter(LARGE_FIELD_DESIGN.max_depth_m, math.inf), math.nan]
    )
    def test_rejects_depth_outside_reach(self, depth, vehicle_kg):
        series = make_series(draft_n=[730.0, 730.0], depth_m=[0.34, depth], lift_n=[100.0] * 2)
        message = f"depth_m[1] ({depth}) must lie in [0, {LARGE_FIELD_DESIGN.max_depth_m}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_effective_application(series, LARGE_FIELD_DESIGN, VehicleConfig(vehicle_kg))
