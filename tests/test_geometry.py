import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrac import (
    SpikeDesign,
    depth_from_inclination,
    evaluate_design,
    failure_mode,
    lifting_force,
    pull_weight_ratio,
    rake_angle,
    thrust_angle,
    tip_displacement,
)
from spiketrac import trials
from spiketrac.geometry import bisect, effective_sine, rotated_rake, sine_angle, sine_degrees


class TestSpikeDesign:
    def test_rejects_hinge_at_or_above_radius(self):
        with pytest.raises(ValueError, match="radius_m"):
            SpikeDesign(radius_m=0.5, hinge_height_m=0.5, design_depth_m=0.1)

    def test_rejects_design_depth_beyond_reach(self):
        with pytest.raises(ValueError, match="design_depth_m"):
            SpikeDesign(radius_m=1.0, hinge_height_m=0.1, design_depth_m=0.91)

    def test_rejects_flat_or_vertical_initial_rake(self):
        for rake in (0.0, 90.0, -5.0):
            with pytest.raises(ValueError, match="initial_rake_deg"):
                SpikeDesign(radius_m=1.0, initial_rake_deg=rake, design_depth_m=0.5)

    def test_width_converts_millimeters(self):
        design = SpikeDesign(radius_m=1.0, diameter_mm=21.0, design_depth_m=0.5)
        assert design.width_m == pytest.approx(0.021)


# nan fails every range check, and an infinite field is out of range.
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("radius_m", math.inf, r"radius_m \(inf\) must exceed hinge_height_m"),
        ("hinge_height_m", math.inf, r"radius_m \(1.0\) must exceed hinge_height_m \(inf\) and both "
         "must be finite and positive$"),
        ("radius_m", math.nan, r"radius_m \(nan\) must exceed hinge_height_m"),
        ("diameter_mm", math.nan, r"diameter_mm \(nan\) must be positive$"),
        ("diameter_mm", math.inf, r"diameter_mm \(inf\) must be finite and positive$"),
        ("tip_mass_kg", math.nan, r"tip_mass_kg \(nan\) must be >= 0$"),
        ("tip_mass_kg", math.inf, r"tip_mass_kg \(inf\) must be finite and >= 0$"),
    ],
)
def test_spike_design_rejects_nan_and_inf(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        SpikeDesign(**{"radius_m": 1.0, "design_depth_m": 0.5, field: value})


class TestThrustAngle:
    def test_large_design_at_design_depth(self, large_design):
        # Design-depth thrust quoted as 26 deg for the 134 cm radius spike.
        assert thrust_angle(large_design, 0.50) == pytest.approx(26.122928635760687)
        assert abs(thrust_angle(large_design, 0.50) - 26.0) < 1.5

    def test_zero_depth_baseline(self, small_design):
        assert thrust_angle(small_design, 0.0) == pytest.approx(
            math.degrees(math.asin(0.09 / 0.58))
        )

    def test_small_design_deep_dry_trial_point(self, small_design):
        # 37 cm depth on dry sand was recorded at a 52 deg thrust angle.
        assert thrust_angle(small_design, 0.37) == pytest.approx(52.47648679788603)
        assert abs(thrust_angle(small_design, 0.37) - 52.0) < 1.0

    def test_depth_out_of_range(self, small_design):
        with pytest.raises(ValueError, match="depth_m"):
            thrust_angle(small_design, -0.01)
        with pytest.raises(ValueError, match="reachable maximum"):
            thrust_angle(small_design, 0.58)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: thrust_angle(d, math.nan), r"depth_m \(nan\) must be >= 0"),
        (lambda d: rake_angle(d, math.nan), r"depth_m \(nan\) must be >= 0"),
        (lambda d: failure_mode(math.nan, 0.021, 45.0), r"depth_m \(nan\) must be >= 0"),
        (lambda d: depth_from_inclination(d, math.nan), r"arm_inclination_deg \(nan\) must be <= 90"),
        (
            lambda d: depth_from_inclination(d, np.array([30.0, math.nan])),
            r"arm_inclination_deg \(nan\) must be <= 90",
        ),
    ],
    ids=["thrust_angle", "rake_angle", "failure_mode", "inclination", "inclination_array"],
)
def test_nan_depth_or_inclination_is_rejected(large_design, call, message):
    with pytest.raises(ValueError, match=message):
        call(large_design)


# The formulas as each caller wrote sin(gamma_eff) = (h + kappa z) / r
# before effective_sine; every result must keep their bits.
def inline_thrust_angle(h, r, z):
    return math.degrees(math.asin(min((h + z) / r, 1.0)))


def inline_pull_weight_ratio(h, r, z, kappa):
    tangent = math.tan(math.asin(min((h + kappa * z) / r, 1.0)))
    return math.inf if tangent == 0.0 else 1.0 / tangent


def inline_applied_lift(h, r, z, kappa, draft):
    sin_gamma = (h + kappa * z) / r
    return math.inf if sin_gamma >= 1.0 else draft * math.tan(math.asin(sin_gamma))


@settings(max_examples=300, deadline=None)
@given(
    radius=st.floats(0.2, 3.0),
    hinge_fraction=st.floats(0.01, 0.9),
    kappa=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    fractions=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ),
    draft=st.floats(0.0, 1e5),
)
def test_effective_sine_keeps_the_inline_bits(radius, hinge_fraction, kappa, fractions, draft):
    hinge = radius * hinge_fraction
    design = SpikeDesign(radius_m=radius, hinge_height_m=hinge, design_depth_m=radius - hinge)
    h, r = design.hinge_height_m, design.radius_m
    depths = [design.max_depth_m * fraction for fraction in fractions]
    for z in (0.0, design.max_depth_m, *depths):
        assert thrust_angle(design, z).hex() == inline_thrust_angle(h, r, z).hex()
        assert pull_weight_ratio(design, z, kappa).hex() == (
            inline_pull_weight_ratio(h, r, z, kappa).hex()
        )
        assert trials._applied_lift(design, kappa, draft, z).hex() == (
            inline_applied_lift(h, r, z, kappa, draft).hex()
        )

    seen = []

    def recording(*args):
        seen.append(effective_sine(*args))
        return seen[-1]

    with mock.patch.object(trials, "effective_sine", recording):
        trials._lifts_hold(design, kappa, np.full(len(depths), draft), np.array(depths), 1.0)
    assert [value.hex() for value in seen[0].tolist()] == [
        ((h + kappa * z) / r).hex() for z in depths
    ]


@pytest.mark.parametrize("ratio", [
    0.0, -0.0, 5e-324, 0.5, -1.0, 1.0, math.nextafter(1.0, 2.0), 1.5, math.inf, math.nan,
    np.float64(0.5), np.float64(math.nextafter(1.0, 2.0)),
])
def test_sine_angle_is_asin_of_the_ratio_capped_at_1(ratio):
    assert repr(sine_angle(ratio)) == repr(math.asin(min(ratio, 1.0)))
    assert repr(sine_degrees(ratio)) == repr(math.degrees(math.asin(min(ratio, 1.0))))


# The two bisection loops geometry.bisect replaced, as their callers wrote
# them: the forward model's depth search kept hi (the predicate holds
# there), the kappa estimate kept lo (its feasibility holds there).
def former_depth_bisect(holds, lo, hi, tolerance):
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def former_kappa_bisect(feasible, lo, hi, tolerance):
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def thresholds(draw) -> tuple[float, float, float, float]:
    """A tolerance, a bracket [lo, hi] (some exactly one or two tolerances wide) and a
    threshold anywhere in it, at either end or one float off one."""
    tolerance = draw(st.sampled_from([1e-6, 1e-4]))
    lo = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 50.0))
    hi = lo + draw(st.sampled_from([0.5, 1.0, tolerance, 2 * tolerance]) | st.floats(0.0, 50.0))
    ends = [lo, hi, *(math.nextafter(end, way) for end in (lo, hi) for way in (-math.inf, math.inf))]
    return tolerance, lo, hi, draw(st.floats(lo, hi) | st.sampled_from(ends))


@settings(max_examples=300, deadline=None)
@given(case=thresholds(), strict=st.booleans())
def test_bisect_keeps_both_former_loops_bits(case, strict):
    """Monotone threshold predicates: the same midpoints, in order, and the same ends."""
    tolerance, lo, hi, threshold = case

    def recorded(calls):
        def holds(z):
            calls.append(z.hex())
            return z > threshold if strict else z >= threshold
        return holds

    calls, depth_calls, kappa_calls = [], [], []
    ends = bisect(recorded(calls), lo, hi, tolerance)
    depth = former_depth_bisect(recorded(depth_calls), lo, hi, tolerance)
    kappa_holds = recorded(kappa_calls)
    kappa = former_kappa_bisect(lambda k: not kappa_holds(k), lo, hi, tolerance)
    assert calls == depth_calls == kappa_calls
    assert (ends[1].hex(), ends[0].hex()) == (depth.hex(), kappa.hex())
    assert lo <= ends[0] <= ends[1] <= hi
    assert ends[1] - ends[0] <= tolerance


class TestDepthFromInclination:
    def test_moist_trial_point(self, small_design):
        # 28 deg arm inclination corresponds to the recorded 18 cm depth.
        depth, airborne = depth_from_inclination(small_design, 28.0)
        assert depth == pytest.approx(0.18229350641581663)
        assert not airborne

    def test_surface_contact_is_zero(self, small_design):
        gamma0 = thrust_angle(small_design, 0.0)
        depth, airborne = depth_from_inclination(small_design, gamma0)
        assert depth == pytest.approx(0.0, abs=1e-12)
        assert not airborne

    def test_round_trip_at_design_depth(self, large_design):
        gamma = thrust_angle(large_design, 0.50)
        assert depth_from_inclination(large_design, gamma)[0] == pytest.approx(
            0.50, abs=1e-9
        )

    def test_airborne_tip_flagged(self, small_design):
        depth, airborne = depth_from_inclination(small_design, 2.0)
        assert depth == 0.0
        assert airborne

    def test_rejects_inclination_above_vertical(self, small_design):
        with pytest.raises(ValueError, match="arm_inclination_deg"):
            depth_from_inclination(small_design, 90.5)


class TestRakeAngle:
    def test_large_design_at_design_depth(self, large_design):
        # Quoted as 67.5 deg at 50 cm.
        assert rake_angle(large_design, 0.50) == pytest.approx(67.27180550926298)
        assert abs(rake_angle(large_design, 0.50) - 67.5) < 1.5

    def test_small_design_at_design_depth(self, small_design):
        # Quoted as 60 deg at 15 cm.
        assert rake_angle(small_design, 0.15) == pytest.approx(60.51653960665036)
        assert abs(rake_angle(small_design, 0.15) - 60.0) < 1.5

    def test_zero_depth_is_initial_rake(self, small_design):
        assert rake_angle(small_design, 0.0) == small_design.initial_rake_deg

    # The grid search rotates whole arrays of rakes; each element must have
    # the scalar's bits.
    @settings(max_examples=200, deadline=None)
    @given(
        radius=st.floats(0.3, 3.0),
        hinge_fraction=st.floats(0.01, 0.9),
        rakes=st.lists(st.floats(0.5, 89.5), min_size=1, max_size=4),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_rotated_rake_over_arrays_equals_rake_angle(self, radius, hinge_fraction, rakes, fractions):
        hinge = radius * hinge_fraction
        arm = SpikeDesign(radius_m=radius, hinge_height_m=hinge, design_depth_m=radius - hinge)
        depths = [arm.max_depth_m * fraction for fraction in fractions]
        thrust = [thrust_angle(arm, z) for z in depths]
        gamma0 = thrust_angle(arm, 0.0)
        grid = rotated_rake(np.array(rakes)[:, None], np.array(thrust), gamma0)
        for row, rake0 in zip(grid.tolist(), rakes):
            design = replace(arm, initial_rake_deg=rake0)
            scalar = [rake_angle(design, z).hex() for z in depths]
            # The formula as rake_angle wrote it before rotated_rake.
            written = [(rake0 + (gamma - gamma0)).hex() for gamma in thrust]
            assert [value.hex() for value in row] == scalar == written


class TestPenetrationWindow:
    # alpha - gamma is evaluate_design's window_deg, checked against the
    # default (15, 35) window.
    @staticmethod
    def window(design):
        evaluation = evaluate_design(design)
        violated = any(v.check == "penetration_window" for v in evaluation.violations)
        return evaluation.window_deg, violated

    def test_small_design_sits_above_window(self, small_design):
        window, violated = self.window(small_design)
        assert window == pytest.approx(36.073204178952984)
        assert violated

    def test_large_design_sits_above_window(self, large_design):
        window, violated = self.window(large_design)
        assert window == pytest.approx(41.14887687350229)
        assert violated

    def test_mid_window_design(self):
        # alpha0 = 30 with gamma0 = 10 puts the margin at the window center.
        radius = 1.0
        hinge = radius * math.sin(math.radians(10.0))
        design = SpikeDesign(
            radius_m=radius, hinge_height_m=hinge, initial_rake_deg=30.0, design_depth_m=0.5
        )
        window, violated = self.window(design)
        assert window == pytest.approx(20.0)
        assert not violated


class TestLiftingForce:
    def test_unballasted_liftoff_point(self):
        # 0.73 kN draft at 18 deg thrust should lift about 240 N.
        assert lifting_force(730.0, 18.0) == pytest.approx(237.1913782500216)
        assert abs(lifting_force(730.0, 18.0) - 240.0) < 5.0

    def test_unit_slope_at_45(self):
        assert lifting_force(2000.0, 45.0) == pytest.approx(2000.0)

    def test_design_depth_lift(self):
        assert lifting_force(2000.0, 26.0) == pytest.approx(975.4651771317228)

    def test_rejects_vertical_thrust(self):
        with pytest.raises(ValueError, match="thrust_deg"):
            lifting_force(100.0, 90.0)
        with pytest.raises(ValueError, match="thrust_deg"):
            lifting_force(100.0, -1.0)

    @pytest.mark.parametrize("draft", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_draft(self, draft):
        with pytest.raises(ValueError, match=rf"draft_n \({draft}\) must be finite"):
            lifting_force(draft, 30.0)


class TestTipDisplacement:
    def test_pure_translation(self, small_design):
        dx, dz = tip_displacement(small_design, 30.0, 30.0, 0.10)
        assert dx == pytest.approx(0.10)
        assert dz == pytest.approx(0.0)

    def test_pure_rotation_swings_tip_backward(self, large_design):
        gamma0 = thrust_angle(large_design, 0.0)
        dx, dz = tip_displacement(large_design, gamma0, 26.1, 0.0)
        assert dz == pytest.approx(0.4995184876069263)
        assert dx == pytest.approx(-0.13361724419286874)

    def test_small_spike_trial_motion(self, small_design):
        # 22 cm of hinge advance while rotating from surface contact to 28 deg.
        gamma0 = thrust_angle(small_design, 0.0)
        dx, dz = tip_displacement(small_design, gamma0, 28.0, 0.22)
        assert dz == pytest.approx(0.18229350641581663)
        assert dx == pytest.approx(0.15913490982710615)

    def test_rejects_pose_above_surface_contact(self, small_design):
        with pytest.raises(ValueError, match="inclination_start_deg"):
            tip_displacement(small_design, 2.0, 30.0, 0.1)
