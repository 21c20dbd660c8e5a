import math
import re
import warnings

import numpy as np
import pytest

from spiketrac import (
    DRY_SAND,
    MOIST_SAND,
    CriticalDepthModel,
    DesignConstraints,
    DesignSpace,
    FailureMode,
    ForceLaw,
    ParameterRange,
    SoilProperties,
    SpikeDesign,
    crescent_force,
    crescent_volume,
    critical_depth,
    failure_mode,
    grid_search,
    lateral_onset_depth,
    max_crescent_force,
    predict_series,
)
from spiketrac.soilmech import critical_depths


def wedge_volume_grid(depth: float, beta_deg: float, width: float, n: int = 220) -> float:
    """3-D midpoint integration of the crescent body, independent of the
    closed form: central prism between the spike face and the shear plane
    plus one quarter cone on each side, apexes at the tip."""
    runout = depth / math.tan(math.radians(beta_deg))
    xs = (np.arange(n) + 0.5) / n * runout
    ys = (np.arange(n) + 0.5) / n * (width + 2 * runout) - (width / 2 + runout)
    heights = (np.arange(n) + 0.5) / n * depth
    x, y, u = np.meshgrid(xs, ys, heights, indexing="ij", sparse=True)
    rho = runout * u / depth
    central = (np.abs(y) <= width / 2) & (x <= rho)
    side = (np.abs(y) > width / 2) & (x**2 + (np.abs(y) - width / 2) ** 2 <= rho**2)
    fraction = np.mean(central | side)
    return float(fraction) * runout * (width + 2 * runout) * depth


class TestSoilProperties:
    def test_field_presets(self):
        assert DRY_SAND.bulk_density_kg_m3 == 1720.0
        assert DRY_SAND.friction_angle_deg == 30.0
        assert MOIST_SAND.bulk_density_kg_m3 == 1790.0
        assert MOIST_SAND.friction_angle_deg == 47.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="bulk_density"):
            SoilProperties(bulk_density_kg_m3=0, friction_angle_deg=30)
        with pytest.raises(ValueError, match="friction_angle"):
            SoilProperties(bulk_density_kg_m3=1700, friction_angle_deg=90)
        with pytest.raises(ValueError, match="moisture_label"):
            SoilProperties(bulk_density_kg_m3=1700, friction_angle_deg=30, moisture_label="wet")


class TestCrescentVolume:
    def test_zero_at_surface(self):
        assert crescent_volume(0.0, 37.0, 0.021) == 0.0

    def test_against_3d_integration_oracle(self):
        for beta, expected in ((45.0, 0.015082166941154072), (60.0, 0.005257984984768888)):
            closed = crescent_volume(0.30, beta, 0.021)
            assert closed == pytest.approx(expected)
            assert closed == pytest.approx(wedge_volume_grid(0.30, beta, 0.021), rel=5e-3)

    def test_monotone_in_depth_and_width(self):
        assert crescent_volume(0.31, 50.0, 0.021) > crescent_volume(0.30, 50.0, 0.021)
        assert crescent_volume(0.30, 50.0, 0.022) > crescent_volume(0.30, 50.0, 0.021)

    def test_decreasing_in_beta(self):
        assert crescent_volume(0.30, 50.0, 0.021) > crescent_volume(0.30, 51.0, 0.021)

    def test_rejects_degenerate_beta(self):
        for beta in (0.0, 90.0, -10.0):
            with pytest.raises(ValueError, match="beta_deg"):
                crescent_volume(0.30, beta, 0.021)

    # A square past the float range, a cube past it, and a product that is inf.
    @pytest.mark.parametrize(("depth", "width"), [(1e200, 0.021), (1e103, 0.021), (1e100, 1e300)])
    def test_overflow_is_a_value_error(self, depth, width):
        message = f"crescent volume overflows at depth_m={depth}, width_m={width}"
        with pytest.raises(ValueError, match=re.escape(message)):
            crescent_volume(depth, 45.0, width)


class TestCrescentForce:
    def test_zero_depth_is_zero(self):
        assert crescent_force(0.0, 50.0, 0.021, DRY_SAND) == 0.0

    def test_active_law_values(self):
        # rho g V tan(beta - phi) evaluated from the volume closed form.
        assert crescent_force(0.30, 60.0, 0.021, DRY_SAND) == pytest.approx(
            51.22195714889523
        )
        assert crescent_force(0.30, 45.0, 0.021, DRY_SAND) == pytest.approx(
            68.18889461937857
        )

    def test_active_law_below_friction_angle_is_zero(self):
        assert crescent_force(0.30, 25.0, 0.021, DRY_SAND) == 0.0
        assert crescent_force(0.30, 30.0, 0.021, DRY_SAND) == 0.0

    def test_passive_law_jams_near_vertical(self):
        with pytest.raises(ValueError, match="jams"):
            crescent_force(0.30, 60.0, 0.021, DRY_SAND, ForceLaw.PASSIVE_WEDGE)

    def test_passive_law_value(self):
        volume = crescent_volume(0.30, 40.0, 0.021)
        expected = 1720 * 9.81 * volume * math.tan(math.radians(70.0))
        assert crescent_force(0.30, 40.0, 0.021, DRY_SAND, ForceLaw.PASSIVE_WEDGE) == (
            pytest.approx(expected)
        )

    def test_scales_linearly_in_density_and_gravity(self):
        base = crescent_force(0.30, 55.0, 0.021, DRY_SAND)
        doubled_rho = SoilProperties(2 * 1720.0, 30.0, "dry")
        moon = SoilProperties(1720.0, 30.0, "dry", gravity_m_s2=1.62)
        assert crescent_force(0.30, 55.0, 0.021, doubled_rho) == pytest.approx(2 * base)
        assert crescent_force(0.30, 55.0, 0.021, moon) == pytest.approx(base * 1.62 / 9.81)

    # Below phi the active factor is 0 and an infinite weight gives nan.
    @pytest.mark.parametrize(
        ("depth", "beta", "width", "law"),
        [
            (1e200, 45.0, 0.021, ForceLaw.ACTIVE_WEDGE),
            (1e200, 45.0, 0.021, ForceLaw.PASSIVE_WEDGE),
            (0.3, 45.0, 1e308, ForceLaw.ACTIVE_WEDGE),
            (0.3, 20.0, 1e308, ForceLaw.ACTIVE_WEDGE),
        ],
    )
    def test_overflow_is_a_value_error(self, depth, beta, width, law):
        message = f"crescent force overflows at depth_m={depth}, width_m={width}"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=re.escape(message)):
            crescent_force(depth, beta, width, DRY_SAND, law)

    def test_depth_polynomial_has_only_square_and_cube_terms(self):
        # Fit a cubic through forces at 4 depths: constant and linear
        # coefficients must vanish.
        depths = np.array([0.1, 0.2, 0.3, 0.4])
        forces = [crescent_force(z, 55.0, 0.021, DRY_SAND) for z in depths]
        coeffs = np.polynomial.polynomial.polyfit(depths, forces, 3)
        assert abs(coeffs[0]) < 1e-9
        assert abs(coeffs[1]) < 1e-8
        assert coeffs[2] > 0 and coeffs[3] > 0


class TestMaxCrescentForce:
    def test_zero_depth_ties_to_smallest_angle(self):
        result = max_crescent_force(0.0, 0.021, DRY_SAND)
        assert result.force_n == 0.0
        assert result.beta_star_deg == pytest.approx(30.1)
        assert all(force == 0.0 for _, force in result.curve)

    def test_dry_sand_interior_maximum(self):
        result = max_crescent_force(0.30, 0.021, DRY_SAND)
        assert result.beta_star_deg == pytest.approx(45.5)
        assert result.force_n == pytest.approx(68.22881961967083)
        lo, hi = result.curve[0][0], result.curve[-1][0]
        assert lo < result.beta_star_deg < hi

    def test_moist_maximizer_above_dry_and_weaker(self):
        dry = max_crescent_force(0.30, 0.021, DRY_SAND)
        # Same density so only the friction angle differs.
        moist_phi = SoilProperties(1720.0, 47.0, "moist")
        moist = max_crescent_force(0.30, 0.021, moist_phi)
        assert moist.beta_star_deg > dry.beta_star_deg
        assert moist.force_n < dry.force_n

    def test_returned_force_dominates_curve(self):
        result = max_crescent_force(0.42, 0.034, MOIST_SAND)
        assert result.force_n >= max(force for _, force in result.curve)

    def test_beta_range_override(self):
        result = max_crescent_force(0.30, 0.021, DRY_SAND, beta_min_deg=50.0, beta_max_deg=70.0)
        assert result.beta_star_deg == pytest.approx(50.0)
        assert result.curve[0][0] == pytest.approx(50.0)
        assert result.curve[-1][0] <= 70.0 + 1e-9

    def test_curve_is_a_float64_array_of_rows(self):
        result = max_crescent_force(0.30, 0.021, DRY_SAND)
        assert result.curve.dtype == np.float64
        assert result.curve.shape == (len(result.curve), 2)
        best = int(np.argmax(result.curve[:, 1]))
        assert result.curve[best].tolist() == [result.beta_star_deg, result.force_n]

    def test_results_compare_and_hash_on_the_maximum(self):
        first = max_crescent_force(0.30, 0.021, DRY_SAND)
        again = max_crescent_force(0.30, 0.021, DRY_SAND)
        assert first == again and hash(first) == hash(again)
        assert "curve" not in repr(first)

    @pytest.mark.parametrize("law", list(ForceLaw))
    @pytest.mark.parametrize(("depth", "width"), [(1e200, 0.021), (0.3, 1e308)])
    def test_overflow_is_a_value_error(self, depth, width, law):
        message = f"crescent force overflows at depth_m={depth}, width_m={width}"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=re.escape(message)):
            max_crescent_force(depth, width, DRY_SAND, law)

    def test_empty_scan_domain(self):
        with pytest.raises(ValueError, match="empty shear-angle scan domain"):
            max_crescent_force(0.30, 0.021, DRY_SAND, beta_min_deg=80.0, beta_max_deg=40.0)

    def test_vanishes_toward_domain_edges(self):
        curve = max_crescent_force(0.30, 0.021, DRY_SAND).curve
        peak = max(force for _, force in curve)
        assert curve[0][1] < 0.1 * peak
        assert curve[-1][1] < 0.1 * peak


class TestCriticalDepth:
    def test_default_model_values(self):
        assert critical_depth(0.021, 45.0) == pytest.approx(0.126)
        assert critical_depth(0.049, 67.5) == pytest.approx(0.441)

    def test_zero_sensitivity_is_rake_independent(self):
        model = CriticalDepthModel(k0=6.0, k1=0.0)
        assert critical_depth(0.03, 20.0, model) == critical_depth(0.03, 70.0, model)
        assert critical_depth(0.03, 45.0, model) == pytest.approx(0.18)

    def test_ratio_is_width_independent(self):
        z1 = critical_depth(0.012, 55.0)
        z2 = critical_depth(0.049, 55.0)
        assert z1 / 0.012 == pytest.approx(z2 / 0.049)

    def test_increases_with_rake(self):
        assert critical_depth(0.021, 60.0) > critical_depth(0.021, 45.0)

    def test_clamped_at_zero(self):
        model = CriticalDepthModel(k0=6.0, k1=3.0)
        assert critical_depth(0.021, 10.0, model) == 0.0

    def test_rake_past_vertical_tops_out(self):
        assert critical_depth(0.021, 95.0) == critical_depth(0.021, 90.0 - 1e-9)
        for rake in (0.0, 180.0, math.nan):
            with pytest.raises(ValueError, match="rake_deg"):
                critical_depth(0.021, rake)


class TestFailureMode:
    def test_surface_is_crescent(self):
        assert failure_mode(0.0, 0.021, 45.0) is FailureMode.CRESCENT

    def test_boundary_is_crescent(self):
        assert failure_mode(0.126, 0.021, 45.0) is FailureMode.CRESCENT

    def test_below_boundary_is_lateral(self):
        assert failure_mode(0.30, 0.021, 45.0) is FailureMode.LATERAL

    def test_single_transition(self):
        depths = [i * 0.01 for i in range(40)]
        modes = [failure_mode(z, 0.021, 45.0) for z in depths]
        flips = sum(1 for a, b in zip(modes, modes[1:]) if a is not b)
        assert flips == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: crescent_force(0.3, 45.0, 1e308, DRY_SAND),
        lambda: crescent_force(1e200, 45.0, 0.021, DRY_SAND, ForceLaw.PASSIVE_WEDGE),
        lambda: max_crescent_force(0.3, 1e308, DRY_SAND),
        lambda: max_crescent_force(0.3, 1e308, DRY_SAND, ForceLaw.PASSIVE_WEDGE),
        lambda: max_crescent_force(1e200, 0.021, DRY_SAND),
        lambda: crescent_force(0.3, 5e-324, 0.021, DRY_SAND),
    ],
    ids=["force-width", "force-depth", "max-width", "max-width-passive", "max-depth", "tiny-beta"],
)
def test_overflow_raises_without_a_numpy_warning(call):
    # numpy's default treatment: warn on all but underflow.
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="crescent force overflows"):
            call()


def test_critical_depths_clamps_only_its_own_array():
    model = CriticalDepthModel(k0=6.0, k1=3.0)
    # 1e308 m overflows to inf: -inf where the rake factor is negative, clamped to 0.
    widths = np.array([[0.021], [1e308], [0.049]])
    rakes = np.array([10.0, 45.0, 95.0, 179.0])
    given = widths.copy(), rakes.copy()
    depths = critical_depths(widths, rakes, model)
    assert widths.tobytes() == given[0].tobytes() and rakes.tobytes() == given[1].tobytes()
    expected = [
        [critical_depth(w, r, model) for r in rakes.tolist()] for w in widths[:, 0].tolist()
    ]
    assert depths.shape == (3, 4)
    assert [list(map(float.hex, row)) for row in depths.tolist()] == [
        list(map(float.hex, row)) for row in expected
    ]
    assert math.inf in depths and 0.0 in depths
    # A scalar width with an array of rakes, as simulate's onset scan calls it.
    assert critical_depths(0.021, rakes, model).tolist() == expected[0]
    for width, rake in ((0.021, 45.0), (np.float64(0.021), np.array(10.0))):
        scalar = critical_depths(width, rake, model)
        assert type(scalar) is np.float64
        assert float(scalar).hex() == critical_depth(float(width), float(rake), model).hex()


def test_critical_depth_overflow_is_inf_without_a_numpy_warning():
    # k1 * (rake - 45) overflows for every rake above 45 degrees; the
    # scalar gives inf silently, and so must the array callers.
    model = CriticalDepthModel(k1=1e308)
    design = SpikeDesign(radius_m=1.34)
    space = DesignSpace(
        radius_m=ParameterRange(1.34, 1.34, 1.0),
        hinge_height_m=ParameterRange(0.09, 0.09, 1.0),
        initial_rake_deg=ParameterRange(20.0, 60.0, 20.0),
        diameter_mm=ParameterRange(21.0, 21.0, 1.0),
        design_depth_m=ParameterRange(0.5, 0.5, 1.0),
    )
    constraints = DesignConstraints(60.0, 0.0, 75.0, require_lateral_at_design_depth=True)
    assert critical_depth(design.width_m, 50.0, model) == math.inf
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        onset = lateral_onset_depth(design, model)
        steps = predict_series(design, DRY_SAND, [0.0, 10.0], model)
        result = grid_search(space, constraints, model)
    assert onset is None
    assert steps.regime.tolist() == [FailureMode.CRESCENT] * 2
    assert steps.sustained.all()
    assert steps.depth_m[0] == 0.0 and steps.depth_m[1] > 0.0
    assert result.feasible == 1
    assert result.axes[2][result.index[2][0]] == 20.0
    assert result.critical_depth_m.tolist() == [0.0]
    assert result.violation_counts == {"critical_depth": 2}


# nan fails every comparison, so it gets the range message, not an overflow.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: crescent_volume(math.nan, 45.0, 0.021), r"depth_m \(nan\) must be >= 0"),
        (lambda: crescent_volume(0.3, 45.0, math.nan), r"width_m \(nan\) must be positive"),
        (lambda: crescent_force(math.nan, 45.0, 0.021, DRY_SAND), r"depth_m \(nan\) must be >= 0"),
        (lambda: crescent_force(0.3, 45.0, math.nan, DRY_SAND), r"width_m \(nan\) must be positive"),
        (lambda: max_crescent_force(math.nan, 0.021, DRY_SAND), r"depth_m \(nan\) must be >= 0"),
        (lambda: max_crescent_force(0.3, math.nan, DRY_SAND), r"width_m \(nan\) must be positive"),
        (lambda: critical_depth(math.nan, 45.0), r"width_m \(nan\) must be positive"),
        (lambda: failure_mode(0.3, math.nan, 45.0), r"width_m \(nan\) must be positive"),
    ],
    ids=[
        "volume-depth", "volume-width", "force-depth", "force-width",
        "max-depth", "max-width", "critical-depth-width", "failure-mode-width",
    ],
)
def test_nan_depth_or_width_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SoilProperties(math.nan, 30.0), r"bulk_density_kg_m3 \(nan\) must be positive"),
        (lambda: SoilProperties(math.inf, 30.0), r"bulk_density_kg_m3 \(inf\) must be finite and positive"),
        (lambda: SoilProperties(1720.0, 30.0, gravity_m_s2=math.nan), r"gravity_m_s2 \(nan\)"),
        (
            lambda: SoilProperties(1720.0, 30.0, gravity_m_s2=math.inf),
            r"gravity_m_s2 \(inf\) must be finite and positive",
        ),
        (lambda: CriticalDepthModel(k0=math.nan), r"k0 \(nan\) must be positive"),
        (lambda: CriticalDepthModel(k0=math.inf), r"k0 \(inf\) must be finite and positive"),
        (lambda: CriticalDepthModel(k1=math.nan), r"k1 \(nan\) must be >= 0"),
        (lambda: CriticalDepthModel(k1=math.inf), r"k1 \(inf\) must be finite and >= 0"),
    ],
    ids=[
        "density-nan", "density-inf", "gravity-nan", "gravity-inf",
        "k0-nan", "k0-inf", "k1-nan", "k1-inf",
    ],
)
def test_records_reject_nan_and_inf(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()
