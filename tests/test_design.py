import itertools
import math

import pytest
from trial_data import LARGE_FIELD_DESIGN
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrac import (
    CriticalDepthModel,
    DesignConstraints,
    DesignSpace,
    ParameterRange,
    SpikeDesign,
    evaluate_design,
    grid_search,
    pull_weight_ratio,
)


def point(value: float) -> ParameterRange:
    return ParameterRange(start=value, stop=value, step=1.0)


class TestPullWeightRatio:
    def test_unit_ratio_at_45(self):
        # gamma_eff = 45 deg when h + z equals r / sqrt(2).
        radius = 1.0
        hinge = 0.2
        depth = radius * math.sin(math.radians(45.0)) - hinge
        design = SpikeDesign(radius_m=radius, hinge_height_m=hinge, design_depth_m=depth)
        assert pull_weight_ratio(design, depth) == pytest.approx(1.0)

    def test_large_design_pulls_twice_its_weight(self):
        ratio = pull_weight_ratio(LARGE_FIELD_DESIGN, 0.50, 1.0)
        assert ratio == pytest.approx(2.03918803652813)

    def test_half_depth_application(self):
        ratio = pull_weight_ratio(LARGE_FIELD_DESIGN, 0.50, 0.5)
        assert ratio == pytest.approx(3.812200410828154)

    def test_decreasing_in_application_fraction(self):
        ratios = [pull_weight_ratio(LARGE_FIELD_DESIGN, 0.4, k) for k in (0.0, 0.3, 0.7, 1.0)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_decreasing_in_depth(self):
        shallow = pull_weight_ratio(LARGE_FIELD_DESIGN, 0.2)
        deep = pull_weight_ratio(LARGE_FIELD_DESIGN, 0.5)
        assert deep < shallow

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="application_fraction"):
            pull_weight_ratio(LARGE_FIELD_DESIGN, 0.3, 1.5)


class TestEvaluateDesign:
    def test_field_design_fails_default_constraints(self):
        evaluation = evaluate_design(LARGE_FIELD_DESIGN)
        assert not evaluation.feasible
        checks = {v.check: v for v in evaluation.violations}
        assert set(checks) == {"max_thrust", "penetration_window"}
        assert checks["max_thrust"].margin == pytest.approx(1.122928635760687)
        assert checks["penetration_window"].margin == pytest.approx(6.14887687350229)

    def test_synthetic_design_is_feasible(self):
        design = SpikeDesign(
            radius_m=1.5, hinge_height_m=0.09, initial_rake_deg=30.0,
            diameter_mm=21.0, design_depth_m=0.40,
        )
        evaluation = evaluate_design(design)
        assert evaluation.feasible
        assert evaluation.thrust_deg == pytest.approx(19.06658010065587)
        assert evaluation.window_deg == pytest.approx(26.560187232484804)
        assert evaluation.objective == pytest.approx(
            1.0 / math.tan(math.radians(19.06658010065587))
        )

    def test_critical_depth_check_when_required(self):
        constraints = DesignConstraints(require_lateral_at_design_depth=True)
        shallow = SpikeDesign(
            radius_m=1.5, hinge_height_m=0.09, initial_rake_deg=30.0,
            diameter_mm=80.0, design_depth_m=0.40,
        )
        evaluation = evaluate_design(shallow, constraints)
        assert any(v.check == "critical_depth" for v in evaluation.violations)
        assert evaluation.critical_depth_m is not None

    def test_invalid_geometry_rejected_upstream(self):
        with pytest.raises(ValueError, match="design_depth_m"):
            SpikeDesign(radius_m=1.0, hinge_height_m=0.09, design_depth_m=0.95)

    def test_deterministic(self):
        first = evaluate_design(LARGE_FIELD_DESIGN)
        second = evaluate_design(LARGE_FIELD_DESIGN)
        assert first == second


class TestParameterRange:
    def test_values_inclusive(self):
        assert ParameterRange(1.0, 2.0, 0.5).values() == pytest.approx([1.0, 1.5, 2.0])

    def test_single_point(self):
        assert ParameterRange(0.09, 0.09, 0.01).values() == [0.09]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            ParameterRange(0.0, 1.0, 0.0)


class TestGridSearch:
    def test_single_feasible_point(self):
        space = DesignSpace(
            radius_m=point(1.5),
            hinge_height_m=point(0.09),
            initial_rake_deg=point(30.0),
            diameter_mm=point(21.0),
            design_depth_m=point(0.40),
        )
        result = grid_search(space)
        assert result.evaluated == 1
        assert len(result.ranked) == 1
        assert result.ranked[0].design.radius_m == 1.5

    def test_tie_breaks_toward_smaller_radius(self):
        # Two designs with identical hinge/rake/depth geometry relative to
        # radius would tie; build an exact tie by duplicating the design in
        # radius only when the objective is equal.  Same radius, two
        # diameters: equal objective, smaller diameter first.
        space = DesignSpace(
            radius_m=point(1.5),
            hinge_height_m=point(0.09),
            initial_rake_deg=point(30.0),
            diameter_mm=ParameterRange(21.0, 34.0, 13.0),
            design_depth_m=point(0.40),
        )
        result = grid_search(space)
        assert len(result.ranked) == 2
        objectives = [r.evaluation.objective for r in result.ranked]
        assert objectives[0] == objectives[1]
        assert result.ranked[0].design.diameter_mm == 21.0

    def test_field_designs_infeasible_on_window(self):
        space = DesignSpace(
            radius_m=ParameterRange(0.58, 1.34, 0.76),
            hinge_height_m=point(0.09),
            initial_rake_deg=point(45.0),
            diameter_mm=point(12.0),
            design_depth_m=point(0.15),
        )
        result = grid_search(space)
        assert result.ranked == ()
        assert result.evaluated == 2
        assert result.violation_counts["penetration_window"] == 2
        assert result.most_common_violation() == "penetration_window"

    def test_invalid_grid_points_skipped(self):
        # Design depth exceeds radius - hinge for the smaller radius.
        space = DesignSpace(
            radius_m=ParameterRange(0.4, 1.5, 1.1),
            hinge_height_m=point(0.09),
            initial_rake_deg=point(30.0),
            diameter_mm=point(21.0),
            design_depth_m=point(0.40),
        )
        result = grid_search(space)
        assert result.invalid == 1
        assert result.evaluated == 1

    def test_matches_brute_force_on_3x3_grid(self):
        space = DesignSpace(
            radius_m=ParameterRange(1.2, 1.8, 0.3),
            hinge_height_m=point(0.09),
            initial_rake_deg=ParameterRange(25.0, 45.0, 10.0),
            diameter_mm=point(21.0),
            design_depth_m=point(0.40),
        )
        result = grid_search(space)

        feasible = []
        for radius, rake in itertools.product(
            space.radius_m.values(), space.initial_rake_deg.values()
        ):
            design = SpikeDesign(
                radius_m=radius, hinge_height_m=0.09, initial_rake_deg=rake,
                diameter_mm=21.0, design_depth_m=0.40,
            )
            evaluation = evaluate_design(design)
            if evaluation.feasible:
                feasible.append((design, evaluation))
        feasible.sort(key=lambda de: (-de[1].objective, de[0].radius_m, de[0].diameter_mm))
        assert [r.design for r in result.ranked] == [d for d, _ in feasible]
        assert [r.evaluation for r in result.ranked] == [e for _, e in feasible]

    def test_critical_depth_model_passthrough(self):
        space = DesignSpace(
            radius_m=point(1.5),
            hinge_height_m=point(0.09),
            initial_rake_deg=point(30.0),
            diameter_mm=point(21.0),
            design_depth_m=point(0.40),
        )
        constraints = DesignConstraints(require_lateral_at_design_depth=True)
        # Huge k0 puts the critical depth out of reach, so nothing passes.
        result = grid_search(space, constraints, CriticalDepthModel(k0=100.0))
        assert result.ranked == ()
        assert result.violation_counts == {"critical_depth": 1}


def _brute_force(space, constraints, cd_model):
    """``evaluate_design`` at every grid point, ranked and counted point by point."""
    ranked, counts = [], {}
    evaluated = invalid = 0
    axes = [r.values() for r in (
        space.radius_m, space.hinge_height_m, space.initial_rake_deg,
        space.diameter_mm, space.design_depth_m,
    )]
    for values in itertools.product(*axes):
        try:
            design = SpikeDesign(*values)
        except ValueError:
            invalid += 1
            continue
        evaluated += 1
        evaluation = evaluate_design(design, constraints, cd_model)
        if evaluation.feasible:
            ranked.append((design, evaluation))
        for violation in evaluation.violations:
            counts[violation.check] = counts.get(violation.check, 0) + 1
    ranked.sort(key=lambda de: (-de[1].objective, de[0].radius_m, de[0].diameter_mm))
    return ranked, evaluated, invalid, counts


def assert_matches_brute_force(space, constraints, cd_model=CriticalDepthModel()):
    result = grid_search(space, constraints, cd_model)
    ranked, evaluated, invalid, counts = _brute_force(space, constraints, cd_model)
    assert [r.design for r in result.ranked] == [d for d, _ in ranked]
    assert [r.evaluation for r in result.ranked] == [e for _, e in ranked]
    assert (result.evaluated, result.invalid) == (evaluated, invalid)
    assert result.violation_counts == counts
    return result


@st.composite
def coarse_ranges(draw, starts, steps, max_count=3):
    """A range over a coarse value set, so that geometries repeat across axes."""
    start = draw(st.sampled_from(starts))
    step = draw(st.sampled_from(steps))
    count = draw(st.integers(1, max_count))
    return ParameterRange(start, start + step * (count - 1), step)


class TestArraySearchEqualsBruteForce:
    def test_rejected_critical_depth_input_stops_the_search(self):
        # 1e-322 mm is a valid diameter whose width underflows to 0 m; the
        # design fails the thrust check too, so only the guard can raise.
        space = DesignSpace(
            point(1.5), point(0.09), point(30.0), point(1e-322), point(0.40)
        )
        constraints = DesignConstraints(max_thrust_deg=1.0, require_lateral_at_design_depth=True)
        with pytest.raises(ValueError, match=r"width_m \(0.0\) must be positive"):
            grid_search(space, constraints)
        with pytest.raises(ValueError, match=r"width_m \(0.0\) must be positive"):
            _brute_force(space, constraints, CriticalDepthModel())

    # Dyadic radii, hinges and depths are exact in binary, so equal
    # (h + z)/r, hence equal objectives, occur across radii; the rake and
    # diameter sets reach invalid values (0, 90 and beyond).
    @settings(max_examples=150, deadline=None)
    @given(
        space=st.builds(
            DesignSpace,
            radius_m=coarse_ranges([0.25, 0.5, 1.0], [0.25, 0.5]),
            hinge_height_m=coarse_ranges([0.0625, 0.125, 0.25], [0.0625, 0.125], 2),
            initial_rake_deg=coarse_ranges([0.0, 20.0, 40.0, 60.0], [10.0, 20.0]),
            diameter_mm=coarse_ranges([0.0, 8.0, 12.0, 24.0], [4.0, 12.0], 2),
            design_depth_m=coarse_ranges([0.0625, 0.125, 0.25, 0.5], [0.125, 0.25]),
        ),
        constraints=st.builds(
            DesignConstraints,
            max_thrust_deg=st.sampled_from([20.0, 30.0, 45.0, 60.0]),
            window_low_deg=st.sampled_from([0.0, 10.0, 15.0]),
            window_high_deg=st.sampled_from([35.0, 50.0, 75.0]),
            require_lateral_at_design_depth=st.booleans(),
        ),
        cd_model=st.builds(
            CriticalDepthModel, k0=st.floats(0.5, 20.0), k1=st.floats(0.0, 2.0)
        ),
    )
    def test_random_small_spaces(self, space, constraints, cd_model):
        assert_matches_brute_force(space, constraints, cd_model)

    @staticmethod
    def ranked_with_sine_half(radius, hinge, diameter, depth):
        """The ranked designs of a space whose (h + z)/r is exactly 0.5."""
        space = DesignSpace(radius, hinge, point(30.0), diameter, depth)
        constraints = DesignConstraints(
            max_thrust_deg=60.0, window_low_deg=0.0, window_high_deg=75.0
        )
        ranked = [r.design for r in assert_matches_brute_force(space, constraints).ranked]
        return [
            d for d in ranked if (d.hinge_height_m + d.design_depth_m) / d.radius_m == 0.5
        ]

    def test_equal_objectives_rank_the_smaller_radius_first(self):
        # (0.125 + 0.125)/0.5 == (0.25 + 0.25)/1.0: the two tie exactly.
        tied = self.ranked_with_sine_half(
            radius=ParameterRange(0.5, 1.0, 0.5),
            hinge=ParameterRange(0.125, 0.25, 0.125),
            diameter=point(12.0),
            depth=ParameterRange(0.125, 0.25, 0.125),
        )
        assert [(d.radius_m, d.hinge_height_m) for d in tied] == [(0.5, 0.125), (1.0, 0.25)]

    def test_equal_objectives_rank_the_smaller_diameter_before_grid_order(self):
        # Same radius, 0.125 + 0.375 == 0.25 + 0.25: the thicker spike
        # comes first in the grid, the thinner one first in the ranking.
        tied = self.ranked_with_sine_half(
            radius=point(1.0),
            hinge=ParameterRange(0.125, 0.25, 0.125),
            diameter=ParameterRange(12.0, 24.0, 12.0),
            depth=ParameterRange(0.25, 0.375, 0.125),
        )
        assert [(d.hinge_height_m, d.diameter_mm, d.design_depth_m) for d in tied] == [
            (0.125, 12.0, 0.375), (0.25, 12.0, 0.25), (0.125, 24.0, 0.375), (0.25, 24.0, 0.25),
        ]
