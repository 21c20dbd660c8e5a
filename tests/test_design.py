import itertools
import math

import pytest
from conftest import LARGE_FIELD_DESIGN

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
