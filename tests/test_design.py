import contextlib
import io
import itertools
import json
import math
import re
import tempfile
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from trial_data import LARGE_FIELD_DESIGN
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from spiketrac import (
    CriticalDepthModel,
    DesignConstraints,
    DesignEvaluation,
    DesignSpace,
    ParameterRange,
    SpikeDesign,
    Violation,
    critical_depth,
    evaluate_design,
    grid_search,
    pull_weight_ratio,
    rake_angle,
    thrust_angle,
)
from spiketrac import cli
from spiketrac import design as design_module
from spiketrac.cli import (
    _DESIGN_KEYS, _EVALUATION_KEYS, _fmt_column, _gathered_cells, _keyed_cells, main,
)
from spiketrac.geometry import spike_rules


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

    @pytest.mark.parametrize(
        "depth", [-0.1, math.nan, math.nextafter(LARGE_FIELD_DESIGN.max_depth_m, math.inf)]
    )
    def test_rejects_depth_out_of_range(self, depth):
        message = f"depth_m ({depth}) must lie in [0, {LARGE_FIELD_DESIGN.max_depth_m}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pull_weight_ratio(LARGE_FIELD_DESIGN, depth)


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


@st.composite
def valid_designs(draw):
    """Any valid design: hinge and depth are fractions of what the radius leaves."""
    radius = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    hinge = radius * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    depth = (radius - hinge) * draw(st.floats(0.0, 1.0, exclude_min=True))
    rake = draw(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True))
    diameter = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    try:
        return SpikeDesign(radius, hinge, rake, diameter, depth)
    except ValueError:
        # A product that rounds to zero or past the reachable depth.
        reject()


# grid_search calls evaluate_design only for arms that rank, which drops
# no error only if it never raises for a valid design.  The examples: a
# thrust angle that underflows to zero (objective inf), and a tiny arm
# whose tip reaches the vertical at design depth.
@settings(max_examples=300, deadline=None)
@given(design=valid_designs())
@example(design=SpikeDesign(1e300, 1e-300, design_depth_m=1e-300))
@example(design=SpikeDesign(1e-300, 5e-301, 89.9, 1e-300, 5e-301))
def test_evaluate_design_returns_for_every_valid_design(design):
    evaluation = evaluate_design(design)
    assert isinstance(evaluation, DesignEvaluation)
    if design.radius_m == 1e300:
        assert evaluation.objective == math.inf


def reference_evaluation(design, constraints, cd_model) -> DesignEvaluation:
    """``evaluate_design`` as written before: ``rake_angle`` and a separate surface call."""
    depth = design.design_depth_m
    thrust = thrust_angle(design, depth)
    window = design.initial_rake_deg - thrust_angle(design, 0.0)
    zc = None
    if constraints.require_lateral_at_design_depth:
        zc = critical_depth(design.width_m, rake_angle(design, depth), cd_model)
    low, high = constraints.window_low_deg, constraints.window_high_deg
    violations = []
    if thrust > constraints.max_thrust_deg:
        violations.append(Violation("max_thrust", thrust - constraints.max_thrust_deg))
    if not low < window < high:
        violations.append(Violation(
            "penetration_window", low - window if window <= low else window - high
        ))
    if zc is not None and depth <= zc:
        violations.append(Violation("critical_depth", zc - depth))
    return DesignEvaluation(
        feasible=not violations,
        violations=tuple(violations),
        objective=pull_weight_ratio(design, depth, 1.0),
        thrust_deg=thrust,
        window_deg=window,
        critical_depth_m=zc,
    )


LATERAL = DesignConstraints(require_lateral_at_design_depth=True)


@st.composite
def spike_designs(draw) -> SpikeDesign:
    radius = draw(st.floats(0.2, 3.0))
    hinge = radius * draw(st.floats(0.01, 0.9))
    return SpikeDesign(
        radius_m=radius,
        hinge_height_m=hinge,
        initial_rake_deg=draw(st.floats(0.5, 89.5)),
        diameter_mm=draw(st.floats(1.0, 200.0)),
        design_depth_m=(radius - hinge) * draw(st.floats(0.01, 1.0)),
    )


@settings(max_examples=300, deadline=None)
@given(
    design=spike_designs(),
    constraints=st.builds(
        DesignConstraints,
        max_thrust_deg=st.floats(1.0, 89.0),
        window_low_deg=st.floats(-10.0, 30.0),
        window_high_deg=st.floats(31.0, 90.0),
        require_lateral_at_design_depth=st.just(True),
    ),
    cd_model=st.builds(CriticalDepthModel, k0=st.floats(0.5, 60.0), k1=st.floats(0.0, 3.0)),
)
# evaluate_design takes thrust and objective from one angle; the examples are
# where that angle meets its edges: the tip at the vertical (sine exactly 1,
# and a sine that rounds past 1) and a thrust that underflows to 0 (objective inf).
@example(design=SpikeDesign(1.0, 0.25, design_depth_m=0.75), constraints=LATERAL,
         cd_model=CriticalDepthModel())
@example(design=SpikeDesign(0.58, 0.07, design_depth_m=0.58 - 0.07), constraints=LATERAL,
         cd_model=CriticalDepthModel())
@example(design=SpikeDesign(1e300, 1e-300, design_depth_m=1e-300), constraints=LATERAL,
         cd_model=CriticalDepthModel())
def test_evaluate_design_equals_the_earlier_formulas(design, constraints, cd_model):
    # == compares floats, so -0.0 passes for 0.0; repr tells them apart.
    expected = reference_evaluation(design, constraints, cd_model)
    assert repr(evaluate_design(design, constraints, cd_model)) == repr(expected)


class TestParameterRange:
    def test_values_inclusive(self):
        assert ParameterRange(1.0, 2.0, 0.5).values() == pytest.approx([1.0, 1.5, 2.0])

    def test_single_point(self):
        assert ParameterRange(0.09, 0.09, 0.01).values() == [0.09]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            ParameterRange(0.0, 1.0, 0.0)

    def test_count_is_the_number_of_values(self):
        for axis in (ParameterRange(1.0, 2.0, 0.5), ParameterRange(0.09, 0.09, 0.01),
                     ParameterRange(0.0, 1.0, 0.1), ParameterRange(0.3, 0.5, 0.1)):
            assert axis.count() == len(axis.values())

    @pytest.mark.parametrize(
        "start, stop, step, message",
        [
            (0.0, 1.0, math.nan, r"step \(nan\) must be positive"),
            (0.0, 1.0, math.inf, r"step \(inf\) must be finite and positive"),
            (math.nan, 1.0, 0.1, r"stop \(1.0\) must be >= start \(nan\)"),
            (0.0, math.nan, 0.1, r"stop \(nan\) must be >= start \(0.0\)"),
            (-math.inf, 0.0, 1.0, r"start \(-inf\) and stop \(0.0\) must be finite"),
            (0.0, math.inf, 1.0, r"start \(0.0\) and stop \(inf\) must be finite"),
        ],
    )
    def test_rejects_nan_and_inf(self, start, stop, step, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ParameterRange(start, stop, step)

    def test_rejects_a_count_that_overflows(self):
        with pytest.raises(ValueError, match=r"\(stop - start\) / step overflows at step 5e-324"):
            ParameterRange(0.0, 1.0, 5e-324)


class TestDesignSpaceSize:
    def test_grid_above_the_limit_is_rejected(self):
        axis = ParameterRange(0.0, 1.0, 0.01)
        with pytest.raises(ValueError, match="10510100501 points, above the limit of 10000000"):
            DesignSpace(axis, axis, axis, axis, axis)

    def test_grid_at_the_limit_is_accepted(self):
        space = DesignSpace(ParameterRange(0.0, 9999999.0, 1.0), *[point(1.0)] * 4)
        assert space.size() == 10_000_000


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

    # One design fails each named check once: equal counts go to the
    # alphabetically last name.
    @pytest.mark.parametrize(
        "constraints, worst",
        [
            (DesignConstraints(max_thrust_deg=1.0, window_low_deg=30.0), "penetration_window"),
            (
                DesignConstraints(max_thrust_deg=1.0, require_lateral_at_design_depth=True),
                "max_thrust",
            ),
            (
                DesignConstraints(1.0, 30.0, 35.0, require_lateral_at_design_depth=True),
                "penetration_window",
            ),
        ],
    )
    def test_most_common_violation_breaks_ties_by_the_later_name(self, constraints, worst):
        space = DesignSpace(point(1.5), point(0.09), point(30.0), point(21.0), point(0.40))
        result = grid_search(space, constraints, CriticalDepthModel(k0=100.0))
        assert set(result.violation_counts.values()) == {1}
        assert len(result.violation_counts) >= 2
        assert result.most_common_violation() == worst


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
    # Equal values cannot tell duplicate axis values apart: designs equal on
    # the sort key must also come in grid order.
    radius, _, _, diameter, _ = result.axes
    ir, idiam = result.index[0].tolist(), result.index[3].tolist()
    key = [
        (-objective, radius[i], diameter[d])
        for objective, i, d in zip(result.objective.tolist(), ir, idiam)
    ]
    position = np.ravel_multi_index(result.index, tuple(map(len, result.axes))).tolist()
    for n in range(1, len(key)):
        assert key[n - 1] < key[n] or (key[n - 1] == key[n] and position[n - 1] < position[n])
    return result


@st.composite
def coarse_ranges(draw, starts, steps, max_count=3):
    """A range over a coarse value set, so that geometries repeat across axes."""
    start = draw(st.sampled_from(starts))
    step = draw(st.sampled_from(steps))
    count = draw(st.integers(1, max_count))
    return ParameterRange(start, start + step * (count - 1), step)


# Dyadic radii, hinges and depths are exact in binary, so equal (h + z)/r,
# hence equal objectives, occur across radii; the rake and diameter sets
# reach invalid values (0, 90 and beyond).
SMALL_SPACES = st.builds(
    DesignSpace,
    radius_m=coarse_ranges([0.25, 0.5, 1.0], [0.25, 0.5]),
    hinge_height_m=coarse_ranges([0.0625, 0.125, 0.25], [0.0625, 0.125], 2),
    initial_rake_deg=coarse_ranges([0.0, 20.0, 40.0, 60.0], [10.0, 20.0]),
    diameter_mm=coarse_ranges([0.0, 8.0, 12.0, 24.0], [4.0, 12.0], 2),
    design_depth_m=coarse_ranges([0.0625, 0.125, 0.25, 0.5], [0.125, 0.25]),
)
CONSTRAINTS = st.builds(
    DesignConstraints,
    max_thrust_deg=st.sampled_from([20.0, 30.0, 45.0, 60.0]),
    window_low_deg=st.sampled_from([0.0, 10.0, 15.0]),
    window_high_deg=st.sampled_from([35.0, 50.0, 75.0]),
    require_lateral_at_design_depth=st.booleans(),
)
CD_MODELS = st.builds(CriticalDepthModel, k0=st.floats(0.5, 20.0), k1=st.floats(0.0, 2.0))

# Ties the sort keeps in grid order: arms equal on (objective, radius), and
# axes whose values repeat, whose points interleave with their neighbours'.
# 2**53 + 1 rounds to 2**53, 1.0 + 1e-16 to 1.0, and 1.0 + (0.5 + 2**-53)
# to 1.5, so the two depths' arms tie.
DUPLICATE_DIAMETERS = ParameterRange(2.0**53, 2.0**53 + 2, 1.0)
DUPLICATE_RADII = ParameterRange(1.0, math.nextafter(1.0, 2.0), 1e-16)
ULP_DEPTHS = ParameterRange(0.5, 0.5 + 2**-53, 2**-53)
TIE_SPACES = [
    DesignSpace(
        point(2.0), point(1.0), ParameterRange(1.0, 2.0, 1.0), DUPLICATE_DIAMETERS, ULP_DEPTHS
    ),
    DesignSpace(
        DUPLICATE_RADII, point(0.25), ParameterRange(10.0, 15.0, 5.0),
        ParameterRange(12.0, 24.0, 12.0), ParameterRange(0.25, 0.5, 0.25),
    ),
    DesignSpace(
        point(2.0), point(1.0), point(1.0), ParameterRange(12.0, 24.0, 12.0), ULP_DEPTHS
    ),
]
# Rakes that stay below 22.5 degrees at design depth clamp the critical
# depth to zero, so the lateral check keeps even the 2**53 mm spikes.
TIE_CONSTRAINTS = [
    DesignConstraints(60.0, -40.0, 75.0, require_lateral_at_design_depth=lateral)
    for lateral in (False, True)
]
TIE_MODEL = CriticalDepthModel(k0=6.0, k1=2.0)


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

    @settings(max_examples=150, deadline=None)
    @given(space=SMALL_SPACES, constraints=CONSTRAINTS, cd_model=CD_MODELS)
    @example(space=TIE_SPACES[0], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL)
    @example(space=TIE_SPACES[0], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL)
    @example(space=TIE_SPACES[1], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL)
    @example(space=TIE_SPACES[1], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL)
    @example(space=TIE_SPACES[2], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL)
    @example(space=TIE_SPACES[2], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL)
    def test_random_small_spaces(self, space, constraints, cd_model):
        result = assert_matches_brute_force(space, constraints, cd_model)
        assert result.feasible or space not in TIE_SPACES

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


def _hex(values) -> list[str | None]:
    """Each float's exact bits, so that -0.0 and 0.0 differ; None stays None."""
    return [None if value is None else float(value).hex() for value in values]


class TestRankedColumns:
    # The example clamps the critical depth of the 10-degree rake to zero.
    @settings(max_examples=150, deadline=None)
    @given(space=SMALL_SPACES, constraints=CONSTRAINTS, cd_model=CD_MODELS)
    @example(
        space=DesignSpace(
            point(1.0), point(0.0625), ParameterRange(10.0, 20.0, 10.0), point(12.0), point(0.0625)
        ),
        constraints=DesignConstraints(20.0, 0.0, 35.0, require_lateral_at_design_depth=True),
        cd_model=CriticalDepthModel(k0=6.0, k1=2.0),
    )
    def test_columns_are_evaluate_design_bit_for_bit(self, space, constraints, cd_model):
        result = grid_search(space, constraints, cd_model)
        ranked, _, _, _ = _brute_force(space, constraints, cd_model)
        assert result.feasible == len(ranked)
        for axis, axis_index, field in zip(result.axes, result.index, fields(DesignSpace)):
            assert _hex(axis[i] for i in axis_index.tolist()) == _hex(
                getattr(design, field.name) for design, _ in ranked
            )
        for key in _EVALUATION_KEYS + ("critical_depth_m",):
            column = getattr(result, key)
            expected = [getattr(evaluation, key) for _, evaluation in ranked]
            if column is None:
                assert not constraints.require_lateral_at_design_depth
                assert expected == [None] * len(ranked)
            else:
                assert _hex(column.tolist()) == _hex(expected)

    def test_cli_builds_records_per_arm_not_per_feasible_design(self, tmp_path, monkeypatch):
        # Three (radius, hinge, depth) arms, 12 feasible designs.
        space = DesignSpace(
            ParameterRange(1.2, 1.8, 0.3), point(0.09), ParameterRange(25.0, 45.0, 10.0),
            ParameterRange(21.0, 34.0, 13.0), point(0.40),
        )
        assert grid_search(space).feasible == 12
        (tmp_path / "space.json").write_text(json.dumps(asdict(space)), encoding="utf-8")
        built = []

        def evaluation(*args, **kwargs):
            built.append(args)
            return DesignEvaluation(*args, **kwargs)

        monkeypatch.setattr(design_module, "DesignEvaluation", evaluation)
        monkeypatch.setattr(design_module, "RankedDesign", None)
        assert main(["design", "--space", str(tmp_path / "space.json")]) == 0
        assert len(built) == 3

    @pytest.mark.parametrize(
        "constraints, calls",
        [
            # 14 valid arms, 8 of which keep a feasible point.
            (DesignConstraints(require_lateral_at_design_depth=True), 8),
            (DesignConstraints(max_thrust_deg=1.0), 0),
        ],
    )
    def test_evaluate_design_runs_once_per_ranked_arm(self, constraints, calls, monkeypatch):
        space = DesignSpace(
            ParameterRange(0.6, 1.8, 0.3), point(0.09), ParameterRange(25.0, 45.0, 10.0),
            ParameterRange(8.0, 34.0, 13.0), ParameterRange(0.2, 0.6, 0.2),
        )
        evaluated = []

        def counted(*args, **kwargs):
            evaluated.append(args)
            return evaluate_design(*args, **kwargs)

        monkeypatch.setattr(design_module, "evaluate_design", counted)
        result = grid_search(space, constraints)
        ir, ih, _, _, iz = (axis_index.tolist() for axis_index in result.index)
        assert len(evaluated) == len(set(zip(ir, ih, iz))) == calls


def _accepted(radius, hinge, depth) -> SpikeDesign | None:
    """The arm's design with the default rake and diameter, or None if SpikeDesign rejects it."""
    try:
        return SpikeDesign(radius, hinge, design_depth_m=depth)
    except ValueError:
        return None


# Coarse values make r == h and z == r - h occur; any float reaches nan, inf and subnormals.
ARM_AXES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.25, 0.09, 0.25, 0.5, 0.75, 1.0, 1.3, 1.3 - 0.09]), st.floats()
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(radius=ARM_AXES, hinge=ARM_AXES, depth=ARM_AXES)
@example(radius=[1.0, 1.3], hinge=[0.25, 0.09], depth=[0.75, 1.3 - 0.09])  # z == r - h
@example(radius=[0.5], hinge=[0.5], depth=[0.25])  # r == h
@example(radius=[1.3], hinge=[0.09], depth=[math.nextafter(1.3 - 0.09, math.inf)])
@example(radius=[1e300], hinge=[1e-300], depth=[1e-300])  # the thrust underflows to 0
@example(radius=[0.25], hinge=[0.5], depth=[0.125])  # no valid arm
def test_arm_table_is_the_spike_design_rule_and_thrust_angle_bit_for_bit(radius, hinge, depth):
    arm_ok, thrust, gamma0 = design_module._arm_table(radius, hinge, depth)
    assert arm_ok.shape == thrust.shape == (len(radius), len(hinge), len(depth))
    for (i, r), (j, h) in itertools.product(enumerate(radius), enumerate(hinge)):
        arms = [_accepted(r, h, z) for z in depth]
        for n, (z, arm) in enumerate(zip(depth, arms)):
            assert arm_ok[i, j, n] == (arm is not None)
            expected = math.nan if arm is None else thrust_angle(arm, z)
            assert _hex([thrust[i, j, n]]) == _hex([expected])
        valid = [arm for arm in arms if arm is not None]
        surface = thrust_angle(valid[0], 0.0) if valid else math.nan
        assert _hex([gamma0[i, j, 0]]) == _hex([surface])


def _accepted_with(**changes) -> bool:
    """Whether SpikeDesign accepts a valid arm's design with ``changes``."""
    try:
        SpikeDesign(1.0, 0.25, design_depth_m=0.5, **changes)
    except ValueError:
        return False
    return True


EDGE_VALUES = [
    0.0, -0.0, 90.0, math.nextafter(90.0, 0.0), math.nan, math.inf, -math.inf,
    1e-300, -1e-300, -45.0, 45.0,
]
RULE_VALUES = st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats()), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(rakes=RULE_VALUES, diameters=RULE_VALUES)
@example(rakes=EDGE_VALUES, diameters=EDGE_VALUES)
def test_the_grid_judges_rakes_and_diameters_as_spike_design_does(rakes, diameters):
    # grid_search passes its axes to spike_rules as arrays.
    rake_ok, diameter_ok = spike_rules(np.asarray(rakes), np.asarray(diameters))
    assert rake_ok.tolist() == [_accepted_with(initial_rake_deg=a) for a in rakes]
    assert diameter_ok.tolist() == [_accepted_with(diameter_mm=d) for d in diameters]
    # A range admits finite values only: one grid point each, on a valid arm.
    for a, d in zip(rakes, diameters):
        if math.isfinite(a) and math.isfinite(d):
            space = DesignSpace(point(1.0), point(0.25), point(a), point(d), point(0.5))
            expected = _accepted_with(initial_rake_deg=a, diameter_mm=d)
            assert grid_search(space).evaluated == expected


def test_a_grid_with_no_valid_arm_evaluates_no_point():
    space = DesignSpace(
        point(0.5), point(0.5), ParameterRange(20.0, 40.0, 10.0), point(21.0), point(0.25)
    )
    result = grid_search(space)
    assert (result.feasible, result.evaluated, result.invalid) == (0, 0, 3)


def test_an_arm_whose_thrust_underflows_ranks_with_an_infinite_objective():
    space = DesignSpace(point(1e300), point(1e-300), point(30.0), point(21.0), point(1e-300))
    result = grid_search(space)
    assert (result.objective.tolist(), result.thrust_deg.tolist()) == ([math.inf], [0.0])
    assert result.feasible == 1


# Two arms of radius 1.0 whose hinge + depth is 0.5 tie on (objective,
# radius), below an arm whose sum is 0.375: the fourth row is the second
# tied arm's thinner spike, not the first tied arm's thicker one.
TIED_ARMS = DesignSpace(
    point(1.0), ParameterRange(0.125, 0.25, 0.125), point(30.0),
    ParameterRange(12.0, 24.0, 12.0), ParameterRange(0.25, 0.375, 0.125),
)
WIDE_WINDOW = DesignConstraints(max_thrust_deg=60.0, window_low_deg=0.0, window_high_deg=75.0)


class TestTop:
    @settings(max_examples=150, deadline=None)
    @given(
        space=SMALL_SPACES,
        constraints=CONSTRAINTS,
        cd_model=CD_MODELS,
        top=st.one_of(st.integers(0, 6), st.integers(0, 120)),
    )
    @example(space=TIED_ARMS, constraints=WIDE_WINDOW, cd_model=CriticalDepthModel(), top=4)
    @example(space=TIED_ARMS, constraints=WIDE_WINDOW, cd_model=CriticalDepthModel(), top=3)
    @example(space=TIED_ARMS, constraints=WIDE_WINDOW, cd_model=CriticalDepthModel(), top=1)
    @example(space=TIED_ARMS, constraints=WIDE_WINDOW, cd_model=CriticalDepthModel(), top=0)
    @example(space=TIED_ARMS, constraints=WIDE_WINDOW, cd_model=CriticalDepthModel(), top=9)
    @example(
        space=TIE_SPACES[0], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL, top=5
    )
    @example(
        space=TIE_SPACES[0], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL, top=5
    )
    @example(
        space=TIE_SPACES[1], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL, top=7
    )
    @example(
        space=TIE_SPACES[1], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL, top=7
    )
    @example(
        space=TIE_SPACES[2], constraints=TIE_CONSTRAINTS[0], cd_model=TIE_MODEL, top=2
    )
    @example(
        space=TIE_SPACES[2], constraints=TIE_CONSTRAINTS[1], cd_model=TIE_MODEL, top=2
    )
    def test_columns_are_the_first_rows_of_the_full_result(self, space, constraints, cd_model, top):
        full = grid_search(space, constraints, cd_model)
        part = grid_search(space, constraints, cd_model, top=top)
        assert part.axes == full.axes
        for whole, first in zip(full.index, part.index):
            assert first.dtype == whole.dtype
            assert first.tolist() == whole[:top].tolist()
        for key in _EVALUATION_KEYS + ("critical_depth_m",):
            whole, first = getattr(full, key), getattr(part, key)
            if whole is None:
                assert first is None
            else:
                assert _hex(first.tolist()) == _hex(whole[:top].tolist())
        assert (part.feasible, part.evaluated, part.invalid) == (
            full.feasible, full.evaluated, full.invalid
        )
        assert part.violation_counts == full.violation_counts

    def test_the_tied_arms_fill_the_top_in_diameter_order(self):
        result = grid_search(TIED_ARMS, WIDE_WINDOW, top=4)
        _, hinge, _, diameter, depth = result.axes
        _, ih, _, idiam, iz = (axis_index.tolist() for axis_index in result.index)
        assert [(hinge[j], diameter[d], depth[n]) for j, d, n in zip(ih, idiam, iz)] == [
            (0.125, 12.0, 0.25), (0.125, 24.0, 0.25), (0.125, 12.0, 0.375), (0.25, 12.0, 0.25),
        ]
        assert result.feasible == 8

    def test_a_negative_top_is_rejected(self):
        with pytest.raises(ValueError, match=r"top \(-1\) must be >= 0"):
            grid_search(TIED_ARMS, WIDE_WINDOW, top=-1)


def _reference_design_output(space, constraints, cd_model, top, to_file):
    """``design``'s stdout and ``--out`` text, one record per ranked design.

    The rows are formatted from ``evaluate_design`` records, as the CLI
    did before it formatted columns.
    """
    ranked, evaluated, invalid, counts = _brute_force(space, constraints, cd_model)
    kept = ranked if top is None else ranked[:top]
    designs = [design for design, _ in kept]
    evaluations = [evaluation for _, evaluation in kept]
    columns = [[format(v, ".6g") for v in map(attrgetter(key), designs)] for key in _DESIGN_KEYS]
    columns += [
        [format(v, ".6g") for v in map(attrgetter(key), evaluations)] for key in _EVALUATION_KEYS
    ]
    csv = "\n".join([",".join(_DESIGN_KEYS + _EVALUATION_KEYS), *map(",".join, zip(*columns))])
    stdout = (
        f"evaluated {evaluated} designs ({invalid} invalid grid points): "
        f"{len(ranked)} feasible\n"
    )
    if not ranked:
        if counts:
            worst = max(counts.items(), key=lambda item: (item[1], item[0]))[0]
            stdout += f"no feasible designs; most common violation: {worst}\n"
    elif not to_file:
        stdout += csv + "\n"
    return stdout, csv + "\n"


class TestDesignOutputBytes:
    @staticmethod
    def run_design(space, constraints, cd_model, top, to_file):
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            (root / "space.json").write_text(json.dumps(asdict(space)), encoding="utf-8")
            (root / "constraints.json").write_text(
                json.dumps(asdict(constraints)), encoding="utf-8"
            )
            argv = [
                "design", "--space", str(root / "space.json"),
                "--constraints", str(root / "constraints.json"),
                "--k0", repr(cd_model.k0), "--k1", repr(cd_model.k1),
            ]
            argv += [] if top is None else ["--top", str(top)]
            argv += ["--out", str(root / "ranked.csv")] if to_file else []
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            written = (root / "ranked.csv").read_bytes() if to_file else None
        return stdout.getvalue(), written

    def assert_matches_reference(self, space, constraints, cd_model, top, to_file):
        stdout, written = self.run_design(space, constraints, cd_model, top, to_file)
        expected_stdout, expected_csv = _reference_design_output(
            space, constraints, cd_model, top, to_file
        )
        assert stdout == expected_stdout
        if to_file:
            assert written == expected_csv.encode()
        return stdout

    # --top below, at and above the feasible count, or absent.
    @settings(max_examples=100, deadline=None)
    @given(
        space=SMALL_SPACES,
        constraints=CONSTRAINTS,
        cd_model=CD_MODELS,
        top_offset=st.sampled_from([None, -1, 0, 1]),
        to_file=st.booleans(),
    )
    # Three distinct radii that all print as 1.2: each row's text is
    # gathered by axis index, not looked up by its printed key.
    @example(
        space=DesignSpace(
            ParameterRange(1.2, 1.2000002, 1e-7), point(0.09), ParameterRange(20.0, 40.0, 10.0),
            point(21.0), point(0.4),
        ),
        constraints=DesignConstraints(60.0, 0.0, 75.0),
        cd_model=CriticalDepthModel(),
        top_offset=-1,
        to_file=False,
    )
    # Cells are one word when no string in the column passes 7 bytes, else
    # two: a radius column of exactly 7 characters, then a hinge column of 8.
    @example(
        space=DesignSpace(
            point(1.23456), point(0.09), ParameterRange(20.0, 40.0, 10.0), point(21.0), point(0.4)
        ),
        constraints=DesignConstraints(60.0, 0.0, 75.0),
        cd_model=CriticalDepthModel(),
        top_offset=None,
        to_file=True,
    )
    @example(
        space=DesignSpace(
            point(1.5), point(0.123456), ParameterRange(20.0, 40.0, 10.0), point(21.0), point(0.4)
        ),
        constraints=DesignConstraints(60.0, 0.0, 75.0),
        cd_model=CriticalDepthModel(),
        top_offset=0,
        to_file=False,
    )
    # Negative windows, and --top 1 of two feasible designs.
    @example(
        space=DesignSpace(
            point(1.2), point(0.09), point(2.0), ParameterRange(12.0, 24.0, 12.0), point(0.4)
        ),
        constraints=DesignConstraints(60.0, -60.0, 75.0),
        cd_model=CriticalDepthModel(),
        top_offset=-1,
        to_file=True,
    )
    # No feasible design: --out holds the header alone.
    @example(
        space=DesignSpace(
            point(1.5), point(0.09), ParameterRange(20.0, 40.0, 10.0), point(21.0), point(0.4)
        ),
        constraints=DesignConstraints(max_thrust_deg=1.0),
        cd_model=CriticalDepthModel(),
        top_offset=None,
        to_file=True,
    )
    def test_random_small_spaces(self, space, constraints, cd_model, top_offset, to_file):
        feasible = grid_search(space, constraints, cd_model).feasible
        top = None if top_offset is None else max(feasible + top_offset, 1)
        self.assert_matches_reference(space, constraints, cd_model, top, to_file)

    @pytest.mark.parametrize("to_file", [False, True])
    def test_no_feasible_design_names_the_most_common_violation(self, to_file):
        space = DesignSpace(
            ParameterRange(1.2, 1.8, 0.3), point(0.09), ParameterRange(25.0, 45.0, 10.0),
            point(21.0), point(0.40),
        )
        stdout = self.assert_matches_reference(
            space, DesignConstraints(max_thrust_deg=1.0), CriticalDepthModel(), 2, to_file
        )
        assert stdout.endswith("no feasible designs; most common violation: max_thrust\n")

    # 18 ranked rows, or the first 7 or 8 of them, laid out in blocks of 1,
    # 3 or 7 rows: partial blocks, and blocks that end on the last row.
    @pytest.mark.parametrize("top", [None, 7, 8])
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rows_laid_out_in_small_blocks(self, monkeypatch, block, top, to_file):
        monkeypatch.setattr(cli, "_BLOCK", block)
        space = DesignSpace(
            ParameterRange(1.2, 1.8, 0.3), point(0.09), ParameterRange(20.0, 40.0, 10.0),
            ParameterRange(12.0, 24.0, 12.0), point(0.4),
        )
        assert grid_search(space, WIDE_WINDOW).feasible == 18
        self.assert_matches_reference(space, WIDE_WINDOW, CriticalDepthModel(), top, to_file)


def _unique_keyed_cells(key, *columns):
    """``_keyed_cells`` as written with ``np.unique``."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return [_gathered_cells(_fmt_column(column[first]), inverse) for column in columns]


# Keys with gaps, keys whose first occurrence comes late, a single key
# (--top 1) and none (an empty feasible set).
@settings(max_examples=100, deadline=None)
@given(key=st.lists(st.integers(0, 11)))
@example(key=[9, 2, 7, 2, 9])
@example(key=[5, 5, 5, 0, 5, 0, 11])
@example(key=[4])
@example(key=[])
def test_keyed_cells_equal_the_unique_reference(key):
    key = np.array(key, np.intp)
    # Equal keys hold equal values: a short column, and one of two-word cells.
    short, long = key * 0.5, 1.0 / (key + 7.0)
    expected = _unique_keyed_cells(key, short, long)
    cells = _keyed_cells((key,), (12,), short, long)
    assert len(cells) == len(expected)
    for got, want in zip(cells, expected):
        got, want = got[:], want[:]
        assert got.shape == want.shape
        assert np.array_equal(got, want)
