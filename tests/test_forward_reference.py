"""The forward model against the per-draft loop it replaced, bit for bit.

The reference below scans the crescent force at design depth for every
positive draft, bisects it over the whole design depth, and finds the
lateral onset with a bisection of its own.  ``predict_series`` scans the
crescent force once, at the top of the crescent regime, and classifies a
draft above it without a bisection.  That is exact because the maximized
crescent force never decreases with depth, which the last test checks.
It bisects the other drafts in lock step over one ``CrescentKernel``,
whose maxima must equal ``max_crescent_force``'s bit for bit.
Every ``PredictedStep`` field must come out the same, compared through
``repr`` so that -0.0 and 0.0 count as different.  Where the reference
reaches radius - hinge height, or a depth whose thrust angle rounds to
90 degrees, the arm stands vertical and ``predict_series`` must raise,
naming that draft.
"""

import math
import random
from dataclasses import astuple

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiketrac import (
    DRY_SAND,
    CriticalDepthModel,
    FailureMode,
    ForceLaw,
    PredictedStep,
    SoilProperties,
    SpikeDesign,
    critical_depth,
    lateral_onset_depth,
    lifting_force,
    max_crescent_force,
    predict_series,
    rake_angle,
    thrust_angle,
)
from spiketrac.soilmech import CrescentKernel

TOLERANCE_M = 1e-6


def reference_onset(design: SpikeDesign, cd_model: CriticalDepthModel) -> float | None:
    width = design.width_m

    def excess(z: float) -> float:
        return z - critical_depth(width, rake_angle(design, z), cd_model)

    samples = 1000
    z_max = design.design_depth_m
    if excess(0.0) >= 0:
        return 0.0
    prev_z = 0.0
    for i in range(1, samples + 1):
        z = z_max * i / samples
        if excess(z) >= 0:
            lo, hi = prev_z, z
            while hi - lo > TOLERANCE_M:
                mid = 0.5 * (lo + hi)
                if excess(mid) >= 0:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_z = z
    return None


def reference_equilibrium(design: SpikeDesign, soil: SoilProperties, draft: float) -> float | None:
    if draft <= 0:
        return 0.0

    def reaction(z: float) -> float:
        if z <= 0:
            return 0.0
        return max_crescent_force(z, design.width_m, soil).force_n

    z_max = design.design_depth_m
    if reaction(z_max) < draft:
        return None
    lo, hi = 0.0, z_max
    while hi - lo > TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        if reaction(mid) >= draft:
            hi = mid
        else:
            lo = mid
    return hi


def reference_series(design, soil, drafts, cd_model) -> tuple[list[PredictedStep], float | None]:
    """The predicted steps, up to the draft that stands the arm vertical, and that draft."""
    z_lateral = reference_onset(design, cd_model)
    steps = []
    depth = 0.0
    for draft in drafts:
        z_eq = reference_equilibrium(design, soil, draft)
        if z_eq is not None and (z_lateral is None or z_eq <= z_lateral):
            target, regime, sustained = z_eq, FailureMode.CRESCENT, True
        elif z_lateral is not None:
            target, regime, sustained = z_lateral, FailureMode.LATERAL, True
        else:
            target, regime, sustained = design.design_depth_m, FailureMode.CRESCENT, False
        depth = max(depth, target)
        thrust = thrust_angle(design, depth)
        if depth >= design.max_depth_m or thrust >= 90.0:
            return steps, draft  # the arm stands vertical: no lift
        steps.append(
            PredictedStep(
                draft_n=draft,
                depth_m=depth,
                regime=regime,
                sustained=sustained,
                thrust_deg=thrust,
                rake_deg=rake_angle(design, depth),
                lift_n=lifting_force(draft, thrust),
            )
        )
    return steps, None


def bits(steps: list[PredictedStep]) -> list[str]:
    return [repr(astuple(step)) for step in steps]


def assert_matches_reference(design, soil, drafts, cd_model) -> None:
    """``predict_series`` gives the reference's steps, or raises where the reference stops."""
    steps, vertical = reference_series(design, soil, drafts, cd_model)
    if vertical is None:
        assert bits(predict_series(design, soil, drafts, cd_model)) == bits(steps)
    else:
        with pytest.raises(ValueError, match=rf"^draft_n \({vertical!r}\) stands the arm vertical"):
            predict_series(design, soil, drafts, cd_model)


@st.composite
def designs(draw) -> SpikeDesign:
    radius = draw(st.floats(0.3, 2.0))
    hinge = radius * draw(st.floats(0.05, 0.5))
    return SpikeDesign(
        radius_m=radius,
        hinge_height_m=hinge,
        initial_rake_deg=draw(st.floats(5.0, 85.0)),
        diameter_mm=draw(st.floats(5.0, 80.0)),
        design_depth_m=(radius - hinge) * draw(st.floats(0.05, 1.0)),
    )


soils = st.builds(
    SoilProperties,
    bulk_density_kg_m3=st.floats(800.0, 2500.0),
    friction_angle_deg=st.floats(15.0, 55.0),
    gravity_m_s2=st.floats(1.0, 12.0),
)
cd_models = st.builds(CriticalDepthModel, k0=st.floats(0.5, 60.0), k1=st.floats(0.0, 3.0))

# A surface onset (the golden ``simulate-surface`` design), no onset, and
# no onset with a design depth of radius - hinge height.
SURFACE = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=20.0,
                      diameter_mm=21.0, design_depth_m=0.50)
THICK = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
                    diameter_mm=200.0, design_depth_m=0.50)
VERTICAL = SpikeDesign(radius_m=1.0, hinge_height_m=0.1, design_depth_m=0.9)
# A design depth one float short of radius - hinge height, where the
# thrust angle already rounds to 90 degrees.
ALMOST_VERTICAL = SpikeDesign(radius_m=1.0, hinge_height_m=0.5, initial_rake_deg=5.0,
                              diameter_mm=63.0, design_depth_m=math.nextafter(0.5, 0.0))


def schedule(design, soil, cd_model, fractions) -> list[float]:
    """0, each capacity and one float either side of it, and fractions of the deeper one."""
    onset = reference_onset(design, cd_model)
    at_design = max_crescent_force(design.design_depth_m, design.width_m, soil).force_n
    capacities = [at_design]
    if onset is not None:
        capacities.append(max_crescent_force(onset, design.width_m, soil).force_n)
    drafts = [0.0, *(fraction * at_design for fraction in fractions)]
    for capacity in capacities:
        drafts += [math.nextafter(capacity, -math.inf), capacity, math.nextafter(capacity, math.inf)]
    return sorted(draft for draft in drafts if draft >= 0)


@settings(max_examples=40, deadline=None)
@given(
    design=designs(),
    soil=soils,
    cd_model=cd_models,
    fractions=st.lists(st.floats(0.0, 1.5), max_size=4),
)
@example(design=SURFACE, soil=DRY_SAND, cd_model=CriticalDepthModel(k1=2.0), fractions=[0.5])
@example(design=THICK, soil=DRY_SAND, cd_model=CriticalDepthModel(), fractions=[0.5, 1.2])
@example(design=VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=1000.0), fractions=[])
def test_predict_series_matches_per_draft_loop(design, soil, cd_model, fractions):
    drafts = schedule(design, soil, cd_model, fractions)
    assert repr(lateral_onset_depth(design, cd_model)) == repr(reference_onset(design, cd_model))
    assert_matches_reference(design, soil, drafts, cd_model)


def long_schedule(design, soil, cd_model, rng: random.Random, size: int = 300) -> list[float]:
    """``size`` drafts up to 1.5 times the deeper capacity, a tenth of them repeated.

    Every capacity and the floats either side of it come twice.
    """
    anchors = schedule(design, soil, cd_model, []) * 2
    scale = max(anchors)
    drawn = [rng.uniform(0.0, 1.5) * scale for _ in range(size - len(anchors) - size // 10)]
    return sorted(anchors + drawn + rng.choices(drawn, k=size // 10))


@settings(max_examples=10, deadline=None)
@given(design=designs(), soil=soils, cd_model=cd_models, rng=st.randoms(use_true_random=False))
@example(design=SURFACE, soil=DRY_SAND, cd_model=CriticalDepthModel(k1=2.0), rng=random.Random(1))
@example(design=THICK, soil=DRY_SAND, cd_model=CriticalDepthModel(), rng=random.Random(2))
@example(design=VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=1000.0), rng=random.Random(3))
@example(design=ALMOST_VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=8.0, k1=0.0),
         rng=random.Random(4))
def test_long_schedules_match_per_draft_loop(design, soil, cd_model, rng):
    drafts = long_schedule(design, soil, cd_model, rng)
    assert len(drafts) == 300
    assert_matches_reference(design, soil, drafts, cd_model)


# A spike 10**6 m wide in soil so dense that the crescent force is finite at
# the lateral onset (0.1106 m) but overflows at 0.25 m, the first midpoint
# of every bisection over the 0.5 m design depth.
WIDE = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
                   diameter_mm=1e9, design_depth_m=0.50)
WIDE_ONSET = CriticalDepthModel(k0=1e-7)
DENSE = SoilProperties(bulk_density_kg_m3=1e303, friction_angle_deg=30.0)
DENSER = SoilProperties(bulk_density_kg_m3=1e305, friction_angle_deg=30.0)
OVERFLOW = r"^crescent force overflows at depth_m=0\.25, width_m=1000000\.0$"
# In DENSER soil the capacity scan itself overflows, at the lateral onset.
ONSET_OVERFLOW = r"^crescent force overflows at depth_m=0\.110572265625, width_m=1000000\.0$"
VERTICAL_NO_ONSET = CriticalDepthModel(k0=1000.0)
NEGATIVE = r"^draft_n \(-1\.0\) must be >= 0$"
DECREASED = r"^draft_n \(1\.0\) decreased \(previous "
STANDS = r"^draft_n \(2000\.0\) stands the arm vertical at depth_m=0\.9: the lift is unbounded$"
NOT_FINITE = r"^draft_n \(nan\) must be finite$"
ALMOST_STANDS = r"^draft_n \(5000\.0\) stands the arm vertical at depth_m=0\.49999999999999994: "


def test_error_examples_hold():
    assert thrust_angle(ALMOST_VERTICAL, ALMOST_VERTICAL.design_depth_m) == 90.0
    assert lateral_onset_depth(WIDE, WIDE_ONSET) == 0.110572265625
    assert math.isfinite(max_crescent_force(0.110572265625, WIDE.width_m, DENSE).force_n)
    with pytest.raises(ValueError, match=OVERFLOW):
        max_crescent_force(0.25, WIDE.width_m, DENSE)
    with pytest.raises(ValueError, match=ONSET_OVERFLOW):
        max_crescent_force(0.110572265625, WIDE.width_m, DENSER)
    assert max_crescent_force(0.9, VERTICAL.width_m, DRY_SAND).force_n < 2000.0
    assert lateral_onset_depth(ALMOST_VERTICAL, VERTICAL_NO_ONSET) is None
    depth = ALMOST_VERTICAL.design_depth_m
    assert depth < ALMOST_VERTICAL.max_depth_m
    assert max_crescent_force(depth, ALMOST_VERTICAL.width_m, DRY_SAND).force_n < 5000.0


NAN = math.nan


@pytest.mark.parametrize(
    ("design", "soil", "cd_model", "drafts", "message"),
    [
        # An overflow, then an invalid draft; and the reverse.
        (WIDE, DENSE, WIDE_ONSET, [0.0, 1e307, -1.0], OVERFLOW),
        (WIDE, DENSE, WIDE_ONSET, [1e307, 1.0], OVERFLOW),
        (WIDE, DENSE, WIDE_ONSET, [-1.0, 1e307], NEGATIVE),
        (WIDE, DENSE, WIDE_ONSET, [1e308, 1.0, 1e307], DECREASED),
        # Drafts past the capacity are not bisected; a later one is.
        (WIDE, DENSE, WIDE_ONSET, [1e308, 1e308, 1e307], r"^draft_n \(1e\+307\) decreased"),
        (WIDE, DENSE, WIDE_ONSET, [1e308], None),
        # An overflow comes before a later non-finite draft.
        (WIDE, DENSE, WIDE_ONSET, [1e307, NAN], OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [1.0], ONSET_OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [-1.0, 1.0], NEGATIVE),
        (WIDE, DENSE, WIDE_ONSET, [0.0, 1e307, math.inf], OVERFLOW),
        # The arm stands vertical, then an invalid draft; and the reverse.
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [0.0, 2000.0, -1.0], STANDS),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [2000.0, 1.0], STANDS),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [-1.0, 2000.0], NEGATIVE),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [5.0, 1.0, 2000.0], DECREASED),
        # A non-finite draft is not scanned or bisected: it comes before an
        # overflow, a capacity overflow and a vertical arm after it, and
        # before the negative and decreasing checks of its own draft.
        (WIDE, DENSE, WIDE_ONSET, [NAN], NOT_FINITE),
        (WIDE, DENSER, WIDE_ONSET, [NAN, 1.0], NOT_FINITE),
        (WIDE, DENSE, WIDE_ONSET, [0.0, math.inf, 1e307], r"^draft_n \(inf\) must be finite$"),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [5.0, -math.inf], r"^draft_n \(-inf\) must be"),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [NAN, 2000.0], NOT_FINITE),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [2000.0, NAN], STANDS),
        # The design depth is one float short of radius - hinge height, but
        # the thrust angle there rounds to 90 degrees: the arm stands vertical.
        (ALMOST_VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [0.0, 5000.0, NAN], ALMOST_STANDS),
        # Zero drafts before the capacity overflow need no scan and raise nothing.
        (WIDE, DENSER, WIDE_ONSET, [0.0, 0.0, 1.0], ONSET_OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [0.0, 1.0, -1.0], ONSET_OVERFLOW),
    ],
)
def test_errors_come_in_draft_order(design, soil, cd_model, drafts, message):
    if message is None:
        assert [step.regime for step in predict_series(design, soil, drafts, cd_model)] == [
            FailureMode.LATERAL
        ]
        return
    with pytest.raises(ValueError, match=message):
        predict_series(design, soil, drafts, cd_model)


@settings(max_examples=300, deadline=None)
@given(
    depths=st.lists(st.floats(0.0, 50.0) | st.floats(0.0, 1e200), min_size=0, max_size=70),
    width=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300),
    soil=soils,
    law=st.sampled_from(ForceLaw),
)
@example(depths=[0.0, 1e154, 1e103, 0.3], width=0.021, soil=DRY_SAND, law=ForceLaw.ACTIVE_WEDGE)
def test_kernel_maxima_equal_max_crescent_force(depths, width, soil, law):
    peaks = CrescentKernel.scan(soil, law).maxima(depths, width).tolist()
    assert len(peaks) == len(depths)
    for depth, peak in zip(depths, peaks):
        try:
            force = max_crescent_force(depth, width, soil, law).force_n
        except ValueError:
            assert not math.isfinite(peak)
        else:
            assert repr(peak) == repr(force)


def test_examples_cover_surface_onset_and_no_onset():
    assert lateral_onset_depth(SURFACE, CriticalDepthModel(k1=2.0)) == 0.0
    assert lateral_onset_depth(THICK) is None


@settings(max_examples=300, deadline=None)
@given(
    depth=st.floats(0.0, 50.0),
    step=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    width=st.floats(1e-3, 1.0),
    soil=soils,
    law=st.sampled_from(ForceLaw),
)
def test_max_crescent_force_never_decreases_with_depth(depth, step, width, soil, law):
    deeper = depth + step if step else math.nextafter(depth, math.inf)
    shallow = max_crescent_force(depth, width, soil, law).force_n
    assert max_crescent_force(deeper, width, soil, law).force_n >= shallow
