"""The forward model against the per-draft loop it replaced, bit for bit.

The reference below scans the crescent force at design depth for every
positive draft, bisects it over the whole design depth, and finds the
lateral onset with a bisection of its own.  ``predict_series`` scans the
crescent force once, at the top of the crescent regime, and classifies a
draft above it without a bisection.  That is exact because the maximized
crescent force never decreases with depth, which the last test checks.
Every ``PredictedStep`` field must come out the same, compared through
``repr`` so that -0.0 and 0.0 count as different.  Where the reference
reaches radius - hinge height, the arm stands vertical and
``predict_series`` must raise, naming that draft.
"""

import math
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
        if depth >= design.max_depth_m:
            return steps, draft  # the arm stands vertical: no lift
        thrust = thrust_angle(design, depth)
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
    steps, vertical = reference_series(design, soil, drafts, cd_model)
    if vertical is None:
        assert bits(predict_series(design, soil, drafts, cd_model)) == bits(steps)
    else:
        with pytest.raises(ValueError, match=rf"^draft_n \({vertical!r}\) stands the arm vertical"):
            predict_series(design, soil, drafts, cd_model)


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
