"""Quasi-static forward model: draft schedule to predicted penetration.

For each draft force the spike is assumed to sink until the soil can
react it.  While the failure regime is crescent-type, the available
reaction is the maximized crescent force at the current depth, which
grows monotonically with depth; the equilibrium depth solves
max_crescent_force(z) = F by bisection.  Once the required depth crosses
the critical depth the lateral regime takes over and is assumed to carry
any remaining draft (no quantitative lateral model exists), so the
predicted depth stops at the regime boundary.  Drafts the crescent
cannot carry within the design depth and without a lateral regime are
flagged unsustained at the design depth.

Depths never decrease along a schedule: weights are only added.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import SpikeDesign, lifting_force, rake_angle, spike_state
from .soilmech import (
    CriticalDepthModel,
    FailureMode,
    ForceLaw,
    SoilProperties,
    critical_depth,
    max_crescent_force,
)

_DEPTH_TOLERANCE_M = 1e-6


@dataclass(frozen=True)
class PredictedStep:
    """Predicted state of the spike at one scheduled draft."""

    draft_n: float
    depth_m: float
    regime: FailureMode
    sustained: bool
    thrust_deg: float
    rake_deg: float
    lift_n: float


def lateral_onset_depth(
    design: SpikeDesign,
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> float | None:
    """First depth at which the spike crosses into the lateral regime.

    Solves z = z_c(width, rake(z)) within [0, design depth]; the rake
    grows with depth, dragging the critical depth up with it, so the
    first crossing is located on a fine grid and refined by bisection.
    Returns None when the spike stays above its critical depth over the
    whole design range.
    """
    width = design.width_m

    def excess(z: float) -> float:
        return z - critical_depth(width, rake_angle(design, z), cd_model)

    samples = 1000
    z_max = design.design_depth_m
    prev_z, prev_val = 0.0, excess(0.0)
    if prev_val >= 0:
        return 0.0
    for i in range(1, samples + 1):
        z = z_max * i / samples
        val = excess(z)
        if val >= 0:
            lo, hi = prev_z, z
            while hi - lo > _DEPTH_TOLERANCE_M:
                mid = 0.5 * (lo + hi)
                if excess(mid) >= 0:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_z, prev_val = z, val
    return None


def _crescent_equilibrium_depth(
    design: SpikeDesign,
    soil: SoilProperties,
    draft_n: float,
    law: ForceLaw,
) -> float | None:
    """Smallest depth whose maximized crescent force carries the draft."""
    if draft_n <= 0:
        return 0.0
    width = design.width_m

    def reaction(z: float) -> float:
        if z <= 0:
            return 0.0
        return max_crescent_force(z, width, soil, law).force_n

    z_max = design.design_depth_m
    if reaction(z_max) < draft_n:
        return None
    lo, hi = 0.0, z_max
    while hi - lo > _DEPTH_TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        if reaction(mid) >= draft_n:
            hi = mid
        else:
            lo = mid
    return hi


def predict_series(
    design: SpikeDesign,
    soil: SoilProperties,
    drafts_n: list[float],
    cd_model: CriticalDepthModel = CriticalDepthModel(),
    law: ForceLaw = ForceLaw.ACTIVE_WEDGE,
) -> list[PredictedStep]:
    """Predicted pose series for a non-decreasing draft schedule."""
    z_lateral = lateral_onset_depth(design, cd_model)
    steps: list[PredictedStep] = []
    depth = 0.0
    for draft in drafts_n:
        if draft < 0:
            raise ValueError(f"draft_n ({draft}) must be >= 0")
        z_eq = _crescent_equilibrium_depth(design, soil, draft, law)
        if z_eq is not None and (z_lateral is None or z_eq <= z_lateral):
            target, regime, sustained = z_eq, FailureMode.CRESCENT, True
        elif z_lateral is not None:
            target, regime, sustained = z_lateral, FailureMode.LATERAL, True
        else:
            target, regime, sustained = design.design_depth_m, FailureMode.CRESCENT, False
        depth = max(depth, target)
        state = spike_state(design, depth)
        steps.append(
            PredictedStep(
                draft_n=draft,
                depth_m=depth,
                regime=regime,
                sustained=sustained,
                thrust_deg=state.thrust_deg,
                rake_deg=state.rake_deg,
                lift_n=lifting_force(draft, state.thrust_deg) if state.thrust_deg < 90 else float("inf"),
            )
        )
    return steps
