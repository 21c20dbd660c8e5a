"""Quasi-static forward model: draft schedule to predicted penetration.

For each draft force the spike is assumed to sink until the soil can
react it.  While the failure regime is crescent-type, the available
reaction is the maximized crescent force at the current depth, which
grows monotonically with depth; the equilibrium depth solves
max_crescent_force(z) = F by bisection.  A schedule's drafts are
bisected in lock step: one crescent kernel holds the shear-angle grid,
and each step takes the maximum at every distinct midpoint depth in one
array pass, over a window of angles around the lane's previous maximum
where that is exact.  Once the required depth crosses
the critical depth the lateral regime takes over and is assumed to carry
any remaining draft (no quantitative lateral model exists), so the
predicted depth stops at the regime boundary.  Drafts the crescent
cannot carry within the design depth and without a lateral regime are
flagged unsustained at the design depth.

Depths never decrease along a schedule: weights are only added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SpikeDesign,
    effective_sine,
    lifting_force,
    margins_hold,
    rotated_rake,
    thrust_angle,
)
from .soilmech import (
    CrescentKernel,
    CriticalDepthModel,
    FailureMode,
    SoilProperties,
    critical_depth,
    critical_depths,
    max_crescent_force,
)

_DEPTH_TOLERANCE_M = 1e-6
_ONSET_SAMPLES = 1000  # grid steps over the design depth in the onset search
_ONSET_GUARD = 1e-9  # margins this close to zero, relative to the depth scale, go to the scalar


def _bisect(holds, lo: float, hi: float) -> float:
    """Shrink [lo, hi] to the depth tolerance around where ``holds`` turns true; return hi."""
    while hi - lo > _DEPTH_TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


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

    The grid's margins z - z_c are computed on arrays; the scalar test
    decides the samples whose margin lies within a guard of zero, since
    ``np.arcsin`` may differ from ``math.asin`` in the last bits.
    """
    width = design.width_m
    rake0 = design.initial_rake_deg
    gamma0 = thrust_angle(design, 0.0)

    def crossed(z: float) -> bool:
        rake = rotated_rake(rake0, thrust_angle(design, z), gamma0)
        return z - critical_depth(width, rake, cd_model) >= 0

    if crossed(0.0):
        return 0.0
    z_max = design.design_depth_m
    samples = z_max * np.arange(1, _ONSET_SAMPLES + 1) / _ONSET_SAMPLES
    # z_max * 1000 / 1000 can round above radius - hinge height, where the
    # scalar walk raises on reaching it.
    beyond = samples[-1] > design.max_depth_m
    if beyond:
        samples = samples[:-1]
    thrust = np.degrees(np.arcsin(np.minimum(effective_sine(design, samples), 1.0)))
    margins = samples - critical_depths(width, rotated_rake(rake0, thrust, gamma0), cd_model)
    # z_c <= k0 w (1 + k1): the arcsin's few ulps move it far less than this.
    guard = _ONSET_GUARD * (z_max + cd_model.k0 * width * (1.0 + cd_model.k1))
    hits = np.flatnonzero(margins_hold(margins, guard, crossed, samples))
    if hits.size:
        first = int(hits[0])
        return _bisect(crossed, float(samples[first - 1]) if first else 0.0, float(samples[first]))
    if beyond:  # the walk reaches its last sample, past the arm's reach, and raises there
        crossed(z_max * _ONSET_SAMPLES / _ONSET_SAMPLES)
    return None


def _equilibrium_depths(
    soil: SoilProperties, width_m: float, drafts: list[float], depth_m: float
) -> tuple[dict[float, float], dict[float, float]]:
    """Bisect max force(z) >= draft over [0, depth_m] for every draft at once.

    Each lane halves its own bracket with :func:`_bisect`'s arithmetic and
    tolerance, so it ends on the depth that a bisection of its draft alone
    returns: the first result maps each draft to it.  A lane whose maximum
    overflows stops at that depth; the second result maps its draft to it.
    Lanes often share a midpoint, and each distinct one is evaluated once,
    starting from the shear angle that maximized the force at the
    previous midpoint of one of its lanes.
    """
    kernel = CrescentKernel.scan(soil)
    need = np.array(drafts, dtype=float)
    lo = np.zeros(len(drafts))
    hi = np.full(len(drafts), depth_m)
    best = np.zeros(len(drafts), dtype=np.intp)  # each lane's last maximizing angle index
    overflows: dict[float, float] = {}
    live = np.flatnonzero(hi - lo > _DEPTH_TOLERANCE_M)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        depths, first, inverse = np.unique(mid, return_index=True, return_inverse=True)
        peaks, index = kernel.peaks(depths.tolist(), width_m, best[live[first]])
        peaks = peaks[inverse]
        best[live] = index[inverse]
        holds = peaks >= need[live]
        hi[live[holds]] = mid[holds]
        lo[live[~holds]] = mid[~holds]
        finite = np.isfinite(peaks)
        for lane, z in zip(live[~finite].tolist(), mid[~finite].tolist()):
            overflows[drafts[lane]] = z
        live = live[finite & (hi[live] - lo[live] > _DEPTH_TOLERANCE_M)]
    return dict(zip(drafts, hi.tolist())), overflows


def _checked_prefix(drafts: list[float]) -> tuple[list[float], ValueError | None]:
    """The drafts before the first non-finite, negative or decreasing one, and its error."""
    previous = 0.0
    for index, draft in enumerate(drafts):
        if not math.isfinite(draft):
            return drafts[:index], ValueError(f"draft_n ({draft}) must be finite")
        if draft < 0:
            return drafts[:index], ValueError(f"draft_n ({draft}) must be >= 0")
        if draft < previous:
            return drafts[:index], ValueError(
                f"draft_n ({draft}) decreased (previous {previous}); weights are only added"
            )
        previous = draft
    return drafts, None


def predict_series(
    design: SpikeDesign,
    soil: SoilProperties,
    drafts_n: list[float],
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> list[PredictedStep]:
    """Predicted pose series for a non-decreasing draft schedule.

    A non-finite, negative or decreasing draft raises ValueError: weights
    are only added.  So does a draft that drives the tip to radius - hinge
    height, or so close to it that the thrust angle rounds to 90 degrees,
    where the arm stands vertical and the lift is unbounded, and one whose
    crescent force overflows.  The first of these in draft order is
    raised, and only the drafts before it are scanned or bisected.

    The crescent regime ends at the lateral onset, or at the design depth
    without one.  Its crescent force there is scanned once, at the first
    positive draft; the force never decreases with depth, so a draft
    above it is lateral or unsustained without a bisection.  The other
    positive drafts are bisected together, one lane per distinct draft.
    """
    z_lateral = lateral_onset_depth(design, cd_model)
    gamma0 = thrust_angle(design, 0.0)
    top = design.design_depth_m if z_lateral is None else z_lateral
    width = design.width_m
    drafts, error = _checked_prefix(list(drafts_n))
    capacity = math.inf
    # Scanned at the first positive draft: the zero drafts before it never
    # raise, so a scan error here is the first error in draft order.
    if any(draft > 0 for draft in drafts):
        capacity = max_crescent_force(top, width, soil).force_n
    lanes = [d for d in dict.fromkeys(drafts) if 0 < d <= capacity]
    depths, overflows = (
        _equilibrium_depths(soil, width, lanes, design.design_depth_m) if lanes else ({}, {})
    )

    steps: list[PredictedStep] = []
    depth = 0.0
    for draft in drafts:
        if draft in overflows:  # the scan at the depth where the lane overflowed raises
            max_crescent_force(overflows[draft], width, soil)
        if draft > capacity:  # never a zero draft: the crescent force is never negative
            z_eq = math.inf
        else:
            z_eq = depths.get(draft, 0.0)  # a zero draft needs no depth
        if z_eq <= top:
            target, regime, sustained = z_eq, FailureMode.CRESCENT, True
        elif z_lateral is not None:
            target, regime, sustained = z_lateral, FailureMode.LATERAL, True
        else:
            target, regime, sustained = design.design_depth_m, FailureMode.CRESCENT, False
        depth = max(depth, target)
        thrust = thrust_angle(design, depth)
        if depth >= design.max_depth_m or thrust >= 90.0:
            raise ValueError(
                f"draft_n ({draft}) stands the arm vertical at depth_m={depth}: "
                "the lift is unbounded"
            )
        steps.append(
            PredictedStep(
                draft_n=draft,
                depth_m=depth,
                regime=regime,
                sustained=sustained,
                thrust_deg=thrust,
                rake_deg=rotated_rake(design.initial_rake_deg, thrust, gamma0),
                lift_n=lifting_force(draft, thrust),
            )
        )
    if error is not None:
        raise error
    return steps
