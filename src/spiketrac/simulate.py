"""Quasi-static forward model: draft schedule to predicted penetration.

For each draft force the spike is assumed to sink until the soil can
react it.  While the failure regime is crescent-type, the available
reaction is the maximized crescent force at the current depth, which
grows monotonically with depth; the equilibrium depth solves
max_crescent_force(z) = F by bisection.  A schedule's drafts are
bisected in lock step over one crescent kernel, and since the maximum
never decreases with depth, a midpoint is evaluated only where the
depths already evaluated around the lane's estimated root leave it
open.  Once the required depth crosses
the critical depth the lateral regime takes over and is assumed to carry
any remaining draft (no quantitative lateral model exists), so the
predicted depth stops at the regime boundary.  Drafts the crescent
cannot carry within the design depth and without a lateral regime are
flagged unsustained at the design depth.

Depths never decrease along a schedule: weights are only added.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    SpikeDesign,
    bisect,
    effective_sine,
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
_NEWTON_STEPS = 8  # from within a factor 2 of a cubic's root to past float precision
_ROOT_ANGLES = 2  # the least root over this many grid angles either side of the last best
_SEED_SPREAD = 1e-9  # relative offsets either side of an estimated root that bracket it


# predict_series' rows, one per scheduled draft; regime holds FailureMode members.
_STEP_DTYPE = np.dtype([
    ("draft_n", float), ("depth_m", float), ("regime", object), ("sustained", bool),
    ("thrust_deg", float), ("rake_deg", float), ("lift_n", float),
])


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
    # z_max * 1000 / 1000 can round above radius - hinge height.
    samples = np.minimum(z_max * np.arange(1, _ONSET_SAMPLES + 1) / _ONSET_SAMPLES, design.max_depth_m)
    thrust = np.degrees(np.arcsin(np.minimum(effective_sine(design, samples), 1.0)))
    margins = samples - critical_depths(width, rotated_rake(rake0, thrust, gamma0), cd_model)
    # z_c <= k0 w (1 + k1): the arcsin's few ulps move it far less than this.
    guard = _ONSET_GUARD * (z_max + cd_model.k0 * width * (1.0 + cd_model.k1))
    hits = np.flatnonzero(margins_hold(margins, guard, crossed, samples))
    if hits.size:
        first = int(hits[0])
        lo = float(samples[first - 1]) if first else 0.0
        return bisect(crossed, lo, float(samples[first]), _DEPTH_TOLERANCE_M)[1]
    return None


def _cubic_roots(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The positive root of a z^2 + b z^3 = q, element-wise: Newton's method from above."""
    z = np.minimum(np.sqrt(q / a), np.cbrt(q / b))  # the root has a z^2 <= q and b z^3 <= q
    for _ in range(_NEWTON_STEPS):
        z -= (z * z * (a + b * z) - q) / (z * (2.0 * a + 3.0 * b * z))
    return z


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a wild root estimate is skipped
def _equilibrium_depths(
    soil: SoilProperties, width_m: float, drafts: np.ndarray, depth_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect max force(z) >= draft over [0, depth_m] for every draft at once.

    Each lane halves its own bracket with :func:`geometry.bisect`'s
    arithmetic and tolerance, so it ends on the depth that a bisection of
    its draft alone returns: the first result holds it, one per lane.  A
    lane whose maximum overflows stops at that depth; the second result
    holds it for that lane, and nan for the others.
    The maximum never decreases with depth, so a midpoint fails unevaluated
    at or below ``below``, the deepest depth whose finite maximum fell short
    of the lane's draft, and holds at or above ``above``, the shallowest
    whose finite maximum carried it, up to ``reach``, the deepest with a
    finite maximum.  Evaluations at the design depth and around each lane's
    fixed-angle root (over every angle when the design-depth row overflows)
    narrow these first; each distinct midpoint left is evaluated once,
    hinted with its lane's last maximizing angle.
    """
    kernel = CrescentKernel.scan(soil)
    need = np.array(drafts, dtype=float)
    below, above = np.zeros(need.size), np.full(need.size, math.inf)
    best = np.zeros(need.size, dtype=np.intp)  # each lane's last maximizing angle index
    reach = 0.0

    def evaluate(lanes: np.ndarray, depths: np.ndarray) -> np.ndarray:
        nonlocal reach
        values, first, inverse = np.unique(depths, return_index=True, return_inverse=True)
        peaks, index = kernel.peaks(values.tolist(), width_m, best[lanes[first]])
        peaks, best[lanes] = peaks[inverse], index[inverse]
        finite, holds = np.isfinite(peaks), peaks >= need[lanes]
        short, carry = finite & ~holds, finite & holds
        below[lanes[short]] = np.maximum(below[lanes[short]], depths[short])
        above[lanes[carry]] = np.minimum(above[lanes[carry]], depths[carry])
        reach = max(reach, float(depths[finite].max(initial=0.0)))
        return peaks

    # An overflowing design-depth row has no maximizing angle: the maximum
    # first reaches each draft at the least of its roots over all angles.
    overflowed = not np.isfinite(evaluate(np.arange(need.size), np.full(need.size, depth_m))[0])
    grid, near = np.arange(kernel.cot.size)[None, :], np.arange(-_ROOT_ANGLES, _ROOT_ANGLES + 1)
    for scales in ((1.0,), (1.0 - _SEED_SPREAD, 1.0 + _SEED_SPREAD)):
        index = np.clip(best[:, None] + near, 0, grid.size - 1)
        index = grid if overflowed and len(scales) == 1 else index
        roots = _cubic_roots(*kernel.cubic(index, width_m), need[:, None])
        root = np.fmin.reduce(roots, axis=1)  # skips an angle whose cubic overflows to nan
        for z in (root * scale for scale in scales):
            inside = np.flatnonzero((z > below) & (z < np.minimum(above, depth_m)))  # nan: skipped
            evaluate(inside, z[inside])
    lo, hi = np.zeros(need.size), np.full(need.size, depth_m)
    overflows = np.full(need.size, math.nan)
    live = np.flatnonzero(hi - lo > _DEPTH_TOLERANCE_M)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        holds = (mid >= above[live]) & (mid <= reach)
        ask = np.flatnonzero(~holds & (mid > below[live]))
        finite = np.ones(live.size, dtype=bool)
        if ask.size:
            peaks = evaluate(live[ask], mid[ask])
            holds[ask], finite[ask] = peaks >= need[live[ask]], np.isfinite(peaks)
            overflows[live[~finite]] = mid[~finite]
        hi[live[holds]] = mid[holds]
        lo[live[~holds]] = mid[~holds]
        live = live[finite & (hi[live] - lo[live] > _DEPTH_TOLERANCE_M)]
    return hi, overflows


def _checked_prefix(drafts: np.ndarray) -> tuple[np.ndarray, ValueError | None]:
    """The drafts before the first non-finite, negative or decreasing one, and its error."""
    previous = np.concatenate(([0.0], drafts[:-1]))
    bad = np.flatnonzero(~np.isfinite(drafts) | (drafts < 0) | (drafts < previous))
    if not bad.size:
        return drafts, None
    index = int(bad[0])
    draft = float(drafts[index])
    if not math.isfinite(draft):
        rule = "must be finite"
    elif draft < 0:
        rule = "must be >= 0"
    else:
        rule = f"decreased (previous {float(previous[index])}); weights are only added"
    return drafts[:index], ValueError(f"draft_n ({draft}) {rule}")


def predict_series(
    design: SpikeDesign,
    soil: SoilProperties,
    drafts_n: list[float],
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> np.recarray:
    """Predicted pose series for a non-decreasing draft schedule.

    One row per draft, with the fields ``draft_n``, ``depth_m``,
    ``regime`` (a :class:`FailureMode`), ``sustained``, ``thrust_deg``,
    ``rake_deg`` and ``lift_n``.

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
    A pose is computed once per new depth, and the lift is one product of
    the drafts and the poses' tan(thrust).
    """
    z_lateral = lateral_onset_depth(design, cd_model)
    gamma0 = thrust_angle(design, 0.0)
    top = design.design_depth_m if z_lateral is None else z_lateral
    width = design.width_m
    drafts, error = _checked_prefix(np.fromiter(drafts_n, dtype=float))
    capacity = math.inf
    # Scanned at the first positive draft: the zero drafts before it never
    # raise, so a scan error here is the first error in draft order.
    if (drafts > 0).any():
        capacity = max_crescent_force(top, width, soil).force_n
    # Drafts never decrease: the distinct carried ones, sorted (np.unique imports numpy.ma).
    carried = drafts[(drafts > 0) & (drafts <= capacity)]
    lanes = carried[carried != np.concatenate(([0.0], carried[:-1]))]
    depths = overflows = np.empty(0)
    if lanes.size:
        depths, overflows = _equilibrium_depths(soil, width, lanes, design.design_depth_m)
    # Each draft's lane, after a lane 0 for the zero drafts and before one
    # for the drafts above the capacity, which the crescent cannot carry.
    lane = np.searchsorted(np.concatenate(([0.0], lanes)), drafts)
    z_eq = np.concatenate(([0.0], depths, [math.inf]))[lane]
    overflow = np.concatenate(([math.nan], overflows, [math.nan]))[lane]
    # A draft past the top stops there: lateral, or unsustained without an onset.
    crescent = z_eq <= top
    lateral = ~crescent & (z_lateral is not None)
    depth = np.maximum.accumulate(np.minimum(z_eq, top))

    n = drafts.size
    rises = np.ones(n, dtype=bool)  # a new pose at the first step and where the depth rises
    np.greater(depth[1:], depth[:-1], out=rises[1:])
    overflowed = np.flatnonzero(~np.isnan(overflow))
    stop = int(overflowed[0]) if overflowed.size else n  # the first draft whose lane overflowed
    thrusts, tans = [], []
    for i in np.flatnonzero(rises[:stop]).tolist():
        z = float(depth[i])
        thrust = thrust_angle(design, z)
        if z >= design.max_depth_m or thrust >= 90.0:
            raise ValueError(
                f"draft_n ({float(drafts[i])}) stands the arm vertical at depth_m={z}: "
                "the lift is unbounded"
            )
        thrusts.append(thrust)
        tans.append(math.tan(math.radians(thrust)))
    if stop < n:  # the scan at the depth where this draft's lane overflowed raises
        max_crescent_force(float(overflow[stop]), width, soil)
    if error is not None:
        raise error

    pose = np.cumsum(rises) - 1
    steps = np.empty(n, _STEP_DTYPE)
    steps["draft_n"], steps["depth_m"], steps["sustained"] = drafts, depth, crescent | lateral
    steps["regime"] = np.where(lateral, FailureMode.LATERAL, FailureMode.CRESCENT)
    steps["thrust_deg"] = np.array(thrusts)[pose]
    steps["rake_deg"] = rotated_rake(design.initial_rake_deg, steps["thrust_deg"], gamma0)
    with np.errstate(over="ignore"):  # lifting_force's float product, bit for bit, inf included
        steps["lift_n"] = drafts * np.array(tans)[pose]
    return steps.view(np.recarray)
