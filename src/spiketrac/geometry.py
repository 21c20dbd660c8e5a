"""Rigid-body kinematics of a hinged interlocking spike.

A traction spike hangs from a lever arm that pivots on a hinge a few
centimeters above the soil surface.  As the vehicle is pulled forward the
arm rotates and drives the spike tip deeper.  Everything here follows from
that single rigid rotation:

* the thrust angle gamma is the inclination of the hinge-to-tip line,
  sin(gamma) = (hinge_height + depth) / radius (:func:`effective_sine`);
* the spike body rotates with the arm, so its rake angle alpha turns
  from alpha0 by as much as gamma turns from gamma0 (:func:`rotated_rake`);
* a horizontal draft F_D at the hinge produces a vertical lift
  F_L = F_D * tan(gamma);
* self-penetration is judged on alpha - gamma, which is depth-invariant
  under rigid rotation (the window itself is a design constraint).

Angles are degrees, lengths meters, forces newtons throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hinge elevation defaults to the midpoint of the 7-10 cm band used on the
# field rigs.
DEFAULT_HINGE_HEIGHT_M = 0.09


def finite_rule(rule: str, *values: float) -> str:
    """``rule``, or "finite and ``rule``" when a value is infinite and may satisfy ``rule``."""
    return f"finite and {rule}" if any(map(math.isinf, values)) else rule


@dataclass(frozen=True, slots=True)
class SpikeDesign:
    """Geometry of one articulated spike.

    radius_m is the hinge-to-tip distance; design_depth_m the deepest
    intended penetration.  diameter_mm is the spike thickness and
    tip_mass_kg the dead weight concentrated at the tip (helps initial
    penetration, irrelevant to the kinematics here).
    """

    radius_m: float
    hinge_height_m: float = DEFAULT_HINGE_HEIGHT_M
    initial_rake_deg: float = 45.0
    diameter_mm: float = 21.0
    design_depth_m: float = 0.50
    tip_mass_kg: float = 0.0

    def __post_init__(self) -> None:
        lever_ok, depth_ok = arm_rules(self.radius_m, self.hinge_height_m, self.design_depth_m)
        if not lever_ok:
            rule = finite_rule("positive", self.radius_m, self.hinge_height_m)
            raise ValueError(
                f"radius_m ({self.radius_m}) must exceed hinge_height_m "
                f"({self.hinge_height_m}) and both must be {rule}"
            )
        if not depth_ok:
            raise ValueError(
                f"design_depth_m ({self.design_depth_m}) must lie in "
                f"(0, radius_m - hinge_height_m] = (0, {self.max_depth_m}]"
            )
        rake_ok, diameter_ok = spike_rules(self.initial_rake_deg, self.diameter_mm)
        if not rake_ok:
            raise ValueError(
                f"initial_rake_deg ({self.initial_rake_deg}) must lie in (0, 90)"
            )
        if not diameter_ok:
            rule = finite_rule("positive", self.diameter_mm)
            raise ValueError(f"diameter_mm ({self.diameter_mm}) must be {rule}")
        if not 0 <= self.tip_mass_kg < math.inf:
            rule = finite_rule(">= 0", self.tip_mass_kg)
            raise ValueError(f"tip_mass_kg ({self.tip_mass_kg}) must be {rule}")

    @property
    def max_depth_m(self) -> float:
        """Deepest geometrically reachable tip depth (arm vertical)."""
        return self.radius_m - self.hinge_height_m

    @property
    def width_m(self) -> float:
        """Spike thickness in meters, as seen by the soil."""
        return self.diameter_mm / 1000.0


def arm_rules(radius_m, hinge_height_m, depth_m):
    """Whether a lever arm and a design depth are valid: ``(inf > r > h > 0, 0 < z <= r - h)``.

    Takes scalars or broadcast arrays; :class:`SpikeDesign` and the
    design grid both judge their arms by it.
    """
    lever_ok = (math.inf > radius_m) & (radius_m > hinge_height_m) & (hinge_height_m > 0)
    return lever_ok, (0 < depth_m) & (depth_m <= radius_m - hinge_height_m)


def spike_rules(initial_rake_deg, diameter_mm):
    """Whether a spike's rake and diameter are valid: ``(0 < alpha0 < 90, 0 < d < inf)``.

    Takes scalars or arrays; :class:`SpikeDesign` and the design grid both
    judge their rakes and diameters by it.
    """
    rake_ok = (0 < initial_rake_deg) & (initial_rake_deg < 90)
    return rake_ok, (0 < diameter_mm) & (diameter_mm < math.inf)


def effective_sine(design: SpikeDesign, depth_m, kappa=1.0):
    """sin(gamma_eff) = (hinge_height + kappa * depth) / radius.

    The draft acts at fraction kappa of the tip depth.  ``design`` is
    anything with ``radius_m`` and ``hinge_height_m``, scalars or arrays
    (the design grid passes arrays of arms).  Checks nothing: each caller
    validates its own domain.
    """
    return (design.hinge_height_m + kappa * depth_m) / design.radius_m


def sine_angle(ratio: float) -> float:
    """The angle in radians whose sine is ``ratio``, a ratio past 1 (pure rounding) taken as 1.

    ``math.asin(min(ratio, 1.0))`` with the comparison written out, which takes a
    third of ``min``'s time.  ``math.asin`` on one float: ``np.arcsin`` may differ
    in the last bits.
    """
    return math.asin(1.0 if ratio > 1.0 else ratio)


def sine_degrees(ratio: float) -> float:
    """:func:`sine_angle` in degrees."""
    return math.degrees(sine_angle(ratio))


def margins_hold(margins: np.ndarray, guard: float, exact, *columns: np.ndarray) -> np.ndarray:
    """Whether each lane's margin is >= 0, with ``exact`` deciding the lanes near zero.

    An array formula can differ from its scalar counterpart in the last
    bits (``np.arcsin`` against ``math.asin``).  Lanes whose margin lies
    within ``guard`` of zero, or is nan, are decided by
    ``exact(*values)`` on their values of ``columns`` instead.
    """
    holds = margins >= 0
    near = np.flatnonzero(~(np.abs(margins) > guard))
    holds[near] = [exact(*lane) for lane in zip(*(column[near].tolist() for column in columns))]
    return holds


def bisect(holds, lo: float, hi: float, tolerance: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is no wider than ``tolerance``, keeping ``holds`` false at lo
    and true at hi (for a predicate that turns true once); return the final (lo, hi)."""
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def thrust_angle(design: SpikeDesign, depth_m: float) -> float:
    """Thrust angle gamma (degrees) of the hinge-to-tip line at a tip depth.

    gamma = arcsin((hinge_height + depth) / radius); strictly increasing
    in depth.  Raises ValueError outside 0 <= depth <= radius - hinge height.
    """
    if not depth_m >= 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    if depth_m > design.max_depth_m:
        raise ValueError(
            f"depth_m ({depth_m}) exceeds the reachable maximum "
            f"radius_m - hinge_height_m = {design.max_depth_m}"
        )
    return sine_degrees(effective_sine(design, depth_m))


def depth_from_inclination(design: SpikeDesign, arm_inclination_deg):
    """Tip depth implied by a measured lever-arm inclination.

    Exact inverse of :func:`thrust_angle`: z = radius * sin(delta) - hinge
    height.  Inclinations below the surface-contact angle gamma0 mean the
    tip is airborne; depth is clamped to 0 and flagged.  Inclinations above
    90 degrees, and nan, are a domain error.  Returns ``(depth_m,
    tip_airborne)``, each of the inclinations' shape.
    """
    if not np.all(arm_inclination_deg <= 90.0):
        raise ValueError(
            f"arm_inclination_deg ({np.max(arm_inclination_deg)}) must be <= 90"
        )
    depth = design.radius_m * np.sin(np.radians(arm_inclination_deg)) - design.hinge_height_m
    return np.maximum(depth, 0.0), depth < -1e-12


def rotated_rake(initial_rake_deg, thrust_deg, surface_thrust_deg):
    """Rake angle (degrees) of a spike rotated rigidly with its arm.

    The initial rake turns by the thrust angle's change from surface
    contact.  Takes scalars or broadcast arrays.
    """
    return initial_rake_deg + (thrust_deg - surface_thrust_deg)


def rake_angle(design: SpikeDesign, depth_m: float) -> float:
    """Rake angle alpha (degrees) of the spike body at a tip depth."""
    return rotated_rake(
        design.initial_rake_deg, thrust_angle(design, depth_m), thrust_angle(design, 0.0)
    )


def lifting_force(draft_n: float, thrust_deg: float) -> float:
    """Vertical lift at the hinge from a horizontal draft: F_L = F_D tan(gamma)."""
    if not math.isfinite(draft_n):
        raise ValueError(f"draft_n ({draft_n}) must be finite")
    if not 0 <= thrust_deg < 90:
        raise ValueError(f"thrust_deg ({thrust_deg}) must lie in [0, 90)")
    return draft_n * math.tan(math.radians(thrust_deg))


def tip_displacement(
    design: SpikeDesign,
    inclination_start_deg,
    inclination_end_deg,
    hinge_advance_m,
):
    """Ground-frame tip motion ``(dx_m, dz_m)`` between two arm poses with a hinge advance.

    dx_m is positive along travel, dz_m positive downward:
    dz = r (sin(delta_end) - sin(delta_start)) and
    dx = hinge_advance - r (cos(delta_start) - cos(delta_end)):
    the hinge carries the tip forward while the rotation swings it
    backward.  Both inclinations must lie in [gamma0, 90].  Takes scalars
    or broadcast arrays, one pose pair per element.
    """
    gamma0 = thrust_angle(design, 0.0)
    for name, value in (
        ("inclination_start_deg", inclination_start_deg),
        ("inclination_end_deg", inclination_end_deg),
    ):
        inside = (gamma0 - 1e-9 <= value) & (value <= 90.0 + 1e-9)
        if not np.all(inside):
            first_bad = np.extract(np.logical_not(inside), value)[0]
            raise ValueError(
                f"{name} ({first_bad}) must lie in [{gamma0}, 90] for this design"
            )
    start = np.radians(inclination_start_deg)
    end = np.radians(inclination_end_deg)
    dz = design.radius_m * (np.sin(end) - np.sin(start))
    dx = hinge_advance_m - design.radius_m * (np.cos(start) - np.cos(end))
    return dx, dz
