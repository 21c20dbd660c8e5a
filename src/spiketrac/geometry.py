"""Rigid-body kinematics of a hinged interlocking spike.

A traction spike hangs from a lever arm that pivots on a hinge a few
centimeters above the soil surface.  As the vehicle is pulled forward the
arm rotates and drives the spike tip deeper.  Everything here follows from
that single rigid rotation:

* the thrust angle gamma is the inclination of the hinge-to-tip line,
  sin(gamma) = (hinge_height + depth) / radius;
* the rake angle alpha of the spike body rotates with the arm,
  alpha(z) = alpha0 + (gamma(z) - gamma0);
* a horizontal draft F_D at the hinge produces a vertical lift
  F_L = F_D * tan(gamma);
* self-penetration is effective when alpha - gamma stays inside a fixed
  window (15..35 degrees), and alpha - gamma is depth-invariant under
  rigid rotation.

Angles are degrees, lengths meters, forces newtons throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hinge elevation defaults to the midpoint of the 7-10 cm band used on the
# field rigs.
DEFAULT_HINGE_HEIGHT_M = 0.09

# Self-penetration force is considered maximized while alpha - gamma lies
# strictly inside this window (degrees).
PENETRATION_WINDOW_DEG = (15.0, 35.0)


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
        if not self.radius_m > self.hinge_height_m > 0:
            raise ValueError(
                f"radius_m ({self.radius_m}) must exceed hinge_height_m "
                f"({self.hinge_height_m}) and both must be positive"
            )
        if not 0 < self.design_depth_m <= self.max_depth_m:
            raise ValueError(
                f"design_depth_m ({self.design_depth_m}) must lie in "
                f"(0, radius_m - hinge_height_m] = (0, {self.max_depth_m}]"
            )
        if not 0 < self.initial_rake_deg < 90:
            raise ValueError(
                f"initial_rake_deg ({self.initial_rake_deg}) must lie in (0, 90)"
            )
        if self.diameter_mm <= 0:
            raise ValueError(f"diameter_mm ({self.diameter_mm}) must be positive")
        if self.tip_mass_kg < 0:
            raise ValueError(f"tip_mass_kg ({self.tip_mass_kg}) must be >= 0")

    @property
    def max_depth_m(self) -> float:
        """Deepest geometrically reachable tip depth (arm vertical)."""
        return self.radius_m - self.hinge_height_m

    @property
    def width_m(self) -> float:
        """Spike thickness in meters, as seen by the soil."""
        return self.diameter_mm / 1000.0


@dataclass(frozen=True)
class SpikeState:
    """Pose of a spike at one penetration depth."""

    depth_m: float
    thrust_deg: float
    rake_deg: float


@dataclass(frozen=True)
class DepthResult:
    """Depth recovered from an arm inclination.

    tip_airborne is set when the inclination puts the tip above the soil
    surface; depth_m is then clamped to zero.  Both are arrays when the
    inclinations were.
    """

    depth_m: float
    tip_airborne: bool


@dataclass(frozen=True)
class WindowMargin:
    """alpha - gamma at the surface and whether it sits in the window."""

    difference_deg: float
    in_window: bool


@dataclass(frozen=True)
class TipDisplacement:
    """Ground-frame tip motion between two arm poses.

    dx_m is horizontal (vehicle travel direction positive), dz_m vertical
    (downward penetration positive).  Both are arrays when the poses were.
    """

    dx_m: float
    dz_m: float


def thrust_angle(design: SpikeDesign, depth_m: float) -> float:
    """Thrust angle gamma (degrees) of the hinge-to-tip line at a tip depth.

    gamma = arcsin((hinge_height + depth) / radius); strictly increasing
    in depth.  Raises ValueError outside 0 <= depth <= radius - hinge height.
    """
    if depth_m < 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    if depth_m > design.max_depth_m:
        raise ValueError(
            f"depth_m ({depth_m}) exceeds the reachable maximum "
            f"radius_m - hinge_height_m = {design.max_depth_m}"
        )
    ratio = (design.hinge_height_m + depth_m) / design.radius_m
    # depth is validated above; a ratio beyond 1 is pure rounding.
    return math.degrees(math.asin(min(ratio, 1.0)))


def depth_from_inclination(design: SpikeDesign, arm_inclination_deg) -> DepthResult:
    """Tip depth implied by a measured lever-arm inclination.

    Exact inverse of :func:`thrust_angle`: z = radius * sin(delta) - hinge
    height.  Inclinations below the surface-contact angle gamma0 mean the
    tip is airborne; depth is clamped to 0 and flagged.  Inclinations above
    90 degrees are a domain error.  Takes a scalar or an array of
    inclinations; the result's fields then have its shape.
    """
    if np.any(arm_inclination_deg > 90.0):
        raise ValueError(
            f"arm_inclination_deg ({np.max(arm_inclination_deg)}) must be <= 90"
        )
    depth = design.radius_m * np.sin(np.radians(arm_inclination_deg)) - design.hinge_height_m
    return DepthResult(depth_m=np.maximum(depth, 0.0), tip_airborne=depth < -1e-12)


def rake_angle(design: SpikeDesign, depth_m: float) -> float:
    """Rake angle alpha (degrees) of the spike body at a tip depth.

    The spike rotates rigidly with the arm, so
    alpha(z) = alpha0 + (gamma(z) - gamma(0)).
    """
    return design.initial_rake_deg + (
        thrust_angle(design, depth_m) - thrust_angle(design, 0.0)
    )


def spike_state(design: SpikeDesign, depth_m: float) -> SpikeState:
    """Full pose (depth, thrust, rake) at a tip depth."""
    return SpikeState(
        depth_m=depth_m,
        thrust_deg=thrust_angle(design, depth_m),
        rake_deg=rake_angle(design, depth_m),
    )


def penetration_window_margin(design: SpikeDesign) -> WindowMargin:
    """alpha - gamma for a design and whether it sits in the 15-35 window.

    Under rigid rotation alpha - gamma is independent of depth, so the
    surface value alpha0 - gamma0 characterizes the design.
    """
    difference = design.initial_rake_deg - thrust_angle(design, 0.0)
    low, high = PENETRATION_WINDOW_DEG
    return WindowMargin(
        difference_deg=difference,
        in_window=low < difference < high,
    )


def lifting_force(draft_n: float, thrust_deg: float) -> float:
    """Vertical lift at the hinge from a horizontal draft: F_L = F_D tan(gamma)."""
    if not 0 <= thrust_deg < 90:
        raise ValueError(f"thrust_deg ({thrust_deg}) must lie in [0, 90)")
    return draft_n * math.tan(math.radians(thrust_deg))


def tip_displacement(
    design: SpikeDesign,
    inclination_start_deg,
    inclination_end_deg,
    hinge_advance_m,
) -> TipDisplacement:
    """Ground-frame tip motion between two arm poses with a hinge advance.

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
    return TipDisplacement(dx_m=dx, dz_m=dz)
