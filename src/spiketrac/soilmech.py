"""Soil failure mechanics around a narrow traction spike.

Two regimes matter for a spike pulled laterally through granular soil,
separated by a critical depth.  Above it the soil ahead of the spike
shears along an inclined plane and is lifted as a crescent-shaped body;
the tractive force is then bounded by the crescent's weight and the
friction mobilized on the shear plane.  Below it the soil fails laterally
around the spike and sustains far larger forces (no quantitative model is
attempted for that regime here).

The crescent is modeled as a central triangular prism (width w, run-out
length L = z cot(beta)) flanked by two quarter cones of radius L and
height z, where beta is the shear-plane inclination.  The horizontal
force is the crescent weight times a wedge-friction factor; the default
"active" law uses tan(beta - phi), which vanishes as beta -> phi and as
beta -> 90, so an interior maximizing beta always exists and is found by
a deterministic grid scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BETA_STEP_DEG = 0.1
_SCAN_MARGIN_DEG = 0.1  # keep the scan strictly inside the law's domain


class ForceLaw(enum.Enum):
    """Sign convention for the friction mobilized on the shear plane."""

    ACTIVE_WEDGE = "active"
    PASSIVE_WEDGE = "passive"


class FailureMode(enum.Enum):
    CRESCENT = "crescent"
    LATERAL = "lateral"


@dataclass(frozen=True)
class SoilProperties:
    """Bulk granular soil parameters.

    The internal friction angle is taken as the angle of repose.  Gravity
    is configurable for low-gravity studies.
    """

    bulk_density_kg_m3: float
    friction_angle_deg: float
    moisture_label: str = "dry"
    gravity_m_s2: float = 9.81

    def __post_init__(self) -> None:
        if self.bulk_density_kg_m3 <= 0:
            raise ValueError(
                f"bulk_density_kg_m3 ({self.bulk_density_kg_m3}) must be positive"
            )
        if not 0 < self.friction_angle_deg < 90:
            raise ValueError(
                f"friction_angle_deg ({self.friction_angle_deg}) must lie in (0, 90)"
            )
        if self.gravity_m_s2 <= 0:
            raise ValueError(f"gravity_m_s2 ({self.gravity_m_s2}) must be positive")
        if self.moisture_label not in ("dry", "moist"):
            raise ValueError(
                f"moisture_label ({self.moisture_label!r}) must be 'dry' or 'moist'"
            )


# Field-measured beach sand: oven-dry and unsaturated moist (4% water).
DRY_SAND = SoilProperties(bulk_density_kg_m3=1720.0, friction_angle_deg=30.0, moisture_label="dry")
MOIST_SAND = SoilProperties(bulk_density_kg_m3=1790.0, friction_angle_deg=47.0, moisture_label="moist")


@dataclass(frozen=True)
class CriticalDepthModel:
    """Parametric critical-depth stub z_c = k0 * w * (1 + k1 * (rake - 45)/45).

    k0 is a base depth/width aspect ratio, k1 the rake sensitivity.  The
    defaults are order-of-magnitude placeholders; the literature gives the
    trends (narrower spike, higher rake -> deeper critical point) but no
    closed form for this soil.
    """

    k0: float = 6.0
    k1: float = 1.0

    def __post_init__(self) -> None:
        if self.k0 <= 0:
            raise ValueError(f"k0 ({self.k0}) must be positive")
        if self.k1 < 0:
            raise ValueError(f"k1 ({self.k1}) must be >= 0")


@dataclass(frozen=True)
class CrescentResult:
    """Crescent force maximized over the shear-plane angle."""

    beta_star_deg: float
    force_n: float
    curve: tuple[tuple[float, float], ...] = field(repr=False)


def _check_beta(beta_deg: float) -> None:
    if not 0 < beta_deg < 90:
        raise ValueError(f"beta_deg ({beta_deg}) must lie in (0, 90)")


def _volume(depth_m, width_m: float, cot):
    """Crescent volume from cot(beta); scalar or array."""
    return 0.5 * width_m * depth_m**2 * cot + (math.pi / 6.0) * depth_m**3 * cot**2


def _crescent_forces(
    depth_m: float, width_m: float, soil: SoilProperties, law: ForceLaw, betas
):
    """Horizontal crescent force at each shear angle in ``betas`` (degrees)."""
    cot = 1.0 / np.tan(np.radians(betas))
    weight = soil.bulk_density_kg_m3 * soil.gravity_m_s2 * _volume(depth_m, width_m, cot)
    phi = soil.friction_angle_deg
    if law is ForceLaw.ACTIVE_WEDGE:
        factor = np.where(betas > phi, np.tan(np.radians(betas - phi)), 0.0)
    else:
        factor = np.tan(np.radians(betas + phi))
    return weight * factor


def _check_depth_width(depth_m: float, width_m: float) -> None:
    if depth_m < 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    if width_m <= 0:
        raise ValueError(f"width_m ({width_m}) must be positive")


def crescent_volume(depth_m: float, beta_deg: float, width_m: float) -> float:
    """Volume of the lifted crescent for a shear plane at beta.

    V = w z^2 cot(beta) / 2 + (pi/6) z^3 cot(beta)^2: central prism plus
    two quarter-cone side bodies.  Zero at the surface.
    """
    _check_beta(beta_deg)
    _check_depth_width(depth_m, width_m)
    return _volume(depth_m, width_m, 1.0 / math.tan(math.radians(beta_deg)))


def crescent_force(
    depth_m: float,
    beta_deg: float,
    width_m: float,
    soil: SoilProperties,
    law: ForceLaw = ForceLaw.ACTIVE_WEDGE,
) -> float:
    """Horizontal force of the crescent against the spike at one beta.

    Active wedge: H = rho g V tan(beta - phi), zero for beta <= phi (the
    crescent cannot press on the spike under gravity alone).  Passive
    wedge: H = rho g V tan(beta + phi), only defined for beta + phi < 90
    (the wedge jams otherwise).
    """
    _check_beta(beta_deg)
    _check_depth_width(depth_m, width_m)
    phi = soil.friction_angle_deg
    if law is ForceLaw.PASSIVE_WEDGE and beta_deg + phi >= 90.0:
        raise ValueError(
            f"passive wedge jams: beta_deg + friction_angle_deg = "
            f"{beta_deg + phi} must stay below 90"
        )
    return float(_crescent_forces(depth_m, width_m, soil, law, beta_deg))


def _scan_bounds(
    soil: SoilProperties,
    law: ForceLaw,
    beta_min_deg: float | None,
    beta_max_deg: float | None,
) -> tuple[float, float]:
    phi = soil.friction_angle_deg
    if law is ForceLaw.ACTIVE_WEDGE:
        lo, hi = phi + _SCAN_MARGIN_DEG, 90.0 - _SCAN_MARGIN_DEG
    else:
        lo, hi = _SCAN_MARGIN_DEG, 90.0 - phi - _SCAN_MARGIN_DEG
    if beta_min_deg is not None:
        lo = max(lo, beta_min_deg)
    if beta_max_deg is not None:
        hi = min(hi, beta_max_deg)
    if lo > hi:
        raise ValueError(
            f"empty shear-angle scan domain: [{lo}, {hi}] for {law.value} wedge "
            f"with friction_angle_deg={phi}"
        )
    return lo, hi


def max_crescent_force(
    depth_m: float,
    width_m: float,
    soil: SoilProperties,
    law: ForceLaw = ForceLaw.ACTIVE_WEDGE,
    beta_min_deg: float | None = None,
    beta_max_deg: float | None = None,
    step_deg: float = DEFAULT_BETA_STEP_DEG,
) -> CrescentResult:
    """Scan the shear-plane angle and return the maximizing crescent force.

    The scan is a closed deterministic grid (default 0.1 degree steps)
    over the law's admissible beta range, ties resolved toward the
    smaller angle.
    """
    if step_deg <= 0:
        raise ValueError(f"step_deg ({step_deg}) must be positive")
    _check_depth_width(depth_m, width_m)
    lo, hi = _scan_bounds(soil, law, beta_min_deg, beta_max_deg)
    n = int(math.floor((hi - lo) / step_deg + 1e-9))
    betas = lo + step_deg * np.arange(n + 1)
    forces = _crescent_forces(depth_m, width_m, soil, law, betas)

    best = int(np.argmax(forces))  # first occurrence wins ties: smaller beta
    if not math.isfinite(forces[best]):  # argmax finds any inf or nan
        raise ValueError(f"crescent force overflows at depth_m={depth_m}, width_m={width_m}")
    curve = tuple(zip(betas.tolist(), forces.tolist()))
    return CrescentResult(
        beta_star_deg=float(betas[best]),
        force_n=float(forces[best]),
        curve=curve,
    )


# The stub tops out just below a vertical spike.
_MAX_RAKE_DEG = 90.0 - 1e-9


def _critical_depth(width_m, rake_deg, model: CriticalDepthModel):
    """z_c = k0 * w * (1 + k1 * (rake - 45)/45) before the clamps; scalar or array."""
    return model.k0 * width_m * (1.0 + model.k1 * (rake_deg - 45.0) / 45.0)


def critical_depth(
    width_m: float,
    rake_deg: float,
    model: CriticalDepthModel = CriticalDepthModel(),
) -> float:
    """Critical depth separating crescent from lateral failure.

    z_c = k0 * w * (1 + k1 * (rake - 45)/45), clamped at zero.  Increasing
    in rake; proportional to width, so the depth/width ratio at the
    transition is width-independent.  A deep pose can rotate the spike
    past vertical, so rakes in (0, 180) are accepted; the stub tops out
    just below 90 degrees and any rake beyond that is evaluated there.
    """
    if width_m <= 0:
        raise ValueError(f"width_m ({width_m}) must be positive")
    if not 0 < rake_deg < 180:
        raise ValueError(f"rake_deg ({rake_deg}) must lie in (0, 180)")
    return max(_critical_depth(width_m, min(rake_deg, _MAX_RAKE_DEG), model), 0.0)


def critical_depths(width_m, rake_deg, model: CriticalDepthModel = CriticalDepthModel()):
    """:func:`critical_depth` over broadcast arrays of widths and rakes.

    Bit for bit the scalar values, without the validation: every width
    must be positive and every rake must lie in (0, 180).  The scalar
    function keeps Python's ``min``/``max``, because a numpy call on a
    float costs microseconds and it sits in the forward model's onset scan.
    """
    capped = np.minimum(rake_deg, _MAX_RAKE_DEG)
    return np.maximum(_critical_depth(width_m, capped, model), 0.0)


def failure_mode(
    depth_m: float,
    width_m: float,
    rake_deg: float,
    model: CriticalDepthModel = CriticalDepthModel(),
) -> FailureMode:
    """Classify the failure regime at a depth (boundary counts as crescent)."""
    if depth_m < 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    zc = critical_depth(width_m, rake_deg, model)
    return FailureMode.CRESCENT if depth_m <= zc else FailureMode.LATERAL
