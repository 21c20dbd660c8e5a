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
from functools import cached_property

import numpy as np

from .geometry import finite_rule

BETA_STEP_DEG = 0.1  # the shear-angle scan's grid step
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
        if not 0 < self.bulk_density_kg_m3 < math.inf:
            rule = finite_rule("positive", self.bulk_density_kg_m3)
            raise ValueError(f"bulk_density_kg_m3 ({self.bulk_density_kg_m3}) must be {rule}")
        if not 0 < self.friction_angle_deg < 90:
            raise ValueError(
                f"friction_angle_deg ({self.friction_angle_deg}) must lie in (0, 90)"
            )
        if not 0 < self.gravity_m_s2 < math.inf:
            rule = finite_rule("positive", self.gravity_m_s2)
            raise ValueError(f"gravity_m_s2 ({self.gravity_m_s2}) must be {rule}")
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
        if not 0 < self.k0 < math.inf:
            raise ValueError(f"k0 ({self.k0}) must be {finite_rule('positive', self.k0)}")
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 ({self.k1}) must be {finite_rule('>= 0', self.k1)}")


@dataclass(frozen=True)
class CrescentResult:
    """Crescent force maximized over the shear-plane angle; ``curve`` holds (beta_deg, force_n) rows."""

    beta_star_deg: float
    force_n: float
    curve: np.ndarray = field(repr=False, compare=False)


def _check_beta(beta_deg: float) -> None:
    if not 0 < beta_deg < 90:
        raise ValueError(f"beta_deg ({beta_deg}) must lie in (0, 90)")


def _volume_terms(depth_m, width_m: float) -> tuple[float, float]:
    """(a, c) of the crescent volume V = a cot(beta) + c cot(beta)^2; inf past the float range."""
    try:
        return 0.5 * width_m * depth_m**2, (math.pi / 6.0) * depth_m**3
    except OverflowError:  # a Python float power raises where numpy returns inf
        return math.inf, math.inf


def _finite(value: float, what: str, depth_m: float, width_m: float) -> float:
    if not math.isfinite(value):  # an infinite weight times a zero factor is nan
        raise ValueError(f"crescent {what} overflows at depth_m={depth_m}, width_m={width_m}")
    return value


_WINDOW = 8  # grid angles either side of a hint in CrescentKernel.peaks
_EDGE_GUARD = 1e-9  # how far below a window's peak its edges must lie, relative to it
_TINY = np.finfo(float).tiny


def _terms(depths_m: list[float], width_m: float) -> np.ndarray:
    """One (a, c) row per depth, from Python floats as :func:`_volume_terms` takes them."""
    return np.array([_volume_terms(z, width_m) for z in depths_m]).reshape(-1, 2)


class CrescentKernel:
    """The crescent force at fixed shear angles, split into its depth-independent part.

    cot(beta), cot(beta)^2, the wedge-friction factor and rho g are built
    once per (soil, law, angles); each depth then costs
    H = (rho g (a cot + c cot^2)) factor with (a, c) from the depth.  An
    overflow, or a beta so small its cotangent divides by zero, gives inf
    or nan; callers check the result, so numpy's warnings would add nothing.
    """

    @np.errstate(over="ignore", divide="ignore")
    def __init__(self, soil: SoilProperties, law: ForceLaw, betas) -> None:
        self.betas = betas
        self.cot = 1.0 / np.tan(np.radians(betas))
        self.cot2 = self.cot**2
        phi = soil.friction_angle_deg
        # With u = cot(beta) and t = tan(phi) the active force is
        # rho g u (a + c u) (1 - t u) / (u + t).  Its log has second derivative
        # -1/u^2 - c^2/(a + c u)^2 - t^2/(1 - t u)^2 + 1/(u + t)^2 < 0, since
        # u + t > u: the force is strictly unimodal in beta.
        self.unimodal = law is ForceLaw.ACTIVE_WEDGE
        if law is ForceLaw.ACTIVE_WEDGE:
            self.factor = np.where(betas > phi, np.tan(np.radians(betas - phi)), 0.0)
        else:
            self.factor = np.tan(np.radians(betas + phi))
        self.rho_g = soil.bulk_density_kg_m3 * soil.gravity_m_s2

    @classmethod
    def scan(
        cls,
        soil: SoilProperties,
        law: ForceLaw = ForceLaw.ACTIVE_WEDGE,
        beta_min_deg: float | None = None,
        beta_max_deg: float | None = None,
    ) -> CrescentKernel:
        """The kernel over :func:`max_crescent_force`'s closed beta grid."""
        lo, hi = _scan_bounds(soil, law, beta_min_deg, beta_max_deg)
        n = int(math.floor((hi - lo) / BETA_STEP_DEG + 1e-9))
        return cls(soil, law, lo + BETA_STEP_DEG * np.arange(n + 1))

    @np.errstate(over="ignore", invalid="ignore")
    def _force(self, a, c, at=...):
        """H = (rho g (a cot + c cot^2)) factor at the angle indices ``at``, broadcast with (a, c)."""
        return (self.rho_g * (a * self.cot[at] + c * self.cot2[at])) * self.factor[at]

    def forces(self, depth_m: float, width_m: float):
        """Horizontal crescent force at each of the kernel's shear angles."""
        return self._force(*_volume_terms(depth_m, width_m))

    def cubic(self, index: np.ndarray, width_m: float) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) with :meth:`forces` = A z^2 + B z^3 at the angles ``index``, up to rounding."""
        a, c = _volume_terms(1.0, width_m)
        return self._force(a, 0.0, index), self._force(0.0, c, index)

    def _rows(self, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each full row's maximum and the index of its first maximum."""
        rows = self._force(terms[:, :1], terms[:, 1:])
        best = rows.argmax(axis=1)  # finds any nan, as max would
        return rows[np.arange(len(rows)), best], best

    @np.errstate(over="ignore", invalid="ignore")
    def peaks(
        self, depths_m: list[float], width_m: float, hints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each depth's ``forces(z, width_m).max()``, bit for bit, and its first maximizing index.

        A unimodal kernel first takes the maximum over ``_WINDOW`` grid
        angles either side of each depth's hint index.  Each window edge
        must lie below that maximum by ``_EDGE_GUARD`` relatively, or sit
        at the end of the grid; then the peak lies strictly inside the
        window, every angle outside it gives less, and the window's first
        maximum is the row's.  That holds while every value of the row
        errs from the exact force only by its rounding, about 1e-13
        relatively: no value overflows, the peak is of normal magnitude,
        and no sum a cot + c cot^2 is subnormal, whose rounding rho g would
        magnify.  Bounds built from the extreme cot, cot^2 and factor check
        this.  The other depths get full rows.  Windows and rows both come
        from :meth:`_force`, the expression :meth:`forces` evaluates.
        """
        terms = _terms(depths_m, width_m)
        if not self.unimodal:
            return self._rows(terms)
        n = self.cot.size
        span = min(2 * _WINDOW + 1, n)
        start = np.clip(hints - _WINDOW, 0, n - span)
        out = self._force(terms[:, :1], terms[:, 1:], start[:, None] + np.arange(span))
        best = out.argmax(axis=1)
        peak = out[np.arange(len(out)), best]
        edge = peak * (1.0 - _EDGE_GUARD)
        (cot_lo, cot2_lo), (cot_hi, cot2_hi, factor_hi) = self._extremes
        a, c = terms.T
        accept = (
            ((start == 0) | (out[:, 0] < edge))
            & ((start == n - span) | (out[:, -1] < edge))
            & (peak >= _TINY)
            & np.isfinite((a * cot_hi + c * cot2_hi) * self.rho_g * factor_hi)
            & (a * cot_lo + c * cot2_lo >= _TINY)
        )
        index = start + best
        full = np.flatnonzero(~accept)
        if full.size:
            peak[full], index[full] = self._rows(terms[full])
        return peak, index

    @cached_property
    def _extremes(self) -> tuple[tuple[float, float], tuple[float, float, float]]:
        """The least cot and cot^2, and the greatest cot, cot^2 and factor."""
        return (self.cot.min(), self.cot2.min()), (self.cot.max(), self.cot2.max(), self.factor.max())


def _check_depth_width(depth_m: float, width_m: float) -> None:
    if not depth_m >= 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    if not width_m > 0:
        raise ValueError(f"width_m ({width_m}) must be positive")


def crescent_volume(depth_m: float, beta_deg: float, width_m: float) -> float:
    """Volume of the lifted crescent for a shear plane at beta.

    V = w z^2 cot(beta) / 2 + (pi/6) z^3 cot(beta)^2: central prism plus
    two quarter-cone side bodies.  Zero at the surface.
    """
    _check_beta(beta_deg)
    _check_depth_width(depth_m, width_m)
    cot = 1.0 / math.tan(math.radians(beta_deg))
    a, c = _volume_terms(depth_m, width_m)
    return _finite(a * cot + c * cot**2, "volume", depth_m, width_m)


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
    force = float(CrescentKernel(soil, law, beta_deg).forces(depth_m, width_m))
    return _finite(force, "force", depth_m, width_m)


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
) -> CrescentResult:
    """Scan the shear-plane angle and return the maximizing crescent force.

    The scan is a closed deterministic grid in ``BETA_STEP_DEG`` steps
    over the law's admissible beta range, ties resolved toward the
    smaller angle.  The maximum never decreases with depth.
    """
    _check_depth_width(depth_m, width_m)
    kernel = CrescentKernel.scan(soil, law, beta_min_deg, beta_max_deg)
    forces = kernel.forces(depth_m, width_m)

    # The first maximum wins ties (smaller beta); argmax finds any inf or nan.
    best = int(np.argmax(forces))
    return CrescentResult(
        beta_star_deg=float(kernel.betas[best]),
        force_n=_finite(float(forces[best]), "force", depth_m, width_m),
        curve=np.column_stack((kernel.betas, forces)),
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
    if not width_m > 0:
        raise ValueError(f"width_m ({width_m}) must be positive")
    if not 0 < rake_deg < 180:
        raise ValueError(f"rake_deg ({rake_deg}) must lie in (0, 180)")
    return max(_critical_depth(width_m, min(rake_deg, _MAX_RAKE_DEG), model), 0.0)


@np.errstate(over="ignore", invalid="ignore")
def critical_depths(width_m, rake_deg, model: CriticalDepthModel = CriticalDepthModel()):
    """:func:`critical_depth` over broadcast arrays of widths and rakes.

    Bit for bit the scalar values, an overflow's inf included, with no
    warning or validation: widths must be positive, rakes in (0, 180).
    The scalar function keeps Python's ``min``/``max``: a numpy call on
    a float costs microseconds, and it sits in the forward model's onset scan.
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
    if not depth_m >= 0:
        raise ValueError(f"depth_m ({depth_m}) must be >= 0")
    zc = critical_depth(width_m, rake_deg, model)
    return FailureMode.CRESCENT if depth_m <= zc else FailureMode.LATERAL
