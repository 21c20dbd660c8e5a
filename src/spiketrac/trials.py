"""Field trial log ingestion and reduction.

A trial records, each time iron weights are added to the draft basket,
the basket mass, the cumulative horizontal vehicle motion at the hinge,
and the lever-arm inclination.  From those three raw columns this module
derives the physical series (draft force, penetration depth, thrust
angle, lift, tip trajectory, cumulative penetration work), detects and
filters subsurface landslides, and evaluates tractive efficiency and
vehicle stability.

Trial-log CSV schema (UTF-8, comma separated, dot decimal):

    # site=<dry|moist> diameter_mm=<int> radius_m=<float> hinge_m=<float> rake0_deg=<float> vehicle_kg=<float> pulley_mu=<float>
    step,basket_kg,motion_mm,incl_deg
    0,10,0,4.2
    ...

Steps are strictly increasing, basket mass and motion non-decreasing
(weights are only ever added), inclination within [0, 90] degrees.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .geometry import (
    SpikeDesign,
    depth_from_inclination,
    lifting_force,
    thrust_angle,
    tip_displacement,
)

DEFAULT_DEPTH_JUMP_M = 0.01
DEFAULT_MOTION_JUMP_M = 0.01

_HEADER_COLUMNS = "step,basket_kg,motion_mm,incl_deg"


class TrialLogError(ValueError):
    """Malformed trial log; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PulleyRig:
    """Basket-to-draft conversion constants of the pulley rig."""

    friction_coefficient: float = 0.23
    gravity_m_s2: float = 9.81

    def __post_init__(self) -> None:
        if not 0 <= self.friction_coefficient < 1:
            raise ValueError(
                f"friction_coefficient ({self.friction_coefficient}) must lie in [0, 1)"
            )
        if self.gravity_m_s2 <= 0:
            raise ValueError(f"gravity_m_s2 ({self.gravity_m_s2}) must be positive")


@dataclass(frozen=True)
class VehicleConfig:
    """Mass carried by the caster wheels, including ballast."""

    total_mass_kg: float
    gravity_m_s2: float = 9.81

    def __post_init__(self) -> None:
        if self.total_mass_kg <= 0:
            raise ValueError(f"total_mass_kg ({self.total_mass_kg}) must be positive")

    @property
    def weight_n(self) -> float:
        return self.total_mass_kg * self.gravity_m_s2


@dataclass(frozen=True)
class TrialStep:
    """One raw load-step record."""

    index: int
    basket_kg: float
    motion_mm: float
    incl_deg: float


@dataclass(frozen=True)
class TrialMetadata:
    """Trial-level header: site, spike geometry, vehicle, rig."""

    site: str
    diameter_mm: float
    radius_m: float
    hinge_m: float
    rake0_deg: float
    vehicle_kg: float
    pulley_mu: float

    def spike_design(self, design_depth_m: float | None = None) -> SpikeDesign:
        """Build the spike design this log was recorded with.

        The log header carries no design depth; default to the full
        geometric range so every recorded inclination stays in domain.
        """
        if design_depth_m is None:
            design_depth_m = self.radius_m - self.hinge_m
        return SpikeDesign(
            radius_m=self.radius_m,
            hinge_height_m=self.hinge_m,
            initial_rake_deg=self.rake0_deg,
            diameter_mm=self.diameter_mm,
            design_depth_m=design_depth_m,
        )

    def pulley_rig(self) -> PulleyRig:
        return PulleyRig(friction_coefficient=self.pulley_mu)

    def vehicle(self) -> VehicleConfig:
        return VehicleConfig(total_mass_kg=self.vehicle_kg)


# Header keys in file order; every one but ``site`` is a number.
_METADATA_KEYS = tuple(f.name for f in fields(TrialMetadata))


@dataclass(frozen=True)
class TrialLog:
    metadata: TrialMetadata
    steps: tuple[TrialStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class DerivedSeries:
    """Per-step physical quantities derived from a trial log.

    All columns share the log's step order and are numpy arrays, float64
    and bool for airborne; sequences given to the constructor are
    converted.  tip_x_m accumulates the horizontal tip motion from the
    first recorded pose; cumulative_work_j is the running draft-force work
    integral along the tip path.  airborne flags steps whose inclination
    put the tip above the surface (depth clamped to zero).  events holds
    detected landslide indices.  Series are equal when every column is.
    """

    draft_n: np.ndarray = field(default_factory=list)
    depth_m: np.ndarray = field(default_factory=list)
    thrust_deg: np.ndarray = field(default_factory=list)
    lift_n: np.ndarray = field(default_factory=list)
    tip_x_m: np.ndarray = field(default_factory=list)
    cumulative_work_j: np.ndarray = field(default_factory=list)
    motion_m: np.ndarray = field(default_factory=list)
    airborne: np.ndarray = field(default_factory=list)
    events: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "events":
                dtype = bool if f.name == "airborne" else float
                setattr(self, f.name, np.asarray(getattr(self, f.name), dtype))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivedSeries):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __len__(self) -> int:
        return len(self.draft_n)


@dataclass(frozen=True)
class StabilityRecord:
    """Calculated lift vs vehicle weight at one step."""

    lift_n: float
    weight_n: float
    margin_n: float
    liftoff: bool


@dataclass(frozen=True)
class EffectiveApplication:
    """Draft application point estimate.

    kappa is the fraction of the tip depth at which the draft force must
    act for the calculated lift to respect every observed-stable step.
    inconsistent is set when even surface application (kappa = 0) over-
    predicts lift somewhere.
    """

    kappa: float
    inconsistent: bool


def draft_from_basket(basket_mass_kg, rig: PulleyRig = PulleyRig()):
    """Draft force from basket mass: F_D = m g (1 - mu_pulleys); scalar or array."""
    if np.any(basket_mass_kg < 0):
        raise ValueError(f"basket_mass_kg ({np.min(basket_mass_kg)}) must be >= 0")
    return basket_mass_kg * rig.gravity_m_s2 * (1.0 - rig.friction_coefficient)


def _parse_metadata(line: str) -> TrialMetadata:
    body = line.lstrip("#").strip()
    pairs: dict[str, str] = {}
    for token in body.split():
        if "=" not in token:
            raise TrialLogError(f"metadata token {token!r} is not key=value", line=1)
        key, value = token.split("=", 1)
        pairs[key] = value
    missing = [key for key in _METADATA_KEYS if key not in pairs]
    if missing:
        raise TrialLogError(f"metadata missing keys: {', '.join(missing)}", line=1)
    site = pairs["site"]
    if site not in ("dry", "moist"):
        raise TrialLogError(f"site ({site!r}) must be 'dry' or 'moist'", line=1)
    try:
        numbers = {key: float(pairs[key]) for key in _METADATA_KEYS if key != "site"}
        return TrialMetadata(site=site, **numbers)
    except ValueError as exc:
        raise TrialLogError(f"bad metadata value: {exc}", line=1) from exc


def parse_trial_log(source: str | Path | IO[str]) -> TrialLog:
    """Parse and validate a trial-log CSV.

    Raises TrialLogError naming the offending line and rule.  A file with
    only the two header lines yields an empty (zero-step) log.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = source.read().splitlines()

    if not lines or not lines[0].startswith("#"):
        raise TrialLogError("first line must be the '# key=value ...' metadata header", line=1)
    metadata = _parse_metadata(lines[0])

    if len(lines) < 2 or lines[1].strip() != _HEADER_COLUMNS:
        raise TrialLogError(f"second line must be '{_HEADER_COLUMNS}'", line=2)

    steps: list[TrialStep] = []
    for offset, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        fields = [part.strip() for part in raw.split(",")]
        if len(fields) != 4:
            raise TrialLogError(f"expected 4 comma-separated fields, got {len(fields)}", line=offset)
        try:
            step = TrialStep(
                index=int(fields[0]),
                basket_kg=float(fields[1]),
                motion_mm=float(fields[2]),
                incl_deg=float(fields[3]),
            )
        except ValueError as exc:
            raise TrialLogError(f"bad value: {exc}", line=offset) from exc

        if not math.isfinite(step.basket_kg) or not math.isfinite(step.motion_mm) or not math.isfinite(step.incl_deg):
            raise TrialLogError("values must be finite", line=offset)
        if step.basket_kg < 0:
            raise TrialLogError(f"basket_kg ({step.basket_kg}) must be >= 0", line=offset)
        if not 0 <= step.incl_deg <= 90:
            raise TrialLogError(
                f"incl_deg ({step.incl_deg}) must lie in [0, 90]", line=offset
            )
        if steps:
            prev = steps[-1]
            if step.index <= prev.index:
                raise TrialLogError(
                    f"step index {step.index} must increase (previous {prev.index})",
                    line=offset,
                )
            if step.basket_kg < prev.basket_kg:
                raise TrialLogError(
                    f"basket_kg ({step.basket_kg}) decreased (previous {prev.basket_kg}); "
                    "weights are only added",
                    line=offset,
                )
            if step.motion_mm < prev.motion_mm:
                raise TrialLogError(
                    f"motion_mm ({step.motion_mm}) decreased (previous {prev.motion_mm}); "
                    "motion is cumulative",
                    line=offset,
                )
        steps.append(step)

    return TrialLog(metadata=metadata, steps=tuple(steps))


def write_trial_log(log: TrialLog, target: str | Path | IO[str]) -> None:
    """Write a trial log in the CSV schema; round-trips exactly through parse."""
    pairs = (
        f"{key}={value if key == 'site' else repr(value)}"
        for key, value in asdict(log.metadata).items()
    )
    lines = ["# " + " ".join(pairs), _HEADER_COLUMNS]
    for step in log.steps:
        lines.append(f"{step.index},{step.basket_kg!r},{step.motion_mm!r},{step.incl_deg!r}")
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)


def derive_series(
    log: TrialLog,
    design: SpikeDesign | None = None,
    rig: PulleyRig | None = None,
) -> DerivedSeries:
    """Derive the physical series from a validated trial log.

    Depth comes from the arm inclination (clamped to zero and flagged
    when the tip is airborne), thrust is the recorded inclination, lift
    is draft * tan(thrust), the tip trajectory accumulates hinge advance
    and arm rotation from the first step, and cumulative work integrates
    draft force along the horizontal tip path.
    """
    if design is None:
        design = log.metadata.spike_design()
    if rig is None:
        rig = log.metadata.pulley_rig()
    basket_kg, motion_mm, incl_deg = np.array(
        [(step.basket_kg, step.motion_mm, step.incl_deg) for step in log.steps], dtype=float
    ).reshape(-1, 3).T
    draft = draft_from_basket(basket_kg, rig)
    pose = depth_from_inclination(design, incl_deg)
    # Airborne poses track along the surface-contact pose.
    swing = np.maximum(incl_deg, thrust_angle(design, 0.0))
    tip_dx = np.zeros(len(log))
    tip_dx[1:] = tip_displacement(design, swing[:-1], swing[1:], np.diff(motion_mm) / 1000.0).dx_m
    # Per element through math.tan: np.tan differs from it in the last bit
    # on some angles.  The arm stands vertical at 90 degrees: tan diverges.
    lift = [
        lifting_force(force, angle) if angle < 90.0 else math.inf
        for force, angle in zip(draft.tolist(), incl_deg.tolist())
    ]
    series = DerivedSeries(
        draft_n=draft,
        depth_m=pose.depth_m,
        thrust_deg=incl_deg,
        lift_n=lift,
        tip_x_m=np.cumsum(tip_dx),
        motion_m=motion_mm / 1000.0,
        airborne=pose.tip_airborne,
    )
    series.cumulative_work_j = penetration_work(series)
    return series


def detect_landslides(
    series: DerivedSeries,
    depth_jump_threshold_m: float = DEFAULT_DEPTH_JUMP_M,
    motion_jump_threshold_m: float = DEFAULT_MOTION_JUMP_M,
) -> list[int]:
    """Indices of steps directly after a subsurface landslide.

    A step is an event when its depth or vehicle-motion increment from
    the previous step reaches the respective threshold (stress stored
    over several load steps releasing at once).
    """
    if depth_jump_threshold_m <= 0 or motion_jump_threshold_m <= 0:
        raise ValueError("landslide thresholds must be positive")
    jumps = (np.diff(series.depth_m) >= depth_jump_threshold_m) | (
        np.diff(series.motion_m) >= motion_jump_threshold_m
    )
    return (np.flatnonzero(jumps) + 1).tolist()


def landslide_filter(series: DerivedSeries, events: Sequence[int]) -> DerivedSeries:
    """Replace between-landslide measurements by interpolation.

    Only measurements taken directly after a landslide reflect force
    equilibrium; all other steps' depth, thrust, and lift are replaced by
    linear interpolation in the draft-force coordinate between the
    nearest retained steps, or by step index where the draft does not
    grow between them.  The first and last steps are always retained;
    the other columns are never altered and are shared with the input
    series.  Idempotent.
    """
    n = len(series)
    event_set = sorted(set(events))
    for idx in event_set:
        if not 0 <= idx < n:
            raise ValueError(f"event index {idx} outside the series (length {n})")
    retained = np.array(sorted(set(event_set) | {0, n - 1}))
    between = np.setdiff1d(np.arange(n), retained, assume_unique=True)
    slot = np.searchsorted(retained, between)
    left, right = retained[slot - 1], retained[slot]
    draft = series.draft_n
    draft_span = draft[right] - draft[left]
    t = (between - left) / (right - left)
    np.divide(draft[between] - draft[left], draft_span, out=t, where=draft_span > 0)
    filtered = {}
    for name in ("depth_m", "thrust_deg", "lift_n"):
        column = getattr(series, name)
        filtered[name] = column.copy()
        filtered[name][between] = column[left] + t * (column[right] - column[left])
    return replace(series, events=event_set, **filtered)


def penetration_work(series: DerivedSeries) -> np.ndarray:
    """Cumulative work of the draft force along the horizontal tip path.

    Trapezoidal integral of draft over tip_x, evaluated on the original
    (unfiltered) series: W_k = sum_{i<=k} (F_i + F_{i-1})/2 * (x_i - x_{i-1}).
    """
    draft = series.draft_n
    # Summed over a leading 0.0 like a running total: a -0.0 first term gives 0.0.
    terms = np.zeros(len(series))
    terms[1:] = 0.5 * (draft[1:] + draft[:-1]) * np.diff(series.tip_x_m)
    return np.cumsum(terms)


def tractive_efficiency(
    penetration_work_j: float,
    draft_n: float,
    push_distance_m: float,
) -> float:
    """Useful push work over push work plus spike penetration work."""
    if penetration_work_j < 0 or draft_n < 0 or push_distance_m < 0:
        raise ValueError("penetration work, draft, and push distance must be >= 0")
    push_work = draft_n * push_distance_m
    if push_work + penetration_work_j <= 0:
        raise ValueError("draft * distance + penetration work must be positive")
    return push_work / (push_work + penetration_work_j)


def stability_check(series: DerivedSeries, vehicle: VehicleConfig) -> list[StabilityRecord]:
    """Compare the calculated hinge lift against the vehicle weight per step."""
    weight = vehicle.weight_n
    return [
        StabilityRecord(lift_n=lift, weight_n=weight, margin_n=weight - lift, liftoff=lift > weight)
        for lift in series.lift_n.tolist()
    ]


def estimate_effective_application(
    series: DerivedSeries,
    design: SpikeDesign,
    vehicle: VehicleConfig,
    observed_liftoff: Sequence[bool],
    tolerance: float = 1e-4,
) -> EffectiveApplication:
    """Largest draft application fraction consistent with observed stability.

    Tip-applied draft (kappa = 1) over-predicts lift when the soil reacts
    the draft higher up the spike.  With application at depth kappa * z
    the effective thrust angle is arcsin((h + kappa z) / r); this finds
    by bisection the largest kappa in [0, 1] such that
    draft * tan(gamma_eff(kappa)) stays within the vehicle weight at
    every observed-stable step.  Returns kappa = 1 when tip application
    already predicts stability everywhere it was observed; kappa = 0 with
    the inconsistent flag when no kappa >= 0 reconciles the observations.
    """
    if len(observed_liftoff) != len(series):
        raise ValueError(
            f"observed_liftoff length ({len(observed_liftoff)}) must match the "
            f"series length ({len(series)})"
        )
    weight = vehicle.weight_n
    stable = np.logical_not(observed_liftoff)
    points = list(zip(series.draft_n[stable].tolist(), series.depth_m[stable].tolist()))

    def lift_at(kappa: float, draft: float, depth: float) -> float:
        sin_gamma = (design.hinge_height_m + kappa * depth) / design.radius_m
        if sin_gamma >= 1.0:
            return math.inf
        gamma = math.asin(sin_gamma)
        return draft * math.tan(gamma)

    def feasible(kappa: float) -> bool:
        return all(lift_at(kappa, draft, depth) <= weight + 1e-9 for draft, depth in points)

    if not np.any(series.lift_n[stable] > weight):
        return EffectiveApplication(kappa=1.0, inconsistent=False)
    if not feasible(0.0):
        return EffectiveApplication(kappa=0.0, inconsistent=True)

    lo, hi = 0.0, 1.0  # feasible(lo) holds, feasible(hi) fails
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return EffectiveApplication(kappa=lo, inconsistent=False)
