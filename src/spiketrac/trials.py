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

The header holds each key once and no other, with finite numbers that
make a valid spike design, pulley rig and vehicle.  Steps
are strictly increasing int64 indices, basket mass and motion
non-decreasing (weights are only ever added), inclination within [0, 90]
degrees.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .geometry import (
    SpikeDesign,
    bisect,
    depth_from_inclination,
    effective_sine,
    finite_rule,
    lifting_forces,
    margins_hold,
    sine_angle,
    thrust_angle,
    tip_displacement,
)

GRAVITY_M_S2 = 9.81
DEFAULT_DEPTH_JUMP_M = 0.01
DEFAULT_MOTION_JUMP_M = 0.01
_KAPPA_TOLERANCE = 1e-4  # width of the kappa bisection's final bracket

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

    def __post_init__(self) -> None:
        if not 0 <= self.friction_coefficient < 1:
            raise ValueError(
                f"friction_coefficient ({self.friction_coefficient}) must lie in [0, 1)"
            )


@dataclass(frozen=True)
class VehicleConfig:
    """Mass carried by the caster wheels, including ballast."""

    total_mass_kg: float

    def __post_init__(self) -> None:
        if not self.total_mass_kg > 0:
            raise ValueError(f"total_mass_kg ({self.total_mass_kg}) must be positive")
        if not math.isfinite(self.weight_n):
            raise ValueError(f"vehicle weight overflows at total_mass_kg={self.total_mass_kg}")

    @property
    def weight_n(self) -> float:
        return self.total_mass_kg * GRAVITY_M_S2


@dataclass(frozen=True)
class TrialMetadata:
    """Trial-level header: site, spike geometry, vehicle, rig.

    The design, rig and vehicle it describes are each built on first use
    and kept.
    """

    site: str
    diameter_mm: float
    radius_m: float
    hinge_m: float
    rake0_deg: float
    vehicle_kg: float
    pulley_mu: float

    @cached_property
    def spike_design(self) -> SpikeDesign:
        """The spike design this log was recorded with.

        The log header carries no design depth; take the full geometric
        range so every recorded inclination stays in domain.
        """
        return SpikeDesign(
            radius_m=self.radius_m,
            hinge_height_m=self.hinge_m,
            initial_rake_deg=self.rake0_deg,
            diameter_mm=self.diameter_mm,
            design_depth_m=self.radius_m - self.hinge_m,
        )

    @cached_property
    def pulley_rig(self) -> PulleyRig:
        return PulleyRig(friction_coefficient=self.pulley_mu)

    @cached_property
    def vehicle(self) -> VehicleConfig:
        return VehicleConfig(total_mass_kg=self.vehicle_kg)


# Header keys in file order; every one but ``site`` is a number.
_METADATA_KEYS = tuple(f.name for f in fields(TrialMetadata))


def _columns_equal(self, other) -> bool:
    """``==`` of two dataclass records whose numpy columns compare element by element."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


@dataclass
class TrialLog:
    """A trial log's header and raw columns, int64 index and float64 others, compared by value."""

    metadata: TrialMetadata
    index: np.ndarray
    basket_kg: np.ndarray
    motion_mm: np.ndarray
    incl_deg: np.ndarray

    def __post_init__(self) -> None:
        self.index = np.asarray(self.index, np.int64)
        for name in ("basket_kg", "motion_mm", "incl_deg"):
            setattr(self, name, np.asarray(getattr(self, name), float))

    __eq__ = _columns_equal

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class DerivedSeries:
    """Per-step physical quantities derived from a trial log.

    All columns share the log's step order and are numpy arrays, float64
    and bool for airborne; sequences given to the constructor are
    converted.  tip_x_m accumulates the horizontal tip motion from the
    first recorded pose; cumulative_work_j is the running draft-force work
    integral along the tip path.  airborne flags steps whose inclination
    put the tip above the surface (depth clamped to zero).  Series are
    equal when every column is.
    """

    draft_n: np.ndarray = field(default_factory=list)
    depth_m: np.ndarray = field(default_factory=list)
    thrust_deg: np.ndarray = field(default_factory=list)
    lift_n: np.ndarray = field(default_factory=list)
    tip_x_m: np.ndarray = field(default_factory=list)
    cumulative_work_j: np.ndarray = field(default_factory=list)
    motion_m: np.ndarray = field(default_factory=list)
    airborne: np.ndarray = field(default_factory=list)

    def __post_init__(self) -> None:
        for f in fields(self):
            dtype = bool if f.name == "airborne" else float
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype))

    __eq__ = _columns_equal

    def __len__(self) -> int:
        return len(self.draft_n)


@dataclass(frozen=True)
class EffectiveApplication:
    """Draft application point estimate.

    kappa is the fraction of the tip depth at which the draft force must
    act for the calculated lift to stay within the weight at every step.
    inconsistent is set when even surface application (kappa = 0) over-
    predicts lift somewhere.
    """

    kappa: float
    inconsistent: bool


def draft_from_basket(basket_mass_kg, rig: PulleyRig = PulleyRig()):
    """Draft force from basket mass: F_D = m g (1 - mu_pulleys); scalar or array."""
    if not np.all(basket_mass_kg >= 0):
        raise ValueError(f"basket_mass_kg ({np.min(basket_mass_kg)}) must be >= 0")
    return basket_mass_kg * GRAVITY_M_S2 * (1.0 - rig.friction_coefficient)


def _parse_metadata(line: str) -> TrialMetadata:
    body = line.lstrip("#").strip()
    pairs: dict[str, str] = {}
    for token in body.split():
        if "=" not in token:
            raise TrialLogError(f"metadata token {token!r} is not key=value", line=1)
        key, value = token.split("=", 1)
        if key in pairs:
            raise TrialLogError(f"metadata key {key!r} is repeated", line=1)
        pairs[key] = value
    unknown = [key for key in pairs if key not in _METADATA_KEYS]
    if unknown:
        raise TrialLogError(f"unknown metadata keys: {', '.join(unknown)}", line=1)
    missing = [key for key in _METADATA_KEYS if key not in pairs]
    if missing:
        raise TrialLogError(f"metadata missing keys: {', '.join(missing)}", line=1)
    site = pairs["site"]
    if site not in ("dry", "moist"):
        raise TrialLogError(f"site ({site!r}) must be 'dry' or 'moist'", line=1)
    try:
        numbers = {key: float(pairs[key]) for key in _METADATA_KEYS if key != "site"}
    except ValueError as exc:
        raise TrialLogError(f"bad metadata value: {exc}", line=1) from exc
    for key, value in numbers.items():
        if not math.isfinite(value):
            raise TrialLogError(
                f"bad metadata value: {key}={pairs[key]} is not a finite number", line=1
            )
    metadata = TrialMetadata(site=site, **numbers)
    try:
        # Built here, once: a value outside their ranges is a header error.
        for built in ("spike_design", "pulley_rig", "vehicle"):
            getattr(metadata, built)
    except ValueError as exc:
        raise TrialLogError(f"bad metadata value: {exc}", line=1) from exc
    return metadata


# The one row type that both converters give the step text.
_STEP_ROW = np.dtype([("index", np.int64), ("basket_kg", np.float64),
                      ("motion_mm", np.float64), ("incl_deg", np.float64)])
# The bytes of plain step text: no whitespace, underscore, letter of nan or
# inf, or line separator but the newline.
_PLAIN_BYTES = b"0123456789+-.eE,\n"


def _first(mask: np.ndarray) -> int:
    """Position of the first true element of ``mask``, or its length."""
    return int(np.append(mask, True).argmax())


def _step_columns(lines: list[str]) -> tuple[dict[str, np.ndarray], tuple[int, str] | None]:
    """The non-blank step lines as columns up to the first row that fails,
    and ``(row, message)`` of that row or None.  A row fails on a field
    count other than 4, then on the first of its stripped fields that
    ``int`` or ``float`` refuses, then on a step index outside int64."""
    rows, message = [], None
    for raw in filter(str.strip, lines):
        fields = raw.split(",")
        if len(fields) != 4:
            message = f"expected 4 comma-separated fields, got {len(fields)}"
            break
        try:
            row = (int(fields[0].strip()), *(float(text.strip()) for text in fields[1:]))
        except ValueError as exc:
            message = f"bad value: {exc}"
            break
        if not -(2**63) <= row[0] < 2**63:
            message = f"bad value: step index {row[0]} is outside int64"
            break
        rows.append(row)
    table = np.array(rows, _STEP_ROW)
    columns = {name: np.ascontiguousarray(table[name]) for name in _STEP_ROW.names}
    return columns, None if message is None else (len(rows), message)


def _first_breach(columns: dict[str, np.ndarray]) -> tuple[int, str] | None:
    """The first row that breaks a step rule, and the message of the first rule it breaks."""
    index, kg, mm, deg = columns.values()
    # A rule on a row and the row before has no entry for the first row.
    rules = (
        (~(np.isfinite(kg) & np.isfinite(mm) & np.isfinite(deg)), "values must be finite"),
        (kg < 0, "basket_kg ({basket_kg}) must be >= 0"),
        (~((deg >= 0) & (deg <= 90)), "incl_deg ({incl_deg}) must lie in [0, 90]"),
        (index[1:] <= index[:-1], "step index {index} must increase (previous {previous[index]})"),
        (kg[1:] < kg[:-1], "basket_kg ({basket_kg}) decreased (previous "
         "{previous[basket_kg]}); weights are only added"),
        (mm[1:] < mm[:-1], "motion_mm ({motion_mm}) decreased (previous "
         "{previous[motion_mm]}); motion is cumulative"),
    )
    firsts = [len(index) - len(broken) + _first(broken) for broken, _ in rules]
    row = min(firsts)
    if row == len(index):
        return None
    values, previous = (
        {name: column[at].item() for name, column in columns.items()} for at in (row, row - 1)
    )
    return row, rules[firsts.index(row)][1].format(**values, previous=previous)


def _plain_steps(body: str) -> dict[str, np.ndarray] | None:
    """The columns of step text read by numpy's C text reader, or None
    when the text is not plain or the reader raises or warns.

    Plain text holds only ``_PLAIN_BYTES`` and no blank line.  The reader
    converts each float field with the routine ``float`` uses on such a
    field and each int64 field exactly; a field ``int`` or ``float``
    refuses, an index outside int64 or a wrong field count makes it raise.
    """
    if not body.isascii():  # before encoding: a stream may hold a lone surrogate
        return None
    data = body.encode()
    if data.translate(None, _PLAIN_BYTES):
        return None
    try:
        # Warnings as errors: no data, or an older numpy's deprecated int parse.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # From bytes: a StringIO of the text would hold four bytes a character.
            rows = np.loadtxt(io.BytesIO(data), _STEP_ROW, delimiter=",", ndmin=1,
                              encoding="ascii")
    except (ValueError, Warning):
        return None
    # The reader skips blank lines, so the text has none when each line is a row.
    newlines = np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if len(rows) != newlines + (not body.endswith("\n")):
        return None
    return {name: np.ascontiguousarray(rows[name]) for name in _STEP_ROW.names}


def parse_trial_log(source: str | Path | IO[str]) -> TrialLog:
    """Parse and validate a trial-log CSV into columns.

    Plain step text (``_plain_steps``) is converted by numpy's text
    reader in one call.  Any other text, and plain text the reader
    refuses, is converted by a per-line loop (``_step_columns``) that
    skips blank lines; that loop writes every conversion message.
    Each rule is then checked once over the converted rows.  Raises
    TrialLogError naming the first offending line and the first rule it
    breaks there.  A file with only the two header lines yields an empty
    (zero-step) log.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    # The two header lines split off at newlines are the first two of
    # splitlines() unless either holds another line boundary.
    *lines, body = text.split("\n", 2)
    plain = len(lines) == 2 and all(line.splitlines() == [line] for line in lines)
    if not plain:
        lines = text.splitlines()

    if not lines or not lines[0].startswith("#"):
        raise TrialLogError("first line must be the '# key=value ...' metadata header", line=1)
    metadata = _parse_metadata(lines[0])

    if len(lines) < 2 or lines[1].strip() != _HEADER_COLUMNS:
        raise TrialLogError(f"second line must be '{_HEADER_COLUMNS}'", line=2)

    columns = _plain_steps(body) if plain else None
    failure = None
    if columns is None:
        columns, failure = _step_columns(body.splitlines() if plain else lines[2:])
    failure = _first_breach(columns) or failure
    if failure is not None:
        row, message = failure
        steps = (number for number, raw in enumerate(text.splitlines()[2:], start=3) if raw.strip())
        raise TrialLogError(message, line=next(islice(steps, row, None)))
    return TrialLog(metadata, **columns)


def write_trial_log(log: TrialLog, target: str | Path | IO[str]) -> None:
    """Write a trial log in the CSV schema; round-trips exactly through parse."""
    pairs = (
        f"{key}={value if key == 'site' else repr(value)}"
        for key, value in asdict(log.metadata).items()
    )
    lines = ["# " + " ".join(pairs), _HEADER_COLUMNS]
    columns = (log.index, log.basket_kg, log.motion_mm, log.incl_deg)
    rows = zip(*(column.tolist() for column in columns))
    lines.extend(f"{step},{kg!r},{mm!r},{deg!r}" for step, kg, mm, deg in rows)
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)


# Overflow is checked on the result; numpy's warnings would add nothing.
@np.errstate(over="ignore", invalid="ignore")
def derive_series(log: TrialLog) -> DerivedSeries:
    """Derive the physical series from a validated trial log.

    Depth comes from the arm inclination (clamped to zero and flagged
    when the tip is airborne), thrust is the recorded inclination, lift
    is draft * tan(thrust), the tip trajectory accumulates hinge advance
    and arm rotation from the first step, and cumulative work integrates
    draft force along the horizontal tip path.  A vertical arm (90
    degrees) raises ValueError naming its step: its lift is unbounded.
    """
    design = log.metadata.spike_design
    rig = log.metadata.pulley_rig
    basket_kg, motion_mm, incl_deg = log.basket_kg, log.motion_mm, log.incl_deg
    vertical = np.flatnonzero(incl_deg >= 90.0)
    if vertical.size:
        step = log.index[vertical[0]]
        raise ValueError(f"the arm stands vertical at step {step}: the lift is unbounded")
    draft = draft_from_basket(basket_kg, rig)
    depth, airborne = depth_from_inclination(design, incl_deg)
    # Airborne poses track along the surface-contact pose.
    swing = np.maximum(incl_deg, thrust_angle(design, 0.0))
    tip_dx = np.zeros(len(log))
    advance_m = np.diff(motion_mm) / 1000.0
    tip_dx[1:] = tip_displacement(design, swing[:-1], swing[1:], advance_m)[0]
    negative = np.flatnonzero(incl_deg < 0.0)
    if negative.size:
        raise ValueError(f"thrust_deg ({float(incl_deg[negative[0]])}) must lie in [0, 90)")
    series = DerivedSeries(
        draft_n=draft,
        depth_m=depth,
        thrust_deg=incl_deg,
        lift_n=lifting_forces(draft, incl_deg),
        tip_x_m=np.cumsum(tip_dx),
        motion_m=motion_mm / 1000.0,
        airborne=airborne,
    )
    series.cumulative_work_j = penetration_work(series)
    overflow = ~(
        np.isfinite(draft) & np.isfinite(series.lift_n) & np.isfinite(series.tip_x_m)
        & np.isfinite(series.cumulative_work_j)
    )
    if overflow.any():
        step = log.index[np.flatnonzero(overflow)[0]]
        raise ValueError(f"derived series overflows at step {step}")
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
    if not (0 < depth_jump_threshold_m < math.inf and 0 < motion_jump_threshold_m < math.inf):
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
    keep = np.ones(n, bool)
    if n:  # an empty series has nothing between and retains [-1, 0]
        keep[retained] = False
    between = np.flatnonzero(keep)
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
    return replace(series, **filtered)


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
    """Push work over push plus penetration work; OverflowError when that sum overflows."""
    values = (penetration_work_j, draft_n, push_distance_m)
    if not all(0 <= value < math.inf for value in values):
        raise ValueError(
            f"penetration_work_j ({penetration_work_j}), draft_n ({draft_n}) and "
            f"push_distance_m ({push_distance_m}) must be {finite_rule('>= 0', *values)}"
        )
    push_work = draft_n * push_distance_m
    total = push_work + penetration_work_j
    if not math.isfinite(total):
        raise OverflowError(
            f"draft * distance + penetration work overflows at draft_n={draft_n}, "
            f"push_distance_m={push_distance_m}"
        )
    if total <= 0:
        raise ValueError("draft * distance + penetration work must be positive")
    return push_work / total


def stability_check(series: DerivedSeries, vehicle: VehicleConfig) -> np.ndarray:
    """Whether the calculated hinge lift exceeds the vehicle weight, per step."""
    return series.lift_n > vehicle.weight_n


def _applied_lift(design: SpikeDesign, kappa: float, draft: float, depth: float) -> float:
    """Hinge lift with the draft applied at kappa of the tip depth; never decreases in kappa."""
    sin_gamma = effective_sine(design, depth, kappa)
    if sin_gamma >= 1.0:
        return math.inf
    return draft * math.tan(sine_angle(sin_gamma))


# np.arcsin and np.tan may differ from math.asin and math.tan by a few ulps,
# which tan magnifies by 1/(sin cos): at most about 1e3 below this sine.
_STEEP_SIN = 1.0 - 1e-6
# Lifts this close to the limit, relative to it, are decided by _applied_lift.
_LIFT_GUARD = 1e-9


def _lifts_hold(
    design: SpikeDesign, kappa: float, drafts: np.ndarray, depths: np.ndarray, limit: float
) -> np.ndarray:
    """Whether each ``_applied_lift`` at ``kappa`` is within ``limit``, decided on arrays.

    The sine is the same bits as the scalar's; the lift may differ in
    its last bits.  ``_applied_lift`` decides the lanes that difference
    could flip: a lift near the limit, or a sine at or above
    ``_STEEP_SIN``, where tan magnifies it past any guard.
    """
    sin_gamma = effective_sine(design, depths, kappa)
    with np.errstate(invalid="ignore"):
        lift = drafts * np.tan(np.arcsin(sin_gamma))
    margins = limit - lift
    margins[sin_gamma >= _STEEP_SIN] = np.nan  # no guard covers tan's error here

    def exact(draft: float, depth: float) -> bool:
        return _applied_lift(design, kappa, draft, depth) <= limit

    return margins_hold(margins, _LIFT_GUARD * limit, exact, drafts, depths)


def estimate_effective_application(
    series: DerivedSeries,
    design: SpikeDesign,
    vehicle: VehicleConfig,
) -> EffectiveApplication:
    """Largest draft application fraction consistent with the vehicle never lifting off.

    A trial log has no liftoff column: a recorded trial implies the
    vehicle stayed on its wheels at every step.  Tip-applied draft
    (kappa = 1) over-predicts lift when the soil reacts the draft higher
    up the spike.  With application at depth kappa * z the effective
    thrust angle is arcsin((h + kappa z) / r); this finds by bisection
    the largest kappa in [0, 1] such that draft * tan(gamma_eff(kappa))
    stays within the vehicle weight at every step.  Returns kappa = 1
    when tip application already predicts stability everywhere; kappa = 0
    with the inconsistent flag when no kappa >= 0 reconciles the steps.
    A depth outside [0, radius - hinge height], or nan, raises ValueError.
    """
    depths = series.depth_m
    outside = np.flatnonzero(~((depths >= 0.0) & (depths <= design.max_depth_m)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"depth_m[{i}] ({depths[i]}) must lie in [0, {design.max_depth_m}]")
    weight = vehicle.weight_n
    if not np.any(series.lift_n > weight):
        return EffectiveApplication(kappa=1.0, inconsistent=False)

    limit = weight + 1e-9
    # Lift never decreases with kappa, so a point that holds at kappa = 1
    # holds at every kappa the bisection tries; only the others can fail.
    failing = ~_lifts_hold(design, 1.0, series.draft_n, depths, limit)
    drafts, depths = series.draft_n[failing], depths[failing]

    def feasible(kappa: float) -> bool:
        return _lifts_hold(design, kappa, drafts, depths, limit).all()

    if not feasible(0.0):
        return EffectiveApplication(kappa=0.0, inconsistent=True)

    # feasible(0) holds and feasible(1) fails: the largest feasible kappa found.
    kappa = bisect(lambda k: not feasible(k), 0.0, 1.0, _KAPPA_TOLERANCE)[0]
    return EffectiveApplication(kappa=kappa, inconsistent=False)
