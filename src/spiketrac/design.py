"""Spike design evaluation and exhaustive grid search.

A design is feasible when its thrust angle at design depth stays below
the stability limit (a vehicle can pull 1/tan(gamma) times its weight),
its alpha - gamma self-penetration margin sits inside the effective
window, and, optionally, its design depth reaches past the critical
depth so the strong lateral failure regime carries the draft.  The
objective ranks feasible designs by the pull/weight ratio at design
depth under conservative tip application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .geometry import (
    SpikeDesign, arm_rules, effective_sine, finite_rule, rotated_rake, sine_angle, sine_degrees,
    spike_rules,
)
from .soilmech import CriticalDepthModel, critical_depth, critical_depths

# The search holds arrays over the whole grid.  On a 10-million-point grid with
# 7.3 million feasible points, `design --top 5` peaked at 60 MiB RSS and
# `design --out` (every row written) at 661 MiB (getrusage, 2-vCPU Xeon).
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class DesignConstraints:
    """Feasibility limits applied to a candidate design."""

    max_thrust_deg: float = 25.0
    window_low_deg: float = 15.0
    window_high_deg: float = 35.0
    require_lateral_at_design_depth: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.max_thrust_deg < 90:
            raise ValueError(f"max_thrust_deg ({self.max_thrust_deg}) must lie in (0, 90)")
        if not self.window_low_deg < self.window_high_deg:
            raise ValueError(
                f"window_low_deg ({self.window_low_deg}) must be below "
                f"window_high_deg ({self.window_high_deg})"
            )


@dataclass(frozen=True)
class ParameterRange:
    """Inclusive numeric range with a fixed step."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if not 0 < self.step < math.inf:
            raise ValueError(f"step ({self.step}) must be {finite_rule('positive', self.step)}")
        if not self.stop >= self.start:
            raise ValueError(f"stop ({self.stop}) must be >= start ({self.start})")
        if math.isinf(self.start) or math.isinf(self.stop):
            raise ValueError(f"start ({self.start}) and stop ({self.stop}) must be finite")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValueError(f"(stop - start) / step overflows at step {self.step}")

    def count(self) -> int:
        """Number of values, from the span and the step alone."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.count())]


@dataclass(frozen=True)
class DesignSpace:
    """Grid of candidate spike designs, of at most MAX_GRID_POINTS points."""

    radius_m: ParameterRange
    hinge_height_m: ParameterRange
    initial_rake_deg: ParameterRange
    diameter_mm: ParameterRange
    design_depth_m: ParameterRange

    def __post_init__(self) -> None:
        size = self.size()
        if size > MAX_GRID_POINTS:
            raise ValueError(f"the grid has {size} points, above the limit of {MAX_GRID_POINTS}")

    def _values(self) -> list[list[float]]:
        return [getattr(self, f.name).values() for f in fields(self)]

    def size(self) -> int:
        return math.prod(getattr(self, f.name).count() for f in fields(self))


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed feasibility check; margin is the amount by which it failed."""

    check: str
    margin: float


@dataclass(frozen=True, slots=True)
class DesignEvaluation:
    feasible: bool
    violations: tuple[Violation, ...]
    objective: float
    thrust_deg: float
    window_deg: float
    critical_depth_m: float | None


@dataclass(frozen=True, slots=True)
class RankedDesign:
    design: SpikeDesign
    evaluation: DesignEvaluation


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    """The feasible designs of a grid search, ranked, as columns.

    ``axes`` holds the five grid axes' values in :class:`DesignSpace`
    field order, and ``index[k][n]`` is the position of the n-th ranked
    design on axis ``k``; the designs come by objective descending, then
    smaller radius, smaller diameter and grid order.  ``objective``,
    ``thrust_deg``, ``window_deg`` and ``critical_depth_m`` (``None``
    when the lateral check is off) are that design's evaluation, bit for
    bit :func:`evaluate_design`'s.
    The columns hold the first ``top`` ranked designs when the search
    was given ``top``; ``feasible`` counts every feasible design.
    """

    axes: tuple[list[float], ...]
    index: tuple[np.ndarray, ...]
    objective: np.ndarray
    thrust_deg: np.ndarray
    window_deg: np.ndarray
    critical_depth_m: np.ndarray | None
    feasible: int
    evaluated: int
    invalid: int
    violation_counts: dict[str, int]

    @property
    def ranked(self) -> tuple[RankedDesign, ...]:
        """The ranked designs as records, built on each access."""
        points = zip(
            *([axis[i] for i in index.tolist()] for axis, index in zip(self.axes, self.index))
        )
        zc = self.critical_depth_m
        zc = [None] * len(self.objective) if zc is None else zc.tolist()
        columns = (self.objective.tolist(), self.thrust_deg.tolist(), self.window_deg.tolist(), zc)
        return tuple(
            RankedDesign(SpikeDesign(*point), DesignEvaluation(True, (), *evaluation))
            for point, *evaluation in zip(points, *columns)
        )

    def most_common_violation(self) -> str | None:
        """The check that failed most often, or None.  Equal counts go to the
        alphabetically last name: penetration_window, max_thrust, critical_depth."""
        if not self.violation_counts:
            return None
        return max(self.violation_counts.items(), key=lambda item: (item[1], item[0]))[0]


def pull_weight_ratio(
    design: SpikeDesign,
    depth_m: float,
    application_fraction: float = 1.0,
) -> float:
    """Draft a unit-weight vehicle sustains without liftoff: 1/tan(gamma_eff).

    gamma_eff = arcsin((h + kappa z) / r) is the effective thrust angle
    when the draft acts at fraction kappa of the tip depth.  Returns
    math.inf for a degenerate zero effective angle.
    """
    if not 0 <= application_fraction <= 1:
        raise ValueError(
            f"application_fraction ({application_fraction}) must lie in [0, 1]"
        )
    if not 0 <= depth_m <= design.max_depth_m:
        raise ValueError(
            f"depth_m ({depth_m}) must lie in [0, {design.max_depth_m}]"
        )
    return _ratio_at(sine_angle(effective_sine(design, depth_m, application_fraction)))


def _ratio_at(gamma: float) -> float:
    """The pull/weight ratio 1/tan(gamma) at an effective thrust angle in radians;
    math.inf when the tangent is 0."""
    tangent = math.tan(gamma)
    return math.inf if tangent == 0.0 else 1.0 / tangent


def _failed_checks(
    constraints: DesignConstraints,
    thrust_deg,
    window_deg,
    depth_m,
    critical_depth_m,
) -> dict:
    """Whether each feasibility check fails, by check name.

    Takes scalars or broadcastable arrays.  The critical-depth check is
    made only when the constraints require the lateral regime.
    """
    failed = {
        "max_thrust": thrust_deg > constraints.max_thrust_deg,
        "penetration_window": (window_deg <= constraints.window_low_deg)
        | (window_deg >= constraints.window_high_deg),
    }
    if constraints.require_lateral_at_design_depth:
        failed["critical_depth"] = depth_m <= critical_depth_m
    return failed


def evaluate_design(
    design: SpikeDesign,
    constraints: DesignConstraints = DesignConstraints(),
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> DesignEvaluation:
    """Check a design against the constraints; infeasibility is a result.

    The checks are purely geometric plus the critical-depth stub, so no
    soil enters them.
    """
    depth = design.design_depth_m
    # A SpikeDesign holds 0 < depth <= radius - hinge, the range thrust_angle and
    # pull_weight_ratio check; thrust and objective come from one angle.
    gamma = sine_angle(effective_sine(design, depth))
    thrust = math.degrees(gamma)
    gamma0 = sine_degrees(effective_sine(design, 0.0))
    # alpha - gamma is depth-invariant under rigid rotation: its surface value.
    window = design.initial_rake_deg - gamma0
    zc: float | None = None
    if constraints.require_lateral_at_design_depth:
        rake = rotated_rake(design.initial_rake_deg, thrust, gamma0)
        zc = critical_depth(design.width_m, rake, cd_model)
    failed = _failed_checks(constraints, thrust, window, depth, zc)

    violations: list[Violation] = []
    if failed["max_thrust"]:
        violations.append(Violation("max_thrust", thrust - constraints.max_thrust_deg))
    if failed["penetration_window"]:
        low, high = constraints.window_low_deg, constraints.window_high_deg
        violations.append(
            Violation("penetration_window", low - window if window <= low else window - high)
        )
    if failed.get("critical_depth"):
        violations.append(Violation("critical_depth", zc - depth))

    return DesignEvaluation(
        feasible=not violations,
        violations=tuple(violations),
        objective=_ratio_at(gamma),
        thrust_deg=thrust,
        window_deg=window,
        critical_depth_m=zc,
    )


def _axis(values, position: int) -> np.ndarray:
    """``values`` laid along one of the five grid axes, for broadcasting."""
    shape = [1] * 5
    shape[position] = -1
    return np.asarray(values).reshape(shape)


def _thrust_angles(radius: np.ndarray, hinge: np.ndarray, depth) -> np.ndarray:
    """:func:`thrust_angle` of each (radius, hinge) arm at its depth, bit for bit: ``np.degrees``
    is the one multiplication ``math.degrees`` makes."""
    arms = SimpleNamespace(radius_m=radius, hinge_height_m=hinge)
    return np.degrees(list(map(sine_angle, effective_sine(arms, depth).tolist())))


def _arm_table(radius: list[float], hinge: list[float], depth: list[float]):
    """Which (radius, hinge, depth) arms are valid, their thrust, and each (radius, hinge)'s
    surface thrust, as arrays of shape (radius, hinge, depth) and (radius, hinge, 1).

    Validity is :class:`SpikeDesign`'s rule and each angle is :func:`thrust_angle`'s, bit
    for bit; an invalid arm, and a (radius, hinge) with no valid arm, hold nan.
    """
    radius, hinge, depth = map(np.asarray, (radius, hinge, depth))
    # Python float arithmetic overflows to inf without a warning; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        lever_ok, depth_ok = arm_rules(radius[:, None, None], hinge[:, None], depth)
        arm_ok = lever_ok & depth_ok
        ir, ih, iz = np.nonzero(arm_ok)
        thrust = np.full(arm_ok.shape, math.nan)
        thrust[ir, ih, iz] = _thrust_angles(radius[ir], hinge[ih], depth[iz])
        gamma0 = np.full(arm_ok.shape[:2] + (1,), math.nan)
        ir, ih = np.nonzero(arm_ok.any(axis=2))
        gamma0[ir, ih, 0] = _thrust_angles(radius[ir], hinge[ih], 0.0)
    return arm_ok, thrust, gamma0


def grid_search(
    space: DesignSpace,
    constraints: DesignConstraints = DesignConstraints(),
    cd_model: CriticalDepthModel = CriticalDepthModel(),
    top: int | None = None,
) -> GridSearchResult:
    """Evaluate every grid point and rank the feasible designs.

    The grid is the product of the five ranges in field order, evaluated
    as arrays over that product.  Validity is :class:`SpikeDesign`'s
    rules (:func:`~spiketrac.geometry.arm_rules` and
    :func:`~spiketrac.geometry.spike_rules`) applied to the axes.  The
    transcendental parts (thrust at design depth and at the surface, and
    the objective) depend only on the (radius, hinge, depth) arm: the
    arms take their thrust as :func:`thrust_angle` does, as arrays, and
    :func:`evaluate_design` runs once per arm that keeps a feasible
    point, for its objective.  Window, rake, critical depth and the
    checks are float64 array arithmetic broadcast over the grid, in the
    scalar code's operation order, so every point is judged and valued
    exactly as :func:`evaluate_design` judges and values it.  The
    critical depths of the grid become the check's mask at once; the
    ranked designs' depths are computed again from their own width and
    rake.  The result holds the ranked designs as columns.

    Sorted by objective descending, ties broken by smaller radius, then
    smaller diameter, then grid order.  The objective belongs to the
    arm, so the arms are ranked first: arms equal on (objective, radius)
    share a rank.  The feasible points, in grid order, are then sorted
    once, stably, on the small integer key (arm rank, rank of the
    diameter value), which keeps grid order among equal keys.  Grid
    points with inconsistent geometry (e.g. design depth beyond the
    reachable range) are skipped and counted.  With ``top``, the
    columns hold the first ``top`` ranked designs: only the points of
    the arms up to the rank at which the feasible count reaches ``top``
    are sorted.
    """
    if top is not None and not top >= 0:
        raise ValueError(f"top ({top}) must be >= 0")
    values = space._values()
    radius, hinge, rake0, diameter, depth = values
    arm_ok, thrust, gamma0 = _arm_table(radius, hinge, depth)
    rake_ok, diameter_ok = spike_rules(np.asarray(rake0), np.asarray(diameter))
    per_arm = (slice(None), slice(None), None, None, slice(None))
    valid = arm_ok[per_arm] & _axis(rake_ok, 2) & _axis(diameter_ok, 3)

    rake0_grid = _axis(rake0, 2)
    window = rake0_grid - gamma0[per_arm]
    zc = rake = width = None
    if constraints.require_lateral_at_design_depth:
        rake = rotated_rake(rake0_grid, thrust[per_arm], gamma0[per_arm])
        width = np.asarray(diameter) / 1000.0
        # The first point critical_depth rejects (a width that underflows
        # to zero) stops the search with its error.  The rakes and widths
        # are checked on their own axes first; the grid only if one fails.
        bad_rake = ~((rake > 0) & (rake < 180)) & arm_ok[per_arm] & _axis(rake_ok, 2)
        bad_width = ~(width > 0) & diameter_ok
        if bad_rake.any() or bad_width.any():
            rejected = np.flatnonzero(valid & (bad_rake | _axis(bad_width, 3)))
            if rejected.size:
                index = np.unravel_index(rejected[0], valid.shape)
                point = [axis[i] for axis, i in zip(values, index)]
                evaluate_design(SpikeDesign(*point), constraints, cd_model)
        zc = critical_depths(_axis(width, 3), rake, cd_model)
    failed = _failed_checks(constraints, thrust[per_arm], window, _axis(depth, 4), zc)
    del zc

    feasible = valid.copy()
    violation_counts: dict[str, int] = {}
    for check, failing in failed.items():
        count = int(np.count_nonzero(valid & failing))
        if count:
            violation_counts[check] = count
        feasible &= ~failing
    evaluated = int(np.count_nonzero(valid))
    del failed, valid

    # Only arms with a feasible point rank; with the default constraints
    # evaluate_design cannot raise for a valid arm, so the others drop no error.
    counts = np.count_nonzero(feasible, axis=(2, 3))
    ranking = np.flatnonzero(counts)
    arm_index = np.unravel_index(ranking, counts.shape)
    objective = np.full(counts.shape, math.nan)
    objective.flat[ranking] = [
        evaluate_design(SpikeDesign(radius[i], hinge[j], design_depth_m=depth[n])).objective
        for i, j, n in zip(*(axis_index.tolist() for axis_index in arm_index))
    ]
    # Dense rank of each arm by (-objective, radius), with float equality.
    # The arms come in grid order, so by radius: a stable sort keeps that.
    arm_objective, arm_radius = objective.flat[ranking], np.asarray(radius)[arm_index[0]]
    order = np.argsort(-arm_objective, kind="stable")
    ranking, arm_objective, arm_radius = ranking[order], arm_objective[order], arm_radius[order]
    rank = np.zeros(ranking.size, np.intp)
    np.cumsum(
        (arm_objective[1:] != arm_objective[:-1]) | (arm_radius[1:] != arm_radius[:-1]),
        out=rank[1:],
    )
    arm_rank = np.zeros(counts.shape, np.intp)
    arm_rank.flat[ranking] = rank
    ranks = int(rank[-1]) + 1 if rank.size else 0
    total = int(counts.sum())
    if top is not None and top < total:
        # A point of an arm ranked after the arm that fills the top ranks
        # after every point up to it: keep the arms up to that arm's rank.
        ranks = int(rank[np.searchsorted(np.cumsum(counts.flat[ranking]), top)]) + 1
        feasible &= (arm_rank < ranks)[per_arm]

    # One stable sort of the feasible points, in grid order, on (arm rank,
    # rank of the diameter value): a key of at most 16 bits sorts by radix.
    # An axis lists start + i * step and never decreases, so a value's
    # rank counts the changes of value before it.
    diameter_rank = np.cumsum([False] + [a != b for a, b in zip(diameter, diameter[1:])])
    diameters = int(diameter_rank[-1]) + 1
    # Arms past the cut keep no feasible point, so no key that is used overflows.
    key = (arm_rank[per_arm] * diameters + _axis(diameter_rank, 3)).astype(
        np.min_scalar_type(max(ranks * diameters - 1, 0))
    )
    points = np.flatnonzero(feasible)
    order = np.argsort(np.broadcast_to(key, feasible.shape)[feasible], kind="stable")[:top]
    index = np.unravel_index(points[order], feasible.shape)
    ir, ih, ia, idiam, iz = index
    return GridSearchResult(
        axes=tuple(values),
        index=index,
        objective=objective[ir, ih, iz],
        thrust_deg=thrust[ir, ih, iz],
        window_deg=window[ir, ih, ia, 0, 0],
        critical_depth_m=None if rake is None else critical_depths(
            width[idiam], rake[ir, ih, ia, 0, iz], cd_model
        ),
        feasible=total,
        evaluated=evaluated,
        invalid=feasible.size - evaluated,
        violation_counts=violation_counts,
    )
