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

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator

from .geometry import SpikeDesign, penetration_window_margin, rake_angle, thrust_angle
from .soilmech import CriticalDepthModel, critical_depth


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
        if self.step <= 0:
            raise ValueError(f"step ({self.step}) must be positive")
        if self.stop < self.start:
            raise ValueError(f"stop ({self.stop}) must be >= start ({self.start})")

    def values(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


@dataclass(frozen=True)
class DesignSpace:
    """Grid of candidate spike designs."""

    radius_m: ParameterRange
    hinge_height_m: ParameterRange
    initial_rake_deg: ParameterRange
    diameter_mm: ParameterRange
    design_depth_m: ParameterRange

    def _values(self) -> list[list[float]]:
        return [getattr(self, f.name).values() for f in fields(self)]

    def size(self) -> int:
        return math.prod(len(values) for values in self._values())

    def candidates(self) -> Iterator[tuple[float, ...]]:
        """All grid points, in field order, as ``SpikeDesign`` positional arguments.

        A point may describe an impossible geometry (for example a design
        depth beyond ``radius - hinge``); building its design raises.
        """
        return itertools.product(*self._values())


@dataclass(frozen=True)
class Violation:
    """One failed feasibility check; margin is the amount by which it failed."""

    check: str
    margin: float
    detail: str


@dataclass(frozen=True)
class DesignEvaluation:
    feasible: bool
    violations: tuple[Violation, ...]
    objective: float
    thrust_deg: float
    window_deg: float
    critical_depth_m: float | None


@dataclass(frozen=True)
class RankedDesign:
    design: SpikeDesign
    evaluation: DesignEvaluation


@dataclass(frozen=True)
class GridSearchResult:
    ranked: tuple[RankedDesign, ...]
    evaluated: int
    invalid: int
    violation_counts: dict[str, int]

    def most_common_violation(self) -> str | None:
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
    sin_gamma = (design.hinge_height_m + application_fraction * depth_m) / design.radius_m
    gamma = math.asin(min(sin_gamma, 1.0))
    tangent = math.tan(gamma)
    if tangent == 0.0:
        return math.inf
    return 1.0 / tangent


def evaluate_design(
    design: SpikeDesign,
    constraints: DesignConstraints = DesignConstraints(),
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> DesignEvaluation:
    """Check a design against the constraints; infeasibility is a result.

    The checks are purely geometric plus the critical-depth stub, so no
    soil enters them.
    """
    violations: list[Violation] = []

    thrust = thrust_angle(design, design.design_depth_m)
    if thrust > constraints.max_thrust_deg:
        violations.append(
            Violation(
                check="max_thrust",
                margin=thrust - constraints.max_thrust_deg,
                detail=(
                    f"thrust {thrust:.2f} deg at design depth exceeds "
                    f"{constraints.max_thrust_deg:.2f} deg"
                ),
            )
        )

    window = penetration_window_margin(design).difference_deg
    if not constraints.window_low_deg < window < constraints.window_high_deg:
        if window <= constraints.window_low_deg:
            margin = constraints.window_low_deg - window
        else:
            margin = window - constraints.window_high_deg
        violations.append(
            Violation(
                check="penetration_window",
                margin=margin,
                detail=(
                    f"alpha - gamma = {window:.2f} deg outside "
                    f"({constraints.window_low_deg}, {constraints.window_high_deg})"
                ),
            )
        )

    zc: float | None = None
    if constraints.require_lateral_at_design_depth:
        zc = critical_depth(design.width_m, rake_angle(design, design.design_depth_m), cd_model)
        if design.design_depth_m <= zc:
            violations.append(
                Violation(
                    check="critical_depth",
                    margin=zc - design.design_depth_m,
                    detail=(
                        f"design depth {design.design_depth_m:.3f} m does not pass "
                        f"the critical depth {zc:.3f} m"
                    ),
                )
            )

    return DesignEvaluation(
        feasible=not violations,
        violations=tuple(violations),
        objective=pull_weight_ratio(design, design.design_depth_m, 1.0),
        thrust_deg=thrust,
        window_deg=window,
        critical_depth_m=zc,
    )


def grid_search(
    space: DesignSpace,
    constraints: DesignConstraints = DesignConstraints(),
    cd_model: CriticalDepthModel = CriticalDepthModel(),
) -> GridSearchResult:
    """Exhaustively evaluate the grid and rank the feasible designs.

    Sorted by objective descending, ties broken by smaller radius then
    smaller diameter.  Grid points with inconsistent geometry (e.g.
    design depth beyond the reachable range) are skipped and counted.
    """
    ranked: list[RankedDesign] = []
    violation_counts: dict[str, int] = {}
    evaluated = 0
    invalid = 0
    for point in space.candidates():
        try:
            candidate = SpikeDesign(*point)
        except ValueError:
            invalid += 1
            continue
        evaluated += 1
        evaluation = evaluate_design(candidate, constraints, cd_model)
        if evaluation.feasible:
            ranked.append(RankedDesign(design=candidate, evaluation=evaluation))
        else:
            for violation in evaluation.violations:
                violation_counts[violation.check] = violation_counts.get(violation.check, 0) + 1
    ranked.sort(
        key=lambda item: (
            -item.evaluation.objective,
            item.design.radius_m,
            item.design.diameter_mm,
        )
    )
    return GridSearchResult(
        ranked=tuple(ranked),
        evaluated=evaluated,
        invalid=invalid,
        violation_counts=violation_counts,
    )
