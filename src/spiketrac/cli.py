"""Command-line front end.

One executable, four subcommands:

* ``analyze``  - reduce a trial log to a JSON report and plot-ready CSVs;
* ``crescent`` - maximize the crescent force over the shear-plane angle;
* ``design``   - grid-search a design space against the constraints;
* ``simulate`` - forward model a draft schedule into a predicted series.

All file outputs are written atomically (temp then rename) and floats
are formatted at 6 significant digits, so identical inputs and flags
produce byte-identical outputs.  Exit codes: 0 success, 2 parse or
validation failure, 3 domain error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .design import (
    DesignConstraints,
    DesignSpace,
    GridSearchResult,
    ParameterRange,
    grid_search,
)
from .geometry import SpikeDesign
from .simulate import predict_series
from .soilmech import (
    DRY_SAND,
    MOIST_SAND,
    CriticalDepthModel,
    ForceLaw,
    SoilProperties,
    max_crescent_force,
)
from .trials import (
    DEFAULT_DEPTH_JUMP_M,
    DEFAULT_MOTION_JUMP_M,
    DerivedSeries,
    TrialLog,
    TrialLogError,
    derive_series,
    detect_landslides,
    estimate_effective_application,
    landslide_filter,
    parse_trial_log,
    stability_check,
    tractive_efficiency,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_SOIL_PRESETS = {"preset:dry": DRY_SAND, "preset:moist": MOIST_SAND}

# Plot-ready CSVs of ``analyze --series``: file -> report series per column.
# A filtered series keeps the header of its raw one.
_SERIES_CSVS = {
    "depth_raw.csv": ("draft_N", "depth_m"),
    "depth_filtered.csv": ("draft_N", "depth_filtered_m"),
    "tip_trajectory.csv": ("tip_x_m", "depth_m"),
    "penetration_work.csv": ("draft_N", "cumulative_work_J"),
    "thrust_angle.csv": ("draft_N", "thrust_deg"),
    "lift_force.csv": ("draft_N", "lift_N", "weight_N"),
}


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _json_ready(value):
    """Round floats to 6 significant digits; non-finite becomes null."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return list(map(_json_ready, value.tolist()))
    return value


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def finite(text: str) -> float:
    """A finite float from text; the type of every float flag and JSON number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def nonnegative(text: str) -> float:
    """A finite float of at least 0 from text; the type of distance flags."""
    value = finite(text)
    if value < 0:
        raise ValueError(f"{text} is negative")
    return value


def positive(text: str) -> float:
    """A finite float above 0 from text; the type of threshold flags."""
    value = finite(text)
    if value <= 0:
        raise ValueError(f"{text} is not positive")
    return value


def positive_int(text: str) -> int:
    """An integer of at least 1 from text; the type of count flags."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text} is not a positive integer")
    return value


def _load_json(path: Path, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        # NaN/Infinity literals and floats that overflow to inf are rejected.
        data = json.loads(text, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path}: invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path}: expected a JSON object")
    return data


def _check_keys(data: dict, allowed: set[str], path: Path, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{what} file {path}: unknown keys {', '.join(unknown)}")


def _check_types(cls, data: dict, where: str) -> None:
    """Reject a JSON value of the wrong kind for a float or bool field.

    Python counts ``true`` as the number 1 and ``"false"`` as true, so
    neither may stand in for the other.
    """
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{where}: {f.name} must be a number, not {json.dumps(value)}")
        if f.type == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{where}: {f.name} must be true or false, not {json.dumps(value)}")


def _load_dataclass(cls, path: Path, what: str):
    """A ``cls`` built from a JSON object whose keys are its field names."""
    data = _load_json(path, what)
    _check_keys(data, {f.name for f in fields(cls)}, path, what)
    _check_types(cls, data, f"{what} file {path}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc


def load_soil(spec: str) -> SoilProperties:
    """Soil from ``preset:dry``, ``preset:moist``, or a JSON file."""
    if spec in _SOIL_PRESETS:
        return _SOIL_PRESETS[spec]
    if spec.startswith("preset:"):
        raise ConfigError(f"unknown soil preset {spec!r}; use preset:dry or preset:moist")
    return _load_dataclass(SoilProperties, Path(spec), "soil")


def load_design(path: Path) -> SpikeDesign:
    return _load_dataclass(SpikeDesign, path, "design")


def load_constraints(path: Path | None) -> DesignConstraints:
    if path is None:
        return DesignConstraints()
    return _load_dataclass(DesignConstraints, path, "constraints")


def load_space(path: Path) -> DesignSpace:
    data = _load_json(path, "design-space")
    names = [f.name for f in fields(DesignSpace)]
    _check_keys(data, set(names), path, "design-space")
    missing = sorted(set(names) - set(data))
    if missing:
        raise ConfigError(f"design-space file {path}: missing keys {', '.join(missing)}")
    ranges = {}
    for name in names:
        entry = data[name]
        if not isinstance(entry, dict) or set(entry) != {"start", "stop", "step"}:
            raise ConfigError(
                f"design-space file {path}: {name} must be an object with start, stop, step"
            )
        _check_types(ParameterRange, entry, f"design-space file {path}: {name}")
        try:
            ranges[name] = ParameterRange(**entry)
        except ValueError as exc:
            raise ConfigError(f"design-space file {path}: {name}: {exc}") from exc
    return DesignSpace(**ranges)


def load_draft_schedule(path: Path) -> list[float]:
    """Draft schedule CSV: a ``draft_N`` header then one non-decreasing force per line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != "draft_N":
        raise ConfigError(f"draft-schedule file {path}: first line must be 'draft_N'")
    drafts = []
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"draft-schedule file {path}: line {number}: {exc}") from exc
        if value < 0 or not math.isfinite(value):
            raise ConfigError(
                f"draft-schedule file {path}: line {number}: draft must be finite and >= 0"
            )
        if drafts and value < drafts[-1]:
            raise ConfigError(
                f"draft-schedule file {path}: line {number}: draft ({value}) decreased "
                f"(previous {drafts[-1]}); weights are only added"
            )
        drafts.append(value)
    return drafts


def _build_report(
    log: TrialLog,
    series: DerivedSeries,
    columns: dict[str, np.ndarray],
    push_distance_m: float | None,
) -> dict:
    meta = log.metadata
    vehicle = meta.vehicle()
    design = meta.spike_design()

    summary: dict = {
        "max_draft_N": None,
        "final_depth_m": None,
        "penetration_work_J": None,
        "efficiency_at_push": None,
        "stability": {"first_liftoff_step": None},
        "kappa_estimate": None,
    }
    if len(series):
        stability = stability_check(series, vehicle)
        first_liftoff = next(
            (i for i, record in enumerate(stability) if record.liftoff), None
        )
        # No liftoff column exists in the raw logs; a recorded trial implies
        # the vehicle stayed on its wheels throughout.
        observed = [False] * len(series)
        kappa = estimate_effective_application(series, design, vehicle, observed)
        summary["max_draft_N"] = series.draft_n.max()
        summary["final_depth_m"] = series.depth_m[-1]
        summary["penetration_work_J"] = series.cumulative_work_j[-1]
        summary["stability"]["first_liftoff_step"] = first_liftoff
        summary["kappa_estimate"] = kappa.kappa
        if push_distance_m is not None:
            try:
                summary["efficiency_at_push"] = tractive_efficiency(
                    series.cumulative_work_j[-1], series.draft_n[-1], push_distance_m
                )
            except ValueError:
                summary["efficiency_at_push"] = None

    report = {
        "metadata": asdict(meta),
        "series": columns,
        "events": series.events,
        "summary": summary,
    }
    return _json_ready(report)


def _write_series_csvs(directory: Path, columns: dict[str, np.ndarray], weight_n: float) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    # Each series is formatted once, however many files it goes to.
    text = {"weight_N": [_fmt(weight_n)] * len(columns["draft_N"])}
    for name, keys in _SERIES_CSVS.items():
        for key in keys:
            if key not in text:
                text[key] = [_fmt(value) for value in columns[key].tolist()]
        header = [key.replace("_filtered", "") for key in keys]
        _write_csv(directory / name, header, zip(*(text[key] for key in keys)))


def run_analyze(args: argparse.Namespace) -> int:
    try:
        log = parse_trial_log(args.log)
    except TrialLogError as exc:
        raise TrialLogError(f"{args.log}: {exc}") from exc
    series = derive_series(log)
    events = detect_landslides(series, args.depth_threshold, args.motion_threshold)
    series.events = events
    filtered = landslide_filter(series, events)

    columns = {
        "draft_N": series.draft_n,
        "depth_m": series.depth_m,
        "thrust_deg": series.thrust_deg,
        "lift_N": series.lift_n,
        "tip_x_m": series.tip_x_m,
        "cumulative_work_J": series.cumulative_work_j,
        "motion_m": series.motion_m,
        "airborne": series.airborne,
        "depth_filtered_m": filtered.depth_m,
        "thrust_filtered_deg": filtered.thrust_deg,
        "lift_filtered_N": filtered.lift_n,
    }
    report = _build_report(log, series, columns, args.push_distance)
    _atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.series is not None:
        _write_series_csvs(args.series, columns, log.metadata.vehicle().weight_n)
    print(f"wrote {args.out}: {len(series)} steps, {len(events)} landslide events")
    return EXIT_OK


def run_crescent(args: argparse.Namespace) -> int:
    if args.beta_min is not None and args.beta_max is not None and args.beta_min >= args.beta_max:
        raise ConfigError(
            f"--beta-min ({args.beta_min}) must be below --beta-max ({args.beta_max})"
        )
    soil = load_soil(args.soil)
    result = max_crescent_force(
        args.depth,
        args.width,
        soil,
        ForceLaw(args.law),
        beta_min_deg=args.beta_min,
        beta_max_deg=args.beta_max,
    )
    if args.out is not None:
        _write_csv(
            args.out,
            ["beta_deg", "force_N"],
            [[_fmt(beta), _fmt(force)] for beta, force in result.curve],
        )
    print(f"beta_star_deg={_fmt(result.beta_star_deg)} force_N={_fmt(result.force_n)}")
    return EXIT_OK


def _design_rows(result: GridSearchResult, top: int | None) -> list[list[str]]:
    ranked = result.ranked if top is None else result.ranked[:top]
    rows = []
    for item in ranked:
        d, e = item.design, item.evaluation
        rows.append(
            [
                _fmt(d.radius_m),
                _fmt(d.hinge_height_m),
                _fmt(d.initial_rake_deg),
                _fmt(d.diameter_mm),
                _fmt(d.design_depth_m),
                _fmt(e.objective),
                _fmt(e.thrust_deg),
                _fmt(e.window_deg),
            ]
        )
    return rows


def run_design(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    constraints = load_constraints(args.constraints)
    # The soil is validated but does not enter the ranking: the present
    # feasibility checks are geometric.
    load_soil(args.soil)
    cd_model = CriticalDepthModel(k0=args.k0, k1=args.k1)
    result = grid_search(space, constraints, cd_model)
    header = [
        "radius_m",
        "hinge_height_m",
        "initial_rake_deg",
        "diameter_mm",
        "design_depth_m",
        "objective",
        "thrust_deg",
        "window_deg",
    ]
    rows = _design_rows(result, args.top)
    if args.out is not None:
        _write_csv(args.out, header, rows)
    print(
        f"evaluated {result.evaluated} designs ({result.invalid} invalid grid points): "
        f"{len(result.ranked)} feasible"
    )
    if not result.ranked:
        worst = result.most_common_violation()
        if worst is not None:
            print(f"no feasible designs; most common violation: {worst}")
    elif args.out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    soil = load_soil(args.soil)
    drafts = load_draft_schedule(args.draft_schedule)
    cd_model = CriticalDepthModel(k0=args.k0, k1=args.k1)
    steps = predict_series(design, soil, drafts, cd_model)
    header = ["draft_N", "depth_m", "regime", "sustained", "thrust_deg", "rake_deg", "lift_N"]
    rows = [
        [
            _fmt(s.draft_n),
            _fmt(s.depth_m),
            s.regime.value,
            "true" if s.sustained else "false",
            _fmt(s.thrust_deg),
            _fmt(s.rake_deg),
            _fmt(s.lift_n),
        ]
        for s in steps
    ]
    if args.out is not None:
        _write_csv(args.out, header, rows)
    if steps:
        final = steps[-1]
        print(
            f"{len(steps)} steps: final depth {_fmt(final.depth_m)} m, "
            f"regime {final.regime.value}, sustained {'yes' if final.sustained else 'no'}"
        )
    else:
        print("0 steps: empty draft schedule")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiketrac",
        description="Interlocking-spike traction analysis on granular soil",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="reduce a trial log to a report")
    analyze.add_argument("--log", required=True, type=Path, help="trial-log CSV")
    analyze.add_argument("--out", required=True, type=Path, help="JSON report path")
    analyze.add_argument("--series", type=Path, help="directory for plot-ready CSVs")
    analyze.add_argument("--push-distance", type=nonnegative, help="push distance for efficiency (m)")
    analyze.add_argument(
        "--depth-threshold", type=positive, default=DEFAULT_DEPTH_JUMP_M,
        help="landslide depth jump threshold (m)",
    )
    analyze.add_argument(
        "--motion-threshold", type=positive, default=DEFAULT_MOTION_JUMP_M,
        help="landslide motion jump threshold (m)",
    )

    crescent = sub.add_parser("crescent", help="maximize the crescent force over beta")
    crescent.add_argument("--depth", required=True, type=finite, help="tip depth (m)")
    crescent.add_argument("--width", required=True, type=finite, help="spike width (m)")
    crescent.add_argument(
        "--soil", required=True, help="soil JSON file, preset:dry, or preset:moist"
    )
    crescent.add_argument("--law", choices=("active", "passive"), default="active")
    crescent.add_argument("--beta-min", type=finite, help="scan lower bound (deg)")
    crescent.add_argument("--beta-max", type=finite, help="scan upper bound (deg)")
    crescent.add_argument("--out", type=Path, help="curve CSV path")

    design = sub.add_parser("design", help="grid-search a design space")
    design.add_argument("--space", required=True, type=Path, help="design-space JSON")
    design.add_argument("--constraints", type=Path, help="constraints JSON (defaults apply)")
    design.add_argument("--soil", default="preset:dry", help="soil file or preset")
    design.add_argument("--top", type=positive_int, help="keep only the N best designs (N >= 1)")
    design.add_argument("--out", type=Path, help="ranked CSV path")
    design.add_argument("--k0", type=finite, default=6.0, help="critical-depth aspect ratio")
    design.add_argument("--k1", type=finite, default=1.0, help="critical-depth rake sensitivity")

    simulate = sub.add_parser("simulate", help="forward model a draft schedule")
    simulate.add_argument("--design", required=True, type=Path, help="design JSON")
    simulate.add_argument("--soil", required=True, help="soil file or preset")
    simulate.add_argument("--draft-schedule", required=True, type=Path, help="schedule CSV")
    simulate.add_argument("--out", type=Path, help="predicted series CSV path")
    simulate.add_argument("--k0", type=finite, default=6.0, help="critical-depth aspect ratio")
    simulate.add_argument("--k1", type=finite, default=1.0, help="critical-depth rake sensitivity")

    return parser


_COMMANDS = {
    "analyze": run_analyze,
    "crescent": run_crescent,
    "design": run_design,
    "simulate": run_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Results are checked for overflow and nan; numpy warnings add nothing.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (TrialLogError, ConfigError, UnicodeDecodeError) as exc:
        # An input that is not UTF-8 text cannot be parsed at all.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        # Python float powers raise OverflowError where numpy returns inf.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
