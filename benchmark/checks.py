"""Output checks for the benchmark's operations.

Each check reads the files an operation wrote and the text it printed,
and recomputes what it can from the inputs with its own arithmetic.  It
never imports the package under test.  A check raises ``Mismatch`` at
the first disagreement; ``check`` turns that into a one-line problem.

The CLI writes floats at 6 significant digits, so values are compared to
a relative 1e-5 unless both sides come from the same rounded number.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from inputs import GRAVITY, crescent_force

REL = 1e-5
SERIES = (
    "draft_N", "depth_m", "thrust_deg", "lift_N", "tip_x_m", "cumulative_work_J",
    "motion_m", "airborne", "depth_filtered_m", "thrust_filtered_deg", "lift_filtered_N",
)
# Series CSV name -> report columns it must reproduce, in order.
SERIES_CSVS = {
    "depth_raw.csv": ("draft_N", "depth_m"),
    "depth_filtered.csv": ("draft_N", "depth_filtered_m"),
    "tip_trajectory.csv": ("tip_x_m", "depth_m"),
    "penetration_work.csv": ("draft_N", "cumulative_work_J"),
    "thrust_angle.csv": ("draft_N", "thrust_deg"),
    "lift_force.csv": ("draft_N", "lift_N", "weight_N"),
}
CSV_HEADERS = {
    "depth_raw.csv": "draft_N,depth_m",
    "depth_filtered.csv": "draft_N,depth_m",
    "tip_trajectory.csv": "tip_x_m,depth_m",
    "penetration_work.csv": "draft_N,cumulative_work_J",
    "thrust_angle.csv": "draft_N,thrust_deg",
    "lift_force.csv": "draft_N,lift_N,weight_N",
}
DESIGN_HEADER = (
    "radius_m,hinge_height_m,initial_rake_deg,diameter_mm,design_depth_m,"
    "objective,thrust_deg,window_deg"
)
SIM_HEADER = "draft_N,depth_m,regime,sustained,thrust_deg,rake_deg,lift_N"


class Mismatch(Exception):
    """An output disagrees with what the inputs imply."""


def close(got, expected, what: str, rel: float = REL, scale: float = 0.0) -> None:
    if got is None or not math.isclose(got, expected, rel_tol=rel, abs_tol=1e-12 + rel * scale):
        raise Mismatch(f"{what}: got {got!r}, expected {expected!r}")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _read_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(bool(lines) and lines[0] == header, f"{path.name}: header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


# --- analyze -------------------------------------------------------------------


def _read_log(path: Path) -> tuple[dict, list[tuple[float, float, float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = dict(token.split("=", 1) for token in lines[0].lstrip("#").split())
    rows = [tuple(float(v) for v in line.split(",")[1:]) for line in lines[2:] if line]
    return meta, rows


def _expected_series(meta: dict, rows: list) -> dict:
    """Raw series recomputed from the log: rigid-arm kinematics and the pulley factor."""
    radius, hinge = float(meta["radius_m"]), float(meta["hinge_m"])
    factor = GRAVITY * (1.0 - float(meta["pulley_mu"]))
    gamma0 = math.degrees(math.asin(hinge / radius))
    out = {name: [] for name in ("draft", "depth", "lift", "tip_x", "work", "airborne")}
    tip_x = work = 0.0
    for i, (basket, motion, incl) in enumerate(rows):
        draft = basket * factor
        depth = radius * math.sin(math.radians(incl)) - hinge
        if i:
            prev_basket, prev_motion, prev_incl = rows[i - 1]
            start = math.radians(max(prev_incl, gamma0))
            end = math.radians(max(incl, gamma0))
            dx = (motion - prev_motion) / 1000.0 - radius * (math.cos(start) - math.cos(end))
            work += 0.5 * (draft + out["draft"][-1]) * dx
            tip_x += dx
        out["draft"].append(draft)
        out["depth"].append(max(depth, 0.0) if depth >= -1e-12 else 0.0)
        out["airborne"].append(depth < -1e-12)
        out["lift"].append(draft * math.tan(math.radians(incl)) if incl < 90 else math.inf)
        out["tip_x"].append(tip_x)
        out["work"].append(work)
    return out


def _interpolated(draft: list, values: list, events: list) -> list:
    """Landslide filter: interpolate in draft between retained steps."""
    n = len(values)
    out = list(values)
    if n < 3:
        return out
    retained = sorted(set(events) | {0, n - 1})
    for left, right in zip(retained, retained[1:]):
        span = draft[right] - draft[left]
        for j in range(left + 1, right):
            t = (draft[j] - draft[left]) / span if span > 0 else (j - left) / (right - left)
            out[j] = values[left] + t * (values[right] - values[left])
    return out


def check_analyze(out: Path, stdout: str, expect: dict, inputs: Path) -> None:
    steps, events = expect["steps"], expect["events"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    require(set(report) == {"metadata", "series", "events", "summary"}, "report keys")
    series = report["series"]
    require(set(series) == set(SERIES), f"series keys {sorted(series)}")
    for name, column in series.items():
        require(len(column) == steps, f"series {name} has {len(column)} of {steps} steps")
    require(report["events"] == events, f"events {report['events']} != planted {events}")
    require(
        stdout.startswith("wrote ")
        and stdout.endswith(f"report.json: {steps} steps, {len(events)} landslide events\n"),
        f"stdout {stdout!r}",
    )

    meta, rows = _read_log(inputs / expect["log"])
    want = _expected_series(meta, rows)
    work_scale = max(map(abs, want["work"]), default=0.0)
    tip_scale = max(map(abs, want["tip_x"]), default=0.0)
    for i, (basket, motion, incl) in enumerate(rows):
        close(series["draft_N"][i], want["draft"][i], f"draft_N[{i}]")
        close(series["depth_m"][i], want["depth"][i], f"depth_m[{i}]")
        close(series["thrust_deg"][i], incl, f"thrust_deg[{i}]")
        close(series["lift_N"][i], want["lift"][i], f"lift_N[{i}]")
        close(series["motion_m"][i], motion / 1000.0, f"motion_m[{i}]")
        close(series["tip_x_m"][i], want["tip_x"][i], f"tip_x_m[{i}]", scale=tip_scale)
        close(series["cumulative_work_J"][i], want["work"][i], f"work[{i}]", scale=work_scale)
        require(series["airborne"][i] is want["airborne"][i], f"airborne[{i}]")
    thrust = [row[2] for row in rows]
    for name, raw in (("depth_filtered_m", want["depth"]), ("thrust_filtered_deg", thrust),
                      ("lift_filtered_N", want["lift"])):
        filtered = _interpolated(want["draft"], raw, events)
        scale = max(map(abs, raw), default=0.0)
        for i, value in enumerate(filtered):
            close(series[name][i], value, f"{name}[{i}]", scale=scale)

    summary = report["summary"]
    if steps:
        require(summary["max_draft_N"] == max(series["draft_N"]), "max_draft_N")
        require(summary["final_depth_m"] == series["depth_m"][-1], "final_depth_m")
        require(summary["penetration_work_J"] == series["cumulative_work_J"][-1],
                "penetration_work_J")
        kappa = summary["kappa_estimate"]
        require(kappa is not None and 0.0 <= kappa <= 1.0, f"kappa_estimate {kappa}")
        if expect.get("kappa_interior"):
            require(0.0 < kappa < 1.0, f"kappa_estimate {kappa} did not come from bisection")
    push = expect["push"]
    useful = want["draft"][-1] * push if push is not None and steps else None
    if useful is None or want["work"][-1] < 0 or useful + want["work"][-1] <= 0:
        require(summary["efficiency_at_push"] is None, "efficiency_at_push")
    else:
        close(summary["efficiency_at_push"], useful / (useful + want["work"][-1]),
              "efficiency_at_push", rel=1e-4)

    if expect["series"]:
        weight = float(meta["vehicle_kg"]) * GRAVITY
        columns = dict(series, weight_N=[weight] * steps)
        for name, fields in SERIES_CSVS.items():
            table = _read_rows(out / "series" / name, CSV_HEADERS[name])
            require(len(table) == steps, f"{name}: {len(table)} rows")
            for i, row in enumerate(table):
                for field, text in zip(fields, row, strict=True):
                    value = float(text)
                    reported = columns[field][i]
                    if field == "weight_N":
                        close(value, weight, f"{name}[{i}] weight")
                    elif reported is None:
                        require(not math.isfinite(value), f"{name}[{i}] {field}")
                    else:
                        require(value == reported, f"{name}[{i}] {field}: {text} vs {reported}")


# --- crescent ------------------------------------------------------------------


def _crescent_force(expect: dict, beta: float) -> float:
    return crescent_force(expect["soil"], expect["law"], expect["depth"], expect["width"], beta)


def check_crescent(out: Path, stdout: str, expect: dict, inputs: Path) -> None:
    match = re.fullmatch(r"beta_star_deg=(\S+) force_N=(\S+)\n", stdout)
    require(match is not None, f"stdout {stdout!r}")
    beta_star, force = float(match[1]), float(match[2])
    lo, hi = expect["bounds"]
    require(lo - 1e-6 <= beta_star <= hi + 1e-6, f"beta_star {beta_star} outside [{lo}, {hi}]")
    close(force, _crescent_force(expect, beta_star), "force_N")
    if not expect["curve"]:
        return
    curve = [(float(b), float(f)) for b, f in _read_rows(out / "curve.csv", "beta_deg,force_N")]
    require(bool(curve), "empty curve")
    require(abs(curve[0][0] - lo) < 1e-6, f"curve starts at {curve[0][0]}, bound {lo}")
    require(curve[-1][0] <= hi + 1e-6 < curve[-1][0] + 0.1, f"curve ends at {curve[-1][0]}")
    for (b0, _), (b1, _) in zip(curve, curve[1:]):
        require(abs(b1 - b0 - 0.1) < 1e-6, f"curve step {b0} -> {b1}")
    for beta, value in curve:
        close(value, _crescent_force(expect, beta), f"curve force at {beta}")
    best = max(value for _, value in curve)
    first = next(beta for beta, value in curve if value == best)
    require(force == best, f"force_N {force} is not the curve maximum {best}")
    # Ties in the 6-digit CSV can hide which of two neighbours is larger,
    # so beta* must be a maximizing row no earlier than the first one.
    at_star = [value for beta, value in curve if abs(beta - beta_star) < 1e-6]
    require(at_star == [best] and beta_star >= first - 1e-6,
            f"beta_star {beta_star} is not a first maximum of the curve")


# --- design --------------------------------------------------------------------


def check_design(out: Path, stdout: str, expect: dict, inputs: Path) -> None:
    lines = stdout.splitlines()
    match = re.fullmatch(
        r"evaluated (\d+) designs \((\d+) invalid grid points\): (\d+) feasible", lines[0]
    )
    require(match is not None, f"stdout {lines[:1]!r}")
    evaluated, invalid, feasible = (int(g) for g in match.groups())
    require(evaluated + invalid == expect["size"], f"{evaluated} + {invalid} != grid size")
    require(invalid == expect["invalid"], f"invalid {invalid} != {expect['invalid']}")
    if expect["out"]:
        rows = _read_rows(out / "ranked.csv", DESIGN_HEADER)
        require(len(lines) == (1 if feasible else 2), "ranked rows printed despite --out")
    elif feasible:
        require(lines[1] == DESIGN_HEADER, "stdout header")
        rows = [line.split(",") for line in lines[2:]]
    else:
        rows = []
    top = expect["top"]
    require(len(rows) == (feasible if top is None else min(top, feasible)),
            f"{len(rows)} rows for {feasible} feasible")

    limits = expect["limits"]
    previous = None
    for i, row in enumerate(rows):
        r, h, rake, diameter, z, objective, thrust, window = (float(v) for v in row)
        require(0 < z <= r - h + 1e-9, f"row {i}: depth {z} out of reach")
        gamma = math.asin((h + z) / r)
        close(thrust, math.degrees(gamma), f"row {i} thrust")
        require(math.degrees(gamma) <= limits["max_thrust_deg"] + 1e-9, f"row {i}: thrust limit")
        close(objective, 1.0 / math.tan(gamma), f"row {i} objective")
        margin = rake - math.degrees(math.asin(h / r))
        close(window, margin, f"row {i} window")
        require(limits["window_low_deg"] < margin < limits["window_high_deg"],
                f"row {i}: window {margin}")
        key = (row[0], row[1], row[4])
        if previous is not None:
            prev_key, prev_objective, prev_diameter = previous
            require(objective <= prev_objective, f"row {i}: objective rises")
            # Equal radius, hinge and depth give the identical objective,
            # so the diameter tie-break decides the order.
            if key == prev_key:
                require(diameter >= prev_diameter, f"row {i}: diameter tie-break")
        previous = key, objective, diameter


# --- simulate ------------------------------------------------------------------


def check_simulate(out: Path, stdout: str, expect: dict, inputs: Path) -> None:
    design, drafts = expect["design"], expect["drafts"]
    rows = _read_rows(out / "sim.csv", SIM_HEADER)
    require(len(rows) == len(drafts), f"{len(rows)} rows for {len(drafts)} drafts")
    r, h = design["radius_m"], design["hinge_height_m"]
    z_design = design["design_depth_m"]
    gamma0 = math.degrees(math.asin(h / r))
    previous = 0.0
    for i, (draft, depth, regime, sustained, thrust, rake, lift) in enumerate(rows):
        draft, depth, thrust, rake, lift = map(float, (draft, depth, thrust, rake, lift))
        close(draft, drafts[i], f"row {i} draft")
        require(depth >= previous, f"row {i}: depth decreased")
        require(depth <= z_design * (1 + REL), f"row {i}: depth past design depth")
        require(regime in ("crescent", "lateral"), f"row {i}: regime {regime}")
        require(sustained in ("true", "false"), f"row {i}: sustained {sustained}")
        if sustained == "false":
            close(depth, z_design, f"row {i}: unsustained away from design depth")
        gamma = math.degrees(math.asin((h + depth) / r))
        close(thrust, gamma, f"row {i} thrust", rel=5e-5)
        close(rake, design["initial_rake_deg"] + gamma - gamma0, f"row {i} rake", rel=5e-5)
        close(lift, draft * math.tan(math.radians(thrust)), f"row {i} lift", rel=5e-5)
        previous = depth
    last = rows[-1]
    require(
        stdout == f"{len(rows)} steps: final depth {last[1]} m, regime {last[2]}, "
        f"sustained {'yes' if last[3] == 'true' else 'no'}\n",
        f"stdout {stdout!r}",
    )


CHECKS = {
    "analyze": check_analyze,
    "crescent": check_crescent,
    "design": check_design,
    "simulate": check_simulate,
}


def check(op: dict, out: Path, stdout: str, inputs: Path) -> str | None:
    """Check one operation's outputs; return the first problem, or None."""
    try:
        CHECKS[op["kind"]](out, stdout, op["expect"], inputs)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # malformed output of any shape is a failed check
        return f"unreadable output: {exc!r}"
    return None
