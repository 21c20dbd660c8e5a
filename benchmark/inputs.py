"""Seeded input generators for the four benchmark workloads.

Every generator writes plain files into a directory and returns the list
of operations to run against them.  An operation is a dict:

* ``argv``: the ``spiketrac`` arguments; ``{out}`` marks the operation's
  own output directory, filled in for each pass;
* ``kind``: the subcommand, which selects the output check;
* ``expect``: what the check needs to know about the inputs (planted
  landslide indices, grid size, scan bounds, ...).

Inputs stay inside the documented contract (finite values, non-decreasing
basket mass, motion and drafts, inclination within [0, 90]) so no
operation fails on a valid program.  Work per pass is fixed by the
workload, not by the seed: the seed moves values, not counts.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GRAVITY = 9.81
SOILS = {
    "preset:dry": {"bulk_density_kg_m3": 1720.0, "friction_angle_deg": 30.0},
    "preset:moist": {"bulk_density_kg_m3": 1790.0, "friction_angle_deg": 47.0},
}
SCAN_MARGIN_DEG = 0.1
BETA_STEP_DEG = 0.1
# Planted landslides and ordinary steps keep clear of the CLI's 0.01 m
# depth and motion thresholds, so rounding in the files cannot move an
# event across a threshold.
PLANTED_JUMP_M = (0.012, 0.02)
PLANTED_MOTION_MM = (12.0, 40.0)
SMOOTH_DEPTH_MAX_M = 0.006
SMOOTH_MOTION_MAX_MM = 4.0
AIRBORNE_STEPS = 4  # every log starts with the tip above the surface
# Design constraints the CLI applies when no constraints file is given.
DEFAULT_LIMITS = {"max_thrust_deg": 25.0, "window_low_deg": 15.0, "window_high_deg": 35.0}
LONG_LOG_STEPS = 20000  # analyze-long-log
SCHEDULE_DRAFTS = 300  # simulate-schedules, per schedule


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _spread(rng: random.Random, total: float, count: int, high: float) -> list[float]:
    """``count`` non-negative increments of mean ``total / count``, each below ``high``."""
    if count == 0:
        return []
    mean = total / count
    width = min(mean, high - mean)
    return [mean + rng.uniform(-width, width) for _ in range(count)]


# --- trial logs ------------------------------------------------------------


def trial_log(
    rng: random.Random,
    path: Path,
    steps: int,
    events: int,
    lift_over_weight: float,
) -> dict:
    """Write a trial log with ``events`` planted landslides.

    The arm starts airborne for a few steps, then the tip sinks in small
    increments, with planted depth or motion jumps at recorded indices.
    The final basket mass puts the tip-applied lift at
    ``lift_over_weight`` times the vehicle weight.
    """
    radius = round(rng.uniform(1.2, 1.5), 3)
    hinge = round(rng.uniform(0.07, 0.10), 3)
    vehicle = round(rng.uniform(45.0, 90.0), 1)
    mu = round(rng.uniform(0.15, 0.3), 3)
    meta = {
        "site": rng.choice(("dry", "moist")),
        "diameter_mm": float(rng.choice((12, 16, 21, 25))),
        "radius_m": radius,
        "hinge_m": hinge,
        "rake0_deg": round(rng.uniform(35.0, 55.0), 1),
        "vehicle_kg": vehicle,
        "pulley_mu": mu,
    }
    planted = sorted(rng.sample(range(AIRBORNE_STEPS + 2, steps), events))
    # Depth jumps are capped so the tip stays well inside the arm's reach.
    deep = set(rng.sample(planted, min(len(planted) // 2, 12)))
    kinds = {i: rng.choice(("depth", "both")) if i in deep else "motion" for i in planted}

    depth_jumps = {
        i: rng.uniform(*PLANTED_JUMP_M) for i in planted if kinds[i] in ("depth", "both")
    }
    smooth_steps = steps - AIRBORNE_STEPS - len(depth_jumps)
    smooth_total = min(0.3, 0.6 * SMOOTH_DEPTH_MAX_M * smooth_steps)
    smooth = iter(_spread(rng, smooth_total, smooth_steps, SMOOTH_DEPTH_MAX_M))

    gamma0 = math.degrees(math.asin(hinge / radius))
    incl: list[float] = []
    depth = 0.0
    for i in range(steps):
        if i < AIRBORNE_STEPS:
            incl.append(round(gamma0 * (0.3 + 0.5 * i / AIRBORNE_STEPS), 5))
            continue
        depth += depth_jumps[i] if i in depth_jumps else next(smooth)
        incl.append(round(math.degrees(math.asin((depth + hinge) / radius)), 5))

    motion_mm = []
    motion = 0.0
    for i in range(steps):
        if i > 0:
            if kinds.get(i) in ("motion", "both"):
                motion += rng.uniform(*PLANTED_MOTION_MM)
            else:
                motion += rng.uniform(0.0, SMOOTH_MOTION_MAX_MM)
        motion_mm.append(round(motion, 2))

    weight = vehicle * GRAVITY
    final_draft = lift_over_weight * weight / math.tan(math.radians(incl[-1]))
    final_basket = final_draft / (GRAVITY * (1.0 - mu))
    # Whole grams keep the written masses non-decreasing.
    grams = round(rng.uniform(1.0, 5.0) * 1000)
    step_g = max(1, round((final_basket * 1000 - grams) / (steps - 1)))
    basket = []
    for _ in range(steps):
        basket.append(grams / 1000)
        grams += rng.randint(0, 2 * step_g)

    lines = [
        "# " + " ".join(f"{key}={value}" for key, value in meta.items()),
        "step,basket_kg,motion_mm,incl_deg",
    ]
    lines += [
        f"{i},{basket[i]:.3f},{motion_mm[i]:.2f},{incl[i]:.5f}" for i in range(steps)
    ]
    _write(path, "\n".join(lines) + "\n")
    return {"steps": steps, "events": planted, "meta": meta}


def _analyze_op(log: Path, expect: dict, series: bool, push: float | None) -> dict:
    argv = ["analyze", "--log", log.name, "--out", "{out}/report.json"]
    if series:
        argv += ["--series", "{out}/series"]
    if push is not None:
        argv += ["--push-distance", f"{push:g}"]
    return {
        "kind": "analyze",
        "argv": argv,
        "expect": dict(expect, log=log.name, series=series, push=push),
    }


# --- crescent ----------------------------------------------------------------


def scan_bounds(soil: dict, law: str, beta_min: float | None, beta_max: float | None):
    """The law's admissible shear-angle range, narrowed by the flags."""
    phi = soil["friction_angle_deg"]
    if law == "active":
        lo, hi = phi + SCAN_MARGIN_DEG, 90.0 - SCAN_MARGIN_DEG
    else:
        lo, hi = SCAN_MARGIN_DEG, 90.0 - phi - SCAN_MARGIN_DEG
    if beta_min is not None:
        lo = max(lo, beta_min)
    if beta_max is not None:
        hi = min(hi, beta_max)
    return lo, hi


def crescent_force(soil: dict, law: str, depth: float, width: float, beta: float) -> float:
    """Horizontal crescent force at one shear angle (prism plus two quarter cones)."""
    phi = soil["friction_angle_deg"]
    if law == "active" and beta <= phi:
        return 0.0
    cot = 1.0 / math.tan(math.radians(beta))
    volume = 0.5 * width * depth**2 * cot + (math.pi / 6.0) * depth**3 * cot**2
    weight = soil["bulk_density_kg_m3"] * soil.get("gravity_m_s2", GRAVITY) * volume
    angle = beta - phi if law == "active" else beta + phi
    return weight * math.tan(math.radians(angle))


def max_force(soil: dict, depth: float, width: float) -> float:
    """The active-wedge crescent force maximized over the full 0.1-degree scan."""
    lo, hi = scan_bounds(soil, "active", None, None)
    count = int(math.floor((hi - lo) / BETA_STEP_DEG + 1e-9)) + 1
    return max(
        crescent_force(soil, "active", depth, width, lo + BETA_STEP_DEG * k)
        for k in range(count)
    )


def _crescent_op(rng: random.Random, preset: str, law: str, bounded: bool, curve: bool) -> dict:
    soil = SOILS[preset]
    depth = round(rng.uniform(0.05, 0.6), 3)
    width = round(rng.uniform(0.008, 0.05), 3)
    beta_min = beta_max = None
    lo, hi = scan_bounds(soil, law, None, None)
    if bounded:
        span = hi - lo
        beta_min = round(lo + rng.uniform(0.05, 0.35) * span, 2)
        beta_max = round(beta_min + rng.uniform(0.3, 0.6) * span, 2)
        if beta_max >= hi:
            beta_max = None
    argv = ["crescent", "--depth", f"{depth}", "--width", f"{width}", "--soil", preset,
            "--law", law]
    if beta_min is not None:
        argv += ["--beta-min", f"{beta_min}"]
    if beta_max is not None:
        argv += ["--beta-max", f"{beta_max}"]
    if curve:
        argv += ["--out", "{out}/curve.csv"]
    return {
        "kind": "crescent",
        "argv": argv,
        "expect": {
            "soil": soil, "law": law, "depth": depth, "width": width,
            "bounds": scan_bounds(soil, law, beta_min, beta_max), "curve": curve,
        },
    }


# --- design ------------------------------------------------------------------


def _range(start: float, step: float, count: int) -> dict:
    # A stop half a step past the last value keeps the point count exact.
    return {"start": start, "stop": round(start + (count - 0.5) * step, 6), "step": step}


def _range_values(entry: dict) -> list[float]:
    count = int(math.floor((entry["stop"] - entry["start"]) / entry["step"] + 1e-9)) + 1
    return [entry["start"] + i * entry["step"] for i in range(count)]


def design_space(path: Path, ranges: dict) -> dict:
    """Write a design-space file; return its size and invalid-point count."""
    _write(path, json.dumps(ranges, indent=1) + "\n")
    values = {name: _range_values(entry) for name, entry in ranges.items()}
    size = math.prod(len(v) for v in values.values())
    per_geometry = len(values["initial_rake_deg"]) * len(values["diameter_mm"])
    invalid = per_geometry * sum(
        1
        for r in values["radius_m"]
        for h in values["hinge_height_m"]
        for z in values["design_depth_m"]
        if not (r > h > 0 and 0 < z <= r - h)
    )
    return {"size": size, "invalid": invalid}


def _design_op(
    space: Path,
    grid: dict,
    constraints: Path | None,
    limits: dict,
    soil: str,
    top: int | None,
    out: bool,
) -> dict:
    argv = ["design", "--space", space.name, "--soil", soil]
    if constraints is not None:
        argv += ["--constraints", constraints.name]
    if top is not None:
        argv += ["--top", str(top)]
    if out:
        argv += ["--out", "{out}/ranked.csv"]
    return {"kind": "design", "argv": argv, "expect": dict(grid, limits=limits, top=top, out=out)}


def _constraints(path: Path, data: dict) -> dict:
    _write(path, json.dumps(data) + "\n")
    return {key: data.get(key, default) for key, default in DEFAULT_LIMITS.items()}


# --- simulate ----------------------------------------------------------------


def _simulate_op(
    rng: random.Random,
    workdir: Path,
    name: str,
    design: dict,
    soil_spec: str,
    soil: dict,
    drafts: int,
    overshoot: float,
    k0: float | None,
) -> dict:
    """A schedule rising from 0 to ``overshoot`` times the design-depth crescent maximum."""
    design_path = workdir / f"{name}.design.json"
    _write(design_path, json.dumps(design) + "\n")
    top = overshoot * max_force(soil, design["design_depth_m"], design["diameter_mm"] / 1000)
    schedule = [
        round(top * (i + rng.random()) / drafts, 4) if i else 0.0 for i in range(drafts)
    ]
    schedule_path = workdir / f"{name}.drafts.csv"
    _write(schedule_path, "draft_N\n" + "".join(f"{d}\n" for d in schedule))
    argv = ["simulate", "--design", design_path.name, "--soil", soil_spec,
            "--draft-schedule", schedule_path.name, "--out", "{out}/sim.csv"]
    if k0 is not None:
        argv += ["--k0", f"{k0:g}"]
    return {
        "kind": "simulate",
        "argv": argv,
        "expect": {"design": design, "drafts": schedule},
    }


def _soil_file(rng: random.Random, path: Path) -> dict:
    soil = {
        "bulk_density_kg_m3": round(rng.uniform(1550.0, 1850.0), 1),
        # A narrow range keeps the length of the shear-angle scan steady.
        "friction_angle_deg": round(rng.uniform(34.5, 35.5), 2),
        "moisture_label": "dry",
        "gravity_m_s2": GRAVITY,
    }
    _write(path, json.dumps(soil) + "\n")
    return soil


def _random_design(rng: random.Random) -> dict:
    radius = round(rng.uniform(1.0, 1.6), 3)
    hinge = round(rng.uniform(0.07, 0.10), 3)
    return {
        "radius_m": radius,
        "hinge_height_m": hinge,
        "initial_rake_deg": round(rng.uniform(35.0, 55.0), 1),
        "diameter_mm": float(rng.randint(12, 40)),
        "design_depth_m": round(rng.uniform(0.25, 0.5), 3),
        "tip_mass_kg": round(rng.uniform(0.0, 3.0), 2),
    }


# --- workloads ---------------------------------------------------------------


def field_session(rng: random.Random, workdir: Path) -> list[dict]:
    """A day of mixed realistic-size invocations, in seeded order."""
    ops: list[dict] = []

    # Flags follow the sorted lengths, not the seed, so every seed has the
    # same mix of sizes and flags; the final shuffle sets the order.
    lengths = [20 + round(180 * i / 59) for i in range(60)]
    for i, steps in enumerate(lengths):
        log = workdir / f"log{i:02d}.csv"
        expect = trial_log(rng, log, steps, steps // 60, rng.uniform(0.5, 2.0))
        ops.append(_analyze_op(log, expect, series=i % 2 == 0, push=2.0 if i % 3 else None))

    for i in range(80):
        preset = ("preset:dry", "preset:moist")[i % 2]
        law = ("active", "passive")[(i // 2) % 2]
        ops.append(_crescent_op(rng, preset, law, bounded=i % 4 == 3, curve=i % 8 != 7))

    for i in range(20):
        ranges = {
            "radius_m": _range(round(rng.uniform(1.1, 1.3), 3), 0.2, 4),
            "hinge_height_m": _range(round(rng.uniform(0.07, 0.09), 3), 0.01, 2),
            "initial_rake_deg": _range(round(rng.uniform(18.0, 25.0), 1), 5.0, 5),
            "diameter_mm": _range(21.0, 14.0, 3),
            "design_depth_m": _range(round(rng.uniform(0.25, 0.35), 3), 0.1, 3),
        }
        grid = design_space(workdir / f"space{i:02d}.json", ranges)
        constraints, limits = None, DEFAULT_LIMITS
        if i % 2:
            constraints = workdir / f"constraints{i:02d}.json"
            limits = _constraints(constraints, {
                "max_thrust_deg": round(rng.uniform(22.0, 28.0), 1),
                "require_lateral_at_design_depth": i % 4 == 1,
            })
        ops.append(_design_op(
            workdir / f"space{i:02d}.json", grid, constraints, limits,
            soil=("preset:dry", "preset:moist")[i % 2],
            top=5 if i % 4 == 2 else None,
            out=i % 3 != 0,
        ))

    soil_path = workdir / "soil.json"
    custom = _soil_file(rng, soil_path)
    specs = [("preset:dry", SOILS["preset:dry"]), ("preset:moist", SOILS["preset:moist"]),
             (soil_path.name, custom)]
    lengths = [10 + round(30 * i / 39) for i in range(40)]
    for i, drafts in enumerate(lengths):
        spec, soil = specs[i % 3]
        ops.append(_simulate_op(
            rng, workdir, f"sim{i:02d}", _random_design(rng), spec, soil, drafts,
            overshoot=1.3, k0=None if i % 4 else 20.0,
        ))

    rng.shuffle(ops)
    return ops


def analyze_long_log(rng: random.Random, workdir: Path) -> list[dict]:
    """One long trial whose tip-applied lift exceeds the vehicle weight.

    Surface application (kappa = 0) keeps the lift below the weight, so
    the report's kappa comes from the bisection, strictly inside (0, 1).
    """
    log = workdir / "long.csv"
    expect = trial_log(rng, log, LONG_LOG_STEPS, LONG_LOG_STEPS // 200, lift_over_weight=2.5)
    return [_analyze_op(log, dict(expect, kappa_interior=True), series=True, push=2.0)]


def design_grid(rng: random.Random, workdir: Path) -> list[dict]:
    """A large grid with unreachable design depths and the lateral-regime check."""
    # The radius offset keeps r - h - z at least 1 mm away from 0, so which
    # points are invalid never hangs on rounding.  Small offsets elsewhere
    # keep the feasible count, and with it the work, within a few percent.
    r_off = rng.choice((0.0012, 0.0022, 0.0034, 0.0046, 0.0061, 0.0073))
    ranges = {
        "radius_m": _range(round(0.8 + r_off, 4), 0.1, 13),
        "hinge_height_m": _range(0.05, 0.01, 6),
        "initial_rake_deg": _range(round(rng.uniform(20.0, 20.5), 2), 4.5, 11),
        "diameter_mm": _range(round(rng.uniform(10.0, 10.5), 2), 5.0, 8),
        "design_depth_m": _range(0.2, 0.04, 20),
    }
    grid = design_space(workdir / "space.json", ranges)
    constraints = workdir / "constraints.json"
    limits = _constraints(constraints, {"require_lateral_at_design_depth": True})
    return [_design_op(workdir / "space.json", grid, constraints, limits,
                       soil="preset:dry", top=None, out=True)]


def simulate_schedules(rng: random.Random, workdir: Path) -> list[dict]:
    """Long schedules past the crescent maximum, one per regime case."""
    def field_design(**changes) -> dict:
        design = {"radius_m": 1.34, "hinge_height_m": 0.09, "initial_rake_deg": 45.0,
                  "diameter_mm": 21.0, "design_depth_m": 0.5, "tip_mass_kg": 2.9}
        design.update(changes)
        for key in ("radius_m", "hinge_height_m", "design_depth_m"):
            design[key] = round(design[key] * rng.uniform(0.98, 1.02), 4)
        return design

    soil_path = workdir / "soil.json"
    custom = _soil_file(rng, soil_path)
    cases = [
        # Lateral regime reachable at the default k0.
        ("reachable", field_design(), "preset:dry", SOILS["preset:dry"], None),
        # Critical depth beyond the design depth: the top drafts go unsustained.
        ("unreachable", field_design(), "preset:dry", SOILS["preset:dry"], 40.0),
        ("moist", field_design(diameter_mm=25.0), "preset:moist", SOILS["preset:moist"], None),
        ("custom", field_design(radius_m=1.0, design_depth_m=0.35, diameter_mm=16.0),
         soil_path.name, custom, 30.0),
    ]
    return [
        _simulate_op(rng, workdir, name, design, spec, soil, SCHEDULE_DRAFTS,
                     overshoot=1.5, k0=k0)
        for name, design, spec, soil, k0 in cases
    ]


GENERATORS = {
    "field-session": field_session,
    "analyze-long-log": analyze_long_log,
    "design-grid": design_grid,
    "simulate-schedules": simulate_schedules,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](_rng(workload, seed), workdir)
