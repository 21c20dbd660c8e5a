"""The array reduction against per-step loops, bit for bit.

The reference below is the step-by-step reduction written with Python
floats and ``math``: derive, detect landslides, filter, and the work
integral.  ``derive_series`` -> ``detect_landslides`` ->
``landslide_filter`` must give the same bits in every column.  Columns
are compared with ``tobytes()`` so that -0.0 and 0.0 count as different.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trial_data import log_of_rows, same_bits

from spiketrac import (
    TrialLog,
    TrialMetadata,
    derive_series,
    detect_landslides,
    landslide_filter,
    thrust_angle,
)


def reference_derive(log: TrialLog) -> dict[str, list]:
    meta = log.metadata
    design = meta.spike_design
    r, h = design.radius_m, design.hinge_height_m
    gamma0 = thrust_angle(design, 0.0)
    columns = {name: [] for name in (
        "draft_n", "depth_m", "thrust_deg", "lift_n", "tip_x_m", "motion_m", "airborne",
    )}
    prev = None
    tip_x = 0.0
    for basket_kg, motion_mm, incl_deg in zip(
        log.basket_kg.tolist(), log.motion_mm.tolist(), log.incl_deg.tolist()
    ):
        depth = r * math.sin(math.radians(incl_deg)) - h
        airborne = depth < -1e-12
        draft = basket_kg * 9.81 * (1.0 - meta.pulley_mu)
        lift = draft * math.tan(math.radians(incl_deg))
        if prev is not None:
            advance = (motion_mm - prev[0]) / 1000.0
            start = math.radians(max(prev[1], gamma0))
            end = math.radians(max(incl_deg, gamma0))
            tip_x += advance - r * (math.cos(start) - math.cos(end))
        columns["draft_n"].append(draft)
        columns["depth_m"].append(0.0 if airborne else max(depth, 0.0))
        columns["thrust_deg"].append(incl_deg)
        columns["lift_n"].append(lift)
        columns["tip_x_m"].append(tip_x)
        columns["motion_m"].append(motion_mm / 1000.0)
        columns["airborne"].append(airborne)
        prev = motion_mm, incl_deg
    work = []
    total = 0.0
    draft, xs = columns["draft_n"], columns["tip_x_m"]
    for i in range(len(draft)):
        if i > 0:
            total += 0.5 * (draft[i] + draft[i - 1]) * (xs[i] - xs[i - 1])
        work.append(total)
    columns["cumulative_work_j"] = work
    return columns


def reference_events(columns: dict[str, list], depth_jump: float, motion_jump: float) -> list[int]:
    depth, motion = columns["depth_m"], columns["motion_m"]
    return [
        i for i in range(1, len(depth))
        if depth[i] - depth[i - 1] >= depth_jump or motion[i] - motion[i - 1] >= motion_jump
    ]


def reference_filter(columns: dict[str, list], events: list[int]) -> dict[str, list]:
    out = {name: list(columns[name]) for name in ("depth_m", "thrust_deg", "lift_n")}
    n = len(columns["draft_n"])
    if n < 3:
        return out
    draft = columns["draft_n"]
    retained = sorted(set(events) | {0, n - 1})
    for left, right in zip(retained, retained[1:]):
        draft_span = draft[right] - draft[left]
        for j in range(left + 1, right):
            if draft_span > 0:
                t = (draft[j] - draft[left]) / draft_span
            else:
                t = (j - left) / (right - left)
            for column in out.values():
                column[j] = column[left] + t * (column[right] - column[left])
    return out


# Repeated values, drops in inclination, airborne poses (below the
# surface-contact angle) and a near-vertical arm all occur in field logs.
# A vertical arm is an error (tests/test_trials.py).
NEAR_VERTICAL = math.nextafter(90.0, 0.0)
_INCREMENTS = st.just(0.0) | st.floats(0.0, 60.0)
_INCLINATIONS = st.sampled_from([0.0, 2.0, NEAR_VERTICAL]) | st.floats(0.0, NEAR_VERTICAL)


@st.composite
def trial_logs(draw) -> TrialLog:
    radius = draw(st.sampled_from([0.58, 1.34]) | st.floats(0.2, 3.0))
    meta = TrialMetadata(
        site="moist",
        diameter_mm=21.0,
        radius_m=radius,
        hinge_m=radius * draw(st.floats(0.02, 0.5)),
        rake0_deg=45.0,
        vehicle_kg=30.0,
        pulley_mu=draw(st.sampled_from([0.0, 0.23])),
    )
    rows = []
    basket = motion = 0.0
    for index in range(draw(st.integers(0, 25))):
        basket += draw(_INCREMENTS)
        motion += draw(_INCREMENTS)
        rows.append((index, basket, motion, draw(_INCLINATIONS)))
    return log_of_rows(meta, rows)


# A -0.0 first work term (the tip swings back at zero draft), a motion
# jump of exactly 0.01 m at step 2 and a near-vertical arm from step 3 on.
_EDGE_LOG = log_of_rows(
    TrialMetadata("moist", 21.0, 1.34, 0.09, 45.0, 30.0, 0.23),
    [
        (0, 0.0, 0.0, 5.0),
        (1, 0.0, 0.0, 6.0),
        (2, 0.0, 10.0, 2.0),
        (3, 10.0, 20.0, NEAR_VERTICAL),
        (4, 10.0, 24.0, NEAR_VERTICAL),
        (5, 10.0, 26.0, NEAR_VERTICAL),
    ],
)


@settings(max_examples=300, deadline=None)
@given(
    log=trial_logs(),
    depth_jump=st.sampled_from([0.01, 1e-9]) | st.floats(1e-6, 0.5),
    motion_jump=st.sampled_from([0.01, 1e-9]) | st.floats(1e-6, 0.05),
)
@example(log=_EDGE_LOG, depth_jump=0.01, motion_jump=0.01)
@example(log=_EDGE_LOG, depth_jump=1.0, motion_jump=1.0)
def test_array_reduction_matches_per_step_loops(log, depth_jump, motion_jump):
    expected = reference_derive(log)
    series = derive_series(log)
    for name, column in expected.items():
        dtype = bool if name == "airborne" else np.float64
        assert same_bits(getattr(series, name), column, dtype), name

    events = detect_landslides(series, depth_jump, motion_jump)
    assert events == reference_events(expected, depth_jump, motion_jump)
    assert all(type(event) is int for event in events)

    filtered = landslide_filter(series, events)
    for name, column in reference_filter(expected, events).items():
        assert same_bits(getattr(filtered, name), column, np.float64), name
    for name in ("draft_n", "tip_x_m", "cumulative_work_j", "motion_m", "airborne"):
        assert getattr(filtered, name) is getattr(series, name)
