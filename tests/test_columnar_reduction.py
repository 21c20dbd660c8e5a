"""The array reduction against per-step loops, bit for bit.

The reference below is the step-by-step reduction written with Python
floats and ``math``: derive, detect landslides, filter, and the work
integral.  ``derive_series`` -> ``detect_landslides`` ->
``landslide_filter`` must give the same bits in every column.  Columns
are compared with ``tobytes()`` so that -0.0 and 0.0 count as different.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiketrac import (
    PulleyRig,
    TrialLog,
    TrialMetadata,
    TrialStep,
    derive_series,
    detect_landslides,
    landslide_filter,
    thrust_angle,
)


def reference_derive(log: TrialLog) -> dict[str, list]:
    meta = log.metadata
    design = meta.spike_design()
    rig = PulleyRig(friction_coefficient=meta.pulley_mu)
    r, h = design.radius_m, design.hinge_height_m
    gamma0 = thrust_angle(design, 0.0)
    columns = {name: [] for name in (
        "draft_n", "depth_m", "thrust_deg", "lift_n", "tip_x_m", "motion_m", "airborne",
    )}
    prev = None
    tip_x = 0.0
    for step in log.steps:
        depth = r * math.sin(math.radians(step.incl_deg)) - h
        airborne = depth < -1e-12
        draft = step.basket_kg * rig.gravity_m_s2 * (1.0 - rig.friction_coefficient)
        if step.incl_deg < 90.0:
            lift = draft * math.tan(math.radians(step.incl_deg))
        else:
            lift = math.inf
        if prev is not None:
            advance = (step.motion_mm - prev.motion_mm) / 1000.0
            start = math.radians(max(prev.incl_deg, gamma0))
            end = math.radians(max(step.incl_deg, gamma0))
            tip_x += advance - r * (math.cos(start) - math.cos(end))
        columns["draft_n"].append(draft)
        columns["depth_m"].append(0.0 if airborne else max(depth, 0.0))
        columns["thrust_deg"].append(step.incl_deg)
        columns["lift_n"].append(lift)
        columns["tip_x_m"].append(tip_x)
        columns["motion_m"].append(step.motion_mm / 1000.0)
        columns["airborne"].append(airborne)
        prev = step
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


def same_bits(actual: np.ndarray, expected: list, dtype) -> bool:
    return actual.dtype == dtype and actual.tobytes() == np.array(expected, dtype).tobytes()


# Repeated values, drops in inclination, airborne poses (below the
# surface-contact angle) and a vertical arm all occur in field logs.
_INCREMENTS = st.just(0.0) | st.floats(0.0, 60.0)
_INCLINATIONS = st.sampled_from([0.0, 2.0, 90.0]) | st.floats(0.0, 90.0)


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
    steps = []
    basket = motion = 0.0
    for index in range(draw(st.integers(0, 25))):
        basket += draw(_INCREMENTS)
        motion += draw(_INCREMENTS)
        steps.append(TrialStep(index, basket, motion, draw(_INCLINATIONS)))
    return TrialLog(metadata=meta, steps=tuple(steps))


# A -0.0 first work term (the tip swings back at zero draft), a motion
# jump of exactly 0.01 m at step 2 and a vertical arm from step 3 on.
_EDGE_LOG = TrialLog(
    metadata=TrialMetadata("moist", 21.0, 1.34, 0.09, 45.0, 30.0, 0.23),
    steps=(
        TrialStep(0, 0.0, 0.0, 5.0),
        TrialStep(1, 0.0, 0.0, 6.0),
        TrialStep(2, 0.0, 10.0, 2.0),
        TrialStep(3, 10.0, 20.0, 90.0),
        TrialStep(4, 10.0, 24.0, 90.0),
        TrialStep(5, 10.0, 26.0, 90.0),
    ),
)


# An infinite lift interpolates to nan, silently in the loops.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
    assert filtered.events == events
