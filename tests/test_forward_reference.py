"""The forward model against the per-draft loop it replaced, bit for bit.

The reference below scans the crescent force at design depth for every
positive draft, bisects it over the whole design depth, and finds the
lateral onset with a bisection of its own.  ``predict_series`` scans the
crescent force once, at the top of the crescent regime, and classifies a
draft above it without a bisection.  That is exact because the maximized
crescent force never decreases with depth, which the last test checks.
It bisects the other drafts in lock step over one ``CrescentKernel``,
whose peaks must equal ``max_crescent_force``'s maxima bit for bit, and
whose windowed peaks must equal its full rows.  The reference's onset
walks its 1,000 samples one at a time; ``lateral_onset_depth`` computes
them on arrays, and must agree on onsets within a few ulps of a sample.
Every field of every row must come out the same, the floats compared
through ``float.hex`` so that -0.0 and 0.0 count as different.  Where
the reference reaches radius - hinge height, or a depth whose thrust
angle rounds to 90 degrees, the arm stands vertical and
``predict_series`` must raise, naming that draft.
"""

import math
import random
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiketrac import (
    DRY_SAND,
    MOIST_SAND,
    CriticalDepthModel,
    FailureMode,
    ForceLaw,
    SoilProperties,
    SpikeDesign,
    critical_depth,
    lateral_onset_depth,
    lifting_force,
    max_crescent_force,
    predict_series,
    rake_angle,
    thrust_angle,
)
from spiketrac import simulate
from spiketrac.soilmech import CrescentKernel

TOLERANCE_M = 1e-6


def reference_onset(design: SpikeDesign, cd_model: CriticalDepthModel) -> float | None:
    width = design.width_m

    def excess(z: float) -> float:
        return z - critical_depth(width, rake_angle(design, z), cd_model)

    samples = 1000
    z_max = design.design_depth_m
    if excess(0.0) >= 0:
        return 0.0
    prev_z = 0.0
    for i in range(1, samples + 1):
        z = min(z_max * i / samples, design.max_depth_m)
        if excess(z) >= 0:
            lo, hi = prev_z, z
            while hi - lo > TOLERANCE_M:
                mid = 0.5 * (lo + hi)
                if excess(mid) >= 0:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_z = z
    return None


def reference_equilibrium(design: SpikeDesign, soil: SoilProperties, draft: float) -> float | None:
    if draft <= 0:
        return 0.0

    def reaction(z: float) -> float:
        if z <= 0:
            return 0.0
        return max_crescent_force(z, design.width_m, soil).force_n

    z_max = design.design_depth_m
    if reaction(z_max) < draft:
        return None
    lo, hi = 0.0, z_max
    while hi - lo > TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        if reaction(mid) >= draft:
            hi = mid
        else:
            lo = mid
    return hi


def reference_series(design, soil, drafts, cd_model) -> tuple[list[tuple], float | None]:
    """The predicted rows, up to the draft that stands the arm vertical, and that draft.

    A row holds draft, depth, regime, sustained, thrust, rake and lift.
    """
    z_lateral = reference_onset(design, cd_model)
    steps = []
    depth = 0.0
    for draft in drafts:
        z_eq = reference_equilibrium(design, soil, draft)
        if z_eq is not None and (z_lateral is None or z_eq <= z_lateral):
            target, regime, sustained = z_eq, FailureMode.CRESCENT, True
        elif z_lateral is not None:
            target, regime, sustained = z_lateral, FailureMode.LATERAL, True
        else:
            target, regime, sustained = design.design_depth_m, FailureMode.CRESCENT, False
        depth = max(depth, target)
        thrust = thrust_angle(design, depth)
        if depth >= design.max_depth_m or thrust >= 90.0:
            return steps, draft  # the arm stands vertical: no lift
        steps.append((draft, depth, regime, sustained, thrust, rake_angle(design, depth),
                      lifting_force(draft, thrust)))
    return steps, None


def bits(rows) -> list[tuple]:
    """Each row with its floats as ``float.hex``; ``predict_series`` rows come from ``tolist``."""
    return [
        (*map(float.hex, (draft, depth)), regime, sustained, *map(float.hex, (thrust, rake, lift)))
        for draft, depth, regime, sustained, thrust, rake, lift in rows
    ]


def assert_matches_reference(design, soil, drafts, cd_model) -> None:
    """``predict_series`` gives the reference's steps, or raises where the reference stops."""
    steps, vertical = reference_series(design, soil, drafts, cd_model)
    if vertical is None:
        assert bits(predict_series(design, soil, drafts, cd_model).tolist()) == bits(steps)
    else:
        with pytest.raises(ValueError, match=rf"^draft_n \({vertical!r}\) stands the arm vertical"):
            predict_series(design, soil, drafts, cd_model)


@st.composite
def designs(draw) -> SpikeDesign:
    radius = draw(st.floats(0.3, 2.0))
    hinge = radius * draw(st.floats(0.05, 0.5))
    return SpikeDesign(
        radius_m=radius,
        hinge_height_m=hinge,
        initial_rake_deg=draw(st.floats(5.0, 85.0)),
        diameter_mm=draw(st.floats(5.0, 80.0)),
        design_depth_m=(radius - hinge) * draw(st.floats(0.05, 1.0)),
    )


soils = st.builds(
    SoilProperties,
    bulk_density_kg_m3=st.floats(800.0, 2500.0),
    friction_angle_deg=st.floats(15.0, 55.0),
    gravity_m_s2=st.floats(1.0, 12.0),
)
cd_models = st.builds(CriticalDepthModel, k0=st.floats(0.5, 60.0), k1=st.floats(0.0, 3.0))

# A surface onset (the golden ``simulate-surface`` design), no onset, and
# no onset with a design depth of radius - hinge height.
SURFACE = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=20.0,
                      diameter_mm=21.0, design_depth_m=0.50)
THICK = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
                    diameter_mm=200.0, design_depth_m=0.50)
VERTICAL = SpikeDesign(radius_m=1.0, hinge_height_m=0.1, design_depth_m=0.9)
# A design depth one float short of radius - hinge height, where the
# thrust angle already rounds to 90 degrees.
ALMOST_VERTICAL = SpikeDesign(radius_m=1.0, hinge_height_m=0.5, initial_rake_deg=5.0,
                              diameter_mm=63.0, design_depth_m=math.nextafter(0.5, 0.0))


def schedule(design, soil, cd_model, fractions) -> list[float]:
    """0, each capacity and one float either side of it, and fractions of the deeper one."""
    onset = reference_onset(design, cd_model)
    at_design = max_crescent_force(design.design_depth_m, design.width_m, soil).force_n
    capacities = [at_design]
    if onset is not None:
        capacities.append(max_crescent_force(onset, design.width_m, soil).force_n)
    drafts = [0.0, *(fraction * at_design for fraction in fractions)]
    for capacity in capacities:
        drafts += [math.nextafter(capacity, -math.inf), capacity, math.nextafter(capacity, math.inf)]
    return sorted(draft for draft in drafts if draft >= 0)


@settings(max_examples=40, deadline=None)
@given(
    design=designs(),
    soil=soils,
    cd_model=cd_models,
    fractions=st.lists(st.floats(0.0, 1.5), max_size=4),
)
@example(design=SURFACE, soil=DRY_SAND, cd_model=CriticalDepthModel(k1=2.0), fractions=[0.5])
@example(design=THICK, soil=DRY_SAND, cd_model=CriticalDepthModel(), fractions=[0.5, 1.2])
@example(design=VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=1000.0), fractions=[])
def test_predict_series_matches_per_draft_loop(design, soil, cd_model, fractions):
    drafts = schedule(design, soil, cd_model, fractions)
    assert repr(lateral_onset_depth(design, cd_model)) == repr(reference_onset(design, cd_model))
    assert_matches_reference(design, soil, drafts, cd_model)


def test_a_lift_past_the_float_range_is_inf_without_a_warning():
    steep = SpikeDesign(radius_m=1.0, hinge_height_m=0.9, design_depth_m=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = predict_series(steep, DRY_SAND, [1.0, 1e308])
    assert steps.lift_n.tolist() == [lifting_force(1.0, steps.thrust_deg[0]), math.inf]
    assert lifting_force(1e308, steps.thrust_deg[1]) == math.inf


@pytest.mark.parametrize("drafts", [[], [0.0], [0.0] * 5])
def test_empty_and_all_zero_schedules_scan_nothing(monkeypatch, drafts):
    def no_scan(*args):
        raise AssertionError("an all-zero schedule scans nothing")

    monkeypatch.setattr(simulate, "max_crescent_force", no_scan)
    steps = predict_series(SURFACE, DRY_SAND, drafts)
    assert isinstance(steps, np.recarray)
    assert steps.dtype == simulate._STEP_DTYPE
    assert len(steps) == len(drafts)
    assert steps.regime.tolist() == [FailureMode.CRESCENT] * len(drafts)
    assert steps.sustained.all()
    assert bits(steps.tolist()) == bits(reference_series(SURFACE, DRY_SAND, drafts,
                                                         CriticalDepthModel())[0])


def long_schedule(design, soil, cd_model, rng: random.Random, size: int = 300) -> list[float]:
    """``size`` drafts up to 1.5 times the deeper capacity, a tenth of them repeated.

    Every capacity and the floats either side of it come twice.
    """
    anchors = schedule(design, soil, cd_model, []) * 2
    scale = max(anchors)
    drawn = [rng.uniform(0.0, 1.5) * scale for _ in range(size - len(anchors) - size // 10)]
    return sorted(anchors + drawn + rng.choices(drawn, k=size // 10))


@settings(max_examples=10, deadline=None)
@given(design=designs(), soil=soils, cd_model=cd_models, rng=st.randoms(use_true_random=False))
@example(design=SURFACE, soil=DRY_SAND, cd_model=CriticalDepthModel(k1=2.0), rng=random.Random(1))
@example(design=THICK, soil=DRY_SAND, cd_model=CriticalDepthModel(), rng=random.Random(2))
@example(design=VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=1000.0), rng=random.Random(3))
@example(design=ALMOST_VERTICAL, soil=DRY_SAND, cd_model=CriticalDepthModel(k0=8.0, k1=0.0),
         rng=random.Random(4))
def test_long_schedules_match_per_draft_loop(design, soil, cd_model, rng):
    drafts = long_schedule(design, soil, cd_model, rng)
    assert len(drafts) == 300
    assert_matches_reference(design, soil, drafts, cd_model)


@settings(max_examples=20, deadline=None)
@given(design=designs(), soil=soils, cd_model=cd_models, rng=st.randoms(use_true_random=False))
@example(design=SURFACE, soil=DRY_SAND, cd_model=CriticalDepthModel(k1=2.0), rng=random.Random(1))
@example(design=THICK, soil=DRY_SAND, cd_model=CriticalDepthModel(), rng=random.Random(2))
def test_lift_is_lifting_force_row_by_row(design, soil, cd_model, rng):
    drafts = long_schedule(design, soil, cd_model, rng)
    try:
        steps = predict_series(design, soil, drafts, cd_model)
    except ValueError as exc:
        assert "stands the arm vertical" in str(exc)
        return
    assert len(steps) == len(drafts)
    for draft, thrust, lift in zip(*(steps[name].tolist() for name in
                                     ("draft_n", "thrust_deg", "lift_n"))):
        assert lift.hex() == lifting_force(draft, thrust).hex()


# A spike 10**6 m wide in soil so dense that the crescent force is finite at
# the lateral onset (0.1106 m) but overflows at 0.25 m, the first midpoint
# of every bisection over the 0.5 m design depth.
WIDE = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
                   diameter_mm=1e9, design_depth_m=0.50)
WIDE_ONSET = CriticalDepthModel(k0=1e-7)
DENSE = SoilProperties(bulk_density_kg_m3=1e303, friction_angle_deg=30.0)
DENSER = SoilProperties(bulk_density_kg_m3=1e305, friction_angle_deg=30.0)
OVERFLOW = r"^crescent force overflows at depth_m=0\.25, width_m=1000000\.0$"
# In DENSER soil the capacity scan itself overflows, at the lateral onset.
ONSET_OVERFLOW = r"^crescent force overflows at depth_m=0\.110572265625, width_m=1000000\.0$"
VERTICAL_NO_ONSET = CriticalDepthModel(k0=1000.0)
NEGATIVE = r"^draft_n \(-1\.0\) must be >= 0$"
DECREASED = r"^draft_n \(1\.0\) decreased \(previous "
STANDS = r"^draft_n \(2000\.0\) stands the arm vertical at depth_m=0\.9: the lift is unbounded$"
NOT_FINITE = r"^draft_n \(nan\) must be finite$"
ALMOST_STANDS = r"^draft_n \(5000\.0\) stands the arm vertical at depth_m=0\.49999999999999994: "


def test_error_examples_hold():
    assert thrust_angle(ALMOST_VERTICAL, ALMOST_VERTICAL.design_depth_m) == 90.0
    assert lateral_onset_depth(WIDE, WIDE_ONSET) == 0.110572265625
    assert math.isfinite(max_crescent_force(0.110572265625, WIDE.width_m, DENSE).force_n)
    with pytest.raises(ValueError, match=OVERFLOW):
        max_crescent_force(0.25, WIDE.width_m, DENSE)
    with pytest.raises(ValueError, match=ONSET_OVERFLOW):
        max_crescent_force(0.110572265625, WIDE.width_m, DENSER)
    assert max_crescent_force(0.9, VERTICAL.width_m, DRY_SAND).force_n < 2000.0
    assert lateral_onset_depth(ALMOST_VERTICAL, VERTICAL_NO_ONSET) is None
    depth = ALMOST_VERTICAL.design_depth_m
    assert depth < ALMOST_VERTICAL.max_depth_m
    assert max_crescent_force(depth, ALMOST_VERTICAL.width_m, DRY_SAND).force_n < 5000.0


NAN = math.nan


@pytest.mark.parametrize(
    ("design", "soil", "cd_model", "drafts", "message"),
    [
        # An overflow, then an invalid draft; and the reverse.
        (WIDE, DENSE, WIDE_ONSET, [0.0, 1e307, -1.0], OVERFLOW),
        (WIDE, DENSE, WIDE_ONSET, [1e307, 1.0], OVERFLOW),
        (WIDE, DENSE, WIDE_ONSET, [-1.0, 1e307], NEGATIVE),
        (WIDE, DENSE, WIDE_ONSET, [1e308, 1.0, 1e307], DECREASED),
        # Drafts past the capacity are not bisected; a later one is.
        (WIDE, DENSE, WIDE_ONSET, [1e308, 1e308, 1e307], r"^draft_n \(1e\+307\) decreased"),
        (WIDE, DENSE, WIDE_ONSET, [1e308], None),
        # An overflow comes before a later non-finite draft.
        (WIDE, DENSE, WIDE_ONSET, [1e307, NAN], OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [1.0], ONSET_OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [-1.0, 1.0], NEGATIVE),
        (WIDE, DENSE, WIDE_ONSET, [0.0, 1e307, math.inf], OVERFLOW),
        # The arm stands vertical, then an invalid draft; and the reverse.
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [0.0, 2000.0, -1.0], STANDS),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [2000.0, 1.0], STANDS),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [-1.0, 2000.0], NEGATIVE),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [5.0, 1.0, 2000.0], DECREASED),
        # A non-finite draft is not scanned or bisected: it comes before an
        # overflow, a capacity overflow and a vertical arm after it, and
        # before the negative and decreasing checks of its own draft.
        (WIDE, DENSE, WIDE_ONSET, [NAN], NOT_FINITE),
        (WIDE, DENSER, WIDE_ONSET, [NAN, 1.0], NOT_FINITE),
        (WIDE, DENSE, WIDE_ONSET, [0.0, math.inf, 1e307], r"^draft_n \(inf\) must be finite$"),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [5.0, -math.inf], r"^draft_n \(-inf\) must be"),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [NAN, 2000.0], NOT_FINITE),
        (VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [2000.0, NAN], STANDS),
        # The design depth is one float short of radius - hinge height, but
        # the thrust angle there rounds to 90 degrees: the arm stands vertical.
        (ALMOST_VERTICAL, DRY_SAND, VERTICAL_NO_ONSET, [0.0, 5000.0, NAN], ALMOST_STANDS),
        # Zero drafts before the capacity overflow need no scan and raise nothing.
        (WIDE, DENSER, WIDE_ONSET, [0.0, 0.0, 1.0], ONSET_OVERFLOW),
        (WIDE, DENSER, WIDE_ONSET, [0.0, 1.0, -1.0], ONSET_OVERFLOW),
    ],
)
def test_errors_come_in_draft_order(design, soil, cd_model, drafts, message):
    if message is None:
        assert [step.regime for step in predict_series(design, soil, drafts, cd_model)] == [
            FailureMode.LATERAL
        ]
        return
    with pytest.raises(ValueError, match=message):
        predict_series(design, soil, drafts, cd_model)


@settings(max_examples=300, deadline=None)
@given(
    depths=st.lists(st.floats(0.0, 50.0) | st.floats(0.0, 1e200), min_size=0, max_size=70),
    width=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300),
    soil=soils,
    law=st.sampled_from(ForceLaw),
)
@example(depths=[0.0, 1e154, 1e103, 0.3], width=0.021, soil=DRY_SAND, law=ForceLaw.ACTIVE_WEDGE)
def test_kernel_maxima_equal_max_crescent_force(depths, width, soil, law):
    kernel = CrescentKernel.scan(soil, law)
    peaks = kernel.peaks(depths, width, np.zeros(len(depths), np.intp))[0].tolist()
    assert len(peaks) == len(depths)
    for depth, peak in zip(depths, peaks):
        try:
            force = max_crescent_force(depth, width, soil, law).force_n
        except ValueError:
            assert not math.isfinite(peak)
        else:
            assert repr(peak) == repr(force)


DEPTH_EXTREMES = [0.0, 5e-324, 1e-160, 1e-100, 1e103, 1e154, 1e200]


@st.composite
def hinted_depths(draw, n: int) -> tuple[list[float], list[tuple[str, int]]]:
    """Depths, ordinary and extreme, each with a hint into a grid of ``n`` angles.

    A hint is ``("at", index)``: anywhere on the grid or at either end of
    it; or ``("near", offset)`` from the depth's own maximum.
    """
    depths = draw(st.lists(
        st.floats(0.0, 50.0) | st.floats(0.0, 1e200) | st.sampled_from(DEPTH_EXTREMES),
        min_size=1, max_size=40,
    ))
    hint = st.tuples(st.just("at"), st.integers(0, n - 1) | st.sampled_from([0, n - 1])) | (
        st.tuples(st.just("near"), st.integers(-30, 30))
    )
    return depths, draw(st.lists(hint, min_size=len(depths), max_size=len(depths)))


def assert_peaks_equal_full_rows(kernel, width, depths, hints) -> None:
    """``peaks`` gives its bits with all hints at angle 0, and each row's first maximizing index."""
    n = kernel.cot.size
    best = [int(np.argmax(kernel.forces(depth, width))) for depth in depths]
    at = [b + h if kind == "near" else h for b, (kind, h) in zip(best, hints)]
    peaks, index = kernel.peaks(depths, width, np.clip(at, 0, n - 1))
    at_zero, _ = kernel.peaks(depths, width, np.zeros(len(depths), np.intp))
    assert [repr(peak) for peak in peaks.tolist()] == [repr(peak) for peak in at_zero.tolist()]
    assert index.tolist() == best


@settings(max_examples=300, deadline=None)
@given(
    soil=soils | st.just(DENSE),
    width=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300),
    law=st.sampled_from(ForceLaw),
    data=st.data(),
)
def test_windowed_peaks_equal_full_rows(soil, width, law, data):
    """Random soils, widths, depths and hints; the passive law always takes full rows."""
    kernel = CrescentKernel.scan(soil, law)
    depths, hints = data.draw(hinted_depths(kernel.cot.size))
    assert_peaks_equal_full_rows(kernel, width, depths, hints)


TINY_WEIGHT = SoilProperties(bulk_density_kg_m3=1e-300, friction_angle_deg=30.0, gravity_m_s2=1.0)


@pytest.mark.parametrize(
    ("soil", "width", "depths", "hints"),
    [
        (DRY_SAND, 0.021, [0.0, 5e-324, 1e-160, 0.25, 0.25, 0.3, 1e154, 1e103],
         [("at", 0), ("at", -1), ("at", 0), ("near", 0), ("at", -1), ("near", -5), ("at", 0),
          ("at", -1)]),
        # The smallest angles overflow at this depth, but not the peak.
        (DRY_SAND, 0.021, [2e101], [("at", 149)]),
        # a cot + c cot^2 is subnormal, and rho g magnifies its rounding: a
        # force outside the window beats the window's peak.
        (DENSE, 1e-3, [3.7708660259934207e-160], [("at", 287)]),
        # A subnormal peak: its rounding does the same.
        (TINY_WEIGHT, 1e-3, [3.2471610924231986e-10], [("at", 240)]),
        # A grid of 14 angles, narrower than a window.
        (SoilProperties(1720.0, 88.5), 0.021, [0.3, 0.0, 1e154], [("at", 5), ("at", 0), ("at", -1)]),
    ],
    ids=["extremes", "row-overflows", "subnormal-sum", "subnormal-peak", "narrow-grid"],
)
def test_windows_that_are_not_exact_take_full_rows(soil, width, depths, hints):
    kernel = CrescentKernel.scan(soil)
    assert (soil.friction_angle_deg < 80) == (kernel.cot.size > 17)
    hints = [(kind, h % kernel.cot.size if kind == "at" else h) for kind, h in hints]
    assert_peaks_equal_full_rows(kernel, width, depths, hints)


def test_the_window_decides_most_bisection_steps(monkeypatch):
    """On a long schedule, each lane evaluates at most 4 depths, and full shear-angle
    rows stay under a tenth of the depths evaluated."""
    design = SpikeDesign(radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
                         diameter_mm=21.0, design_depth_m=0.5, tip_mass_kg=2.9)
    top = 1.5 * max_crescent_force(design.design_depth_m, design.width_m, DRY_SAND).force_n
    rng = random.Random(1)
    drafts = [round(top * (i + rng.random()) / 300, 4) if i else 0.0 for i in range(300)]
    counts = {"lanes": 0, "depths": 0, "full": 0}
    peaks, rows = CrescentKernel.peaks, CrescentKernel._rows
    equilibrium_depths = simulate._equilibrium_depths

    def counted_lanes(soil, width, drafts, depth):
        counts["lanes"] += len(drafts)
        return equilibrium_depths(soil, width, drafts, depth)

    def counted_peaks(kernel, depths, width, hints):
        counts["depths"] += len(depths)
        return peaks(kernel, depths, width, hints)

    def counted_rows(kernel, terms):
        counts["full"] += len(terms)
        return rows(kernel, terms)

    monkeypatch.setattr(CrescentKernel, "peaks", counted_peaks)
    monkeypatch.setattr(CrescentKernel, "_rows", counted_rows)
    monkeypatch.setattr(simulate, "_equilibrium_depths", counted_lanes)
    steps = predict_series(design, DRY_SAND, drafts, CriticalDepthModel(k0=40.0))
    assert not steps[-1].sustained
    assert counts["lanes"] > 150
    assert counts["depths"] <= 4 * counts["lanes"]
    assert counts["full"] < 0.1 * counts["depths"]


def reference_bisect(holds, lo: float, hi: float) -> float:
    """The scalar bisection each lane must reproduce: hi once [lo, hi] is within the tolerance."""
    while hi - lo > TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_lanes(soil, width, drafts, depth) -> tuple[list[float], list[float]]:
    """Each draft bisected alone over ``max_crescent_force``: its depth, and its overflow
    depth or nan, one per lane."""
    depths, overflows = [], []
    for draft in drafts:
        overflows.append(math.nan)

        def holds(z, draft=draft):
            try:
                return max_crescent_force(z, width, soil).force_n >= draft
            except ValueError:  # the maximum overflows: it carries the draft, and the lane stops
                overflows[-1] = z
                raise
        try:
            depths.append(reference_bisect(holds, 0.0, depth))
        except ValueError:
            depths.append(overflows[-1])
    return depths, overflows


def lane_bits(lanes) -> tuple[list[str], ...]:
    """Each per-lane column as ``float.hex``, nan included."""
    return tuple([z.hex() for z in np.asarray(column, dtype=float).tolist()] for column in lanes)


def assert_lanes_match(soil, width, drafts, depth) -> None:
    lanes = simulate._equilibrium_depths(soil, width, drafts, depth)
    assert lane_bits(lanes) == lane_bits(reference_lanes(soil, width, drafts, depth))


@st.composite
def equilibrium_lanes(draw) -> tuple[SoilProperties, float, list[float], float]:
    """A soil, ordinary or of density 1e-3..1e305, and distinct drafts up to 1e308.

    Most drafts are fractions of the maximum at the design depth, so most
    lanes end inside it; where that maximum overflows, they are fractions
    of 1e308, and lanes overflow on the way down.
    """
    density = draw(st.floats(800.0, 2500.0) | st.floats(-3.0, 305.0).map(lambda e: 10.0**e))
    soil = SoilProperties(density, draw(st.floats(15.0, 60.0)))
    width, depth = draw(st.floats(1e-3, 0.1)), draw(st.floats(1e-3, 3.0) | st.floats(3.0, 1e3))
    top = float(CrescentKernel.scan(soil).peaks([depth], width, np.zeros(1, np.intp))[0][0])
    scale = top if math.isfinite(top) else 1e308
    fractions = draw(st.lists(st.floats(1e-9, 1.5), min_size=1, max_size=8))
    extra = draw(st.lists(st.floats(0.0, 1e308, exclude_min=True), max_size=3))
    drafts = [min(f * scale, 1e308) for f in fractions] + extra
    return soil, width, list(dict.fromkeys(d for d in drafts if d > 0)) or [1.0], depth


@settings(max_examples=150, deadline=None)
@given(lanes=equilibrium_lanes())
@example(lanes=(DRY_SAND, 0.021, [0.547, 2.1805, 27.3173, 400.0], 0.5))
@example(lanes=(DENSER, 0.021, [1e300, 1e305, 1e307, 1e308], 8.0))
@example(lanes=(DENSE, 0.05, [1.0, 1e300, 1.5e308], 1e-3))
def test_equilibrium_depths_match_one_bisection_per_lane(lanes):
    assert_lanes_match(*lanes)


def test_an_overflowing_design_row_seeds_from_the_whole_grid(monkeypatch):
    """Over 8 m in DENSER soil the design-depth row overflows.  Each lane's
    first estimate is its least root over every angle, and an estimate past
    the design depth is skipped: each lane evaluates at most 4 depths, alone
    or together, and ends as before."""
    drafts = [1e300, 1e305, 1e307, 1e308]
    with pytest.raises(ValueError, match="overflows"):
        max_crescent_force(8.0, 0.021, DENSER)
    counted = []
    peaks = CrescentKernel.peaks

    def counted_peaks(kernel, depths, width, hints):
        counted[-1] += len(depths)
        return peaks(kernel, depths, width, hints)

    monkeypatch.setattr(CrescentKernel, "peaks", counted_peaks)
    for lanes in [[draft] for draft in drafts] + [drafts]:
        counted.append(0)
        assert_lanes_match(DENSER, 0.021, lanes, 8.0)
        assert counted[-1] <= 4 * len(lanes)


def test_lanes_overflow_where_the_maximum_does():
    # The maximum is finite at 4 m and overflows at 6 m, the second midpoint.
    drafts = [1e300, 1e306, 1e307, 1e308]
    depths, overflows = simulate._equilibrium_depths(DENSER, 0.021, drafts, 8.0)
    assert lane_bits([overflows]) == lane_bits([[math.nan, math.nan, 6.0, 6.0]])
    assert depths[1] < 4.0
    # Over 16 m the first midpoint, 8 m, overflows, and every lane stops
    # there, even one already known to be carried far shallower.
    _, overflows = simulate._equilibrium_depths(DENSER, 0.021, drafts, 16.0)
    assert overflows.tolist() == [8.0] * len(drafts)
    for depth in (8.0, 16.0):
        assert_lanes_match(DENSER, 0.021, drafts, depth)


@pytest.mark.parametrize("estimate", ["nan", "half", "double", "zero", "inf"])
def test_a_wrong_root_estimate_changes_only_the_evaluations(monkeypatch, estimate):
    soil, width, depth = MOIST_SAND, 0.025, 0.4969
    drafts = [0.547, 1.1198, 2.1805, 3.2784, 4.3619, 1e6]
    counted = []
    peaks = CrescentKernel.peaks

    def counted_peaks(kernel, depths, width, hints):
        counted[-1] += len(depths)
        return peaks(kernel, depths, width, hints)

    monkeypatch.setattr(CrescentKernel, "peaks", counted_peaks)
    counted.append(0)
    right = simulate._equilibrium_depths(soil, width, drafts, depth)
    wrong = {"nan": math.nan, "half": 0.5, "double": 2.0, "zero": 0.0, "inf": math.inf}[estimate]
    roots = simulate._cubic_roots
    if estimate in ("half", "double"):
        monkeypatch.setattr(simulate, "_cubic_roots", lambda a, b, q: wrong * roots(a, b, q))
    else:
        monkeypatch.setattr(simulate, "_cubic_roots", lambda a, b, q: np.full(np.shape(a), wrong))
    counted.append(0)
    assert lane_bits(simulate._equilibrium_depths(soil, width, drafts, depth)) == lane_bits(right)
    assert counted[1] > counted[0]
    assert_lanes_match(soil, width, drafts, depth)


def test_examples_cover_surface_onset_and_no_onset():
    assert lateral_onset_depth(SURFACE, CriticalDepthModel(k1=2.0)) == 0.0
    assert lateral_onset_depth(THICK) is None


def onset_near_sample(design: SpikeDesign, sample: int, k1: float, ulps: int) -> CriticalDepthModel:
    """A model whose critical depth at grid sample ``sample`` is that sample, moved by ``ulps``."""
    z = design.design_depth_m * sample / 1000
    stretch = 1.0 + k1 * (rake_angle(design, z) - 45.0) / 45.0
    k0 = z / (design.width_m * stretch)
    for _ in range(abs(ulps)):
        k0 = math.nextafter(k0, math.copysign(math.inf, ulps))
    return CriticalDepthModel(k0=k0, k1=k1)


@pytest.mark.parametrize("ulps", range(-3, 4))
@pytest.mark.parametrize("k1", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("sample", [1, 137, 500, 999, 1000])
@pytest.mark.parametrize("design", [
    SpikeDesign(radius_m=1.34),
    SpikeDesign(radius_m=0.61, hinge_height_m=0.07, diameter_mm=12.0, design_depth_m=0.37),
])
def test_onset_within_ulps_of_a_sample(design, sample, k1, ulps):
    cd_model = onset_near_sample(design, sample, k1, ulps)
    assert repr(lateral_onset_depth(design, cd_model)) == repr(reference_onset(design, cd_model))


# radius - hinge height is 0.9497, and 0.9497 * 1000 / 1000 rounds above it.
ROUNDS_PAST = SpikeDesign(radius_m=1.0, hinge_height_m=0.0503, design_depth_m=1.0 - 0.0503)


def test_last_sample_is_clamped_to_the_reachable_depth():
    assert ROUNDS_PAST.design_depth_m * 1000 / 1000 > ROUNDS_PAST.max_depth_m
    # No onset, one beyond the design depth, one between the last two
    # samples, one at the last and one before the last sample.
    last = CriticalDepthModel(k0=0.9496 / ROUNDS_PAST.width_m, k1=0.0)
    at_reach = CriticalDepthModel(k0=ROUNDS_PAST.max_depth_m / ROUNDS_PAST.width_m, k1=0.0)
    onsets = []
    for cd_model in (VERTICAL_NO_ONSET, CriticalDepthModel(k0=44.0), last, at_reach,
                     CriticalDepthModel()):
        onset = lateral_onset_depth(ROUNDS_PAST, cd_model)
        assert repr(onset) == repr(reference_onset(ROUNDS_PAST, cd_model))
        onsets.append(onset)
    assert onsets[:2] == [None, None]
    assert 0.9496 <= onsets[2] <= ROUNDS_PAST.max_depth_m
    assert onsets[3] == ROUNDS_PAST.max_depth_m
    assert onsets[4] < 0.9496
    # Without an onset, predict_series runs; a draft the crescent cannot
    # carry sinks the tip to the design depth, which stands the arm vertical.
    assert len(predict_series(ROUNDS_PAST, DRY_SAND, [0.0, 1.0], VERTICAL_NO_ONSET)) == 2
    assert_matches_reference(ROUNDS_PAST, DRY_SAND, [0.0, 1.0, 1e6], VERTICAL_NO_ONSET)


@settings(max_examples=300, deadline=None)
@given(
    depth=st.floats(0.0, 50.0),
    step=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    width=st.floats(1e-3, 1.0),
    soil=soils,
    law=st.sampled_from(ForceLaw),
)
def test_max_crescent_force_never_decreases_with_depth(depth, step, width, soil, law):
    deeper = depth + step if step else math.nextafter(depth, math.inf)
    shallow = max_crescent_force(depth, width, soil, law).force_n
    assert max_crescent_force(deeper, width, soil, law).force_n >= shallow
