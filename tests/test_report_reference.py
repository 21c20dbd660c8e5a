"""The analyze report path against the writers and the bisection it replaced.

The references below are the earlier code, kept verbatim in spirit:

* the report was ``json.dumps(_json_ready(report), indent=2)`` over a
  report holding every series column, rounded one element at a time;
* the CSVs formatted each value with ``_fmt`` and joined the strings of
  a row with ``,``;
* the first liftoff step came from one record per step;
* the kappa bisection tested every step in each round, one
  ``math.asin`` and ``math.tan`` at a time.

``analyze`` must write the same bytes, and ``estimate_effective_application``
must return the same kappa bit for bit.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trial_data import log_of_rows

from spiketrac import (
    DerivedSeries,
    SpikeDesign,
    TrialLog,
    TrialMetadata,
    VehicleConfig,
    derive_series,
    detect_landslides,
    estimate_effective_application,
    landslide_filter,
    tractive_efficiency,
    write_trial_log,
)
from spiketrac import cli
from spiketrac.trials import _KAPPA_TOLERANCE, _applied_lift

SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e-05, 1.5e-07, 1e16, 1e15, 123456.0,
    999999.5, 1234567.0, 0.0001, 0.000123456789, -2.5e300, 5e-324, 1.7976931348623157e308,
]


def reference_json_ready(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(cli._fmt(value))
    if isinstance(value, dict):
        return {key: reference_json_ready(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return list(map(reference_json_ready, value.tolist()))
    return value


def reference_report_text(report: dict) -> str:
    return json.dumps(reference_json_ready(report), indent=2) + "\n"


def reference_kappa(series, design, vehicle):
    weight = vehicle.weight_n
    points = list(zip(series.draft_n.tolist(), series.depth_m.tolist()))

    def lift_at(kappa, draft, depth):
        sin_gamma = (design.hinge_height_m + kappa * depth) / design.radius_m
        if sin_gamma >= 1.0:
            return math.inf
        gamma = math.asin(sin_gamma)
        return draft * math.tan(gamma)

    def feasible(kappa):
        return all(lift_at(kappa, draft, depth) <= weight + 1e-9 for draft, depth in points)

    if not np.any(series.lift_n > weight):
        return 1.0, False
    if not feasible(0.0):
        return 0.0, True
    lo, hi = 0.0, 1.0
    while hi - lo > _KAPPA_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, False


def reference_analyze(log: TrialLog, push_distance_m: float | None) -> tuple[str, dict[str, str]]:
    """The report text and CSV texts the earlier ``analyze`` wrote."""
    meta = log.metadata
    vehicle = meta.vehicle
    series = derive_series(log)
    events = detect_landslides(series)
    filtered = landslide_filter(series, events)
    columns = {
        "draft_N": series.draft_n, "depth_m": series.depth_m,
        "thrust_deg": series.thrust_deg, "lift_N": series.lift_n,
        "tip_x_m": series.tip_x_m, "cumulative_work_J": series.cumulative_work_j,
        "motion_m": series.motion_m, "airborne": series.airborne,
        "depth_filtered_m": filtered.depth_m, "thrust_filtered_deg": filtered.thrust_deg,
        "lift_filtered_N": filtered.lift_n,
    }
    summary = {
        "max_draft_N": None, "final_depth_m": None, "penetration_work_J": None,
        "efficiency_at_push": None, "stability": {"first_liftoff_step": None},
        "kappa_estimate": None,
    }
    if len(series):
        weight = vehicle.weight_n
        lifts = series.lift_n.tolist()
        summary["max_draft_N"] = series.draft_n.max()
        summary["final_depth_m"] = series.depth_m[-1]
        summary["penetration_work_J"] = series.cumulative_work_j[-1]
        summary["stability"]["first_liftoff_step"] = next(
            (i for i, lift in enumerate(lifts) if lift > weight), None
        )
        summary["kappa_estimate"] = reference_kappa(series, meta.spike_design, vehicle)[0]
        if push_distance_m is not None:
            try:
                summary["efficiency_at_push"] = tractive_efficiency(
                    series.cumulative_work_j[-1], series.draft_n[-1], push_distance_m
                )
            except ValueError:
                pass
    report = {
        "metadata": asdict(meta), "series": columns,
        "events": events, "summary": summary,
    }
    return reference_report_text(report), reference_csvs(columns, vehicle.weight_n)


def reference_csvs(columns: dict[str, np.ndarray], weight_n: float) -> dict[str, str]:
    """The CSV texts of ``analyze --series``: each value through ``_fmt``, rows joined by ``,``."""
    text = {name: [cli._fmt(v) for v in column.tolist()] for name, column in columns.items()}
    text["weight_N"] = [cli._fmt(weight_n)] * len(columns["draft_N"])
    csvs = {}
    for name, keys in cli._SERIES_CSVS.items():
        header = ",".join(key.replace("_filtered", "") for key in keys)
        rows = [",".join(row) for row in zip(*(text[key] for key in keys))]
        csvs[name] = "\n".join([header, *rows]) + "\n"
    return csvs


report_fields = st.fixed_dictionaries({
    "metadata": st.fixed_dictionaries({
        "site": st.sampled_from(["dry", "moist"]),
        "radius_m": st.one_of(st.sampled_from(SPECIAL[:10]), st.floats(0.5, 2.0)),
    }),
    "events": st.lists(st.integers(0, 20), max_size=3),
    "summary": st.fixed_dictionaries({
        "max_draft_N": st.one_of(st.none(), st.sampled_from(SPECIAL), st.floats()),
        "stability": st.fixed_dictionaries(
            {"first_liftoff_step": st.one_of(st.none(), st.integers(0, 5))}
        ),
    }),
})


# The report's series, in order: ten float columns and the bool airborne column.
SERIES = [
    "draft_N", "depth_m", "thrust_deg", "lift_N", "tip_x_m", "cumulative_work_J",
    "motion_m", "airborne", "depth_filtered_m", "thrust_filtered_deg", "lift_filtered_N",
]


@st.composite
def report_columns(draw):
    """Report columns of one length, as ``analyze`` writes them."""
    n = draw(st.integers(0, 3))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
    columns = {}
    for name in SERIES:
        if name == "airborne":
            columns[name] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        else:
            columns[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)), float)
    return columns


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values where reading a 6-digit string back can change it: any float,
# subnormals, integers, the decades where repr drops the exponent, and
# values near a rounding boundary of the sixth digit.
json_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(float_of_bits),
    st.sampled_from(SPECIAL),
    st.floats(-2.3e-308, 2.3e-308),
    st.integers(-(10**7), 10**7).map(float),
    st.floats(1e6, 1e16),
    st.floats(-1e16, -1e6),
    st.builds(
        lambda digits, offset, decade: (digits + offset) * 10.0**decade,
        st.integers(-999999, 999999), st.floats(-0.6, 0.6), st.integers(-8, 11),
    ),
)


def readback_numbers(values) -> list[str]:
    """The JSON numbers of ``values``: each ``_fmt`` string read back, or null."""
    return [repr(float(cli._fmt(value))) if math.isfinite(value) else "null" for value in values]


def cell_strings(cells: np.ndarray) -> list[str]:
    """The text of each row of cells, its NULs dropped as the writers drop them."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells.view(np.uint8)]


def assert_cells_equal_the_spec(column: np.ndarray) -> None:
    """Each value's cells hold ``format(x, ".6g")`` and its JSON number."""
    cells = np.empty((len(column), 3), np.uint64)
    rest, rest_numbers = cli._format_block(column, cells)
    text, numbers = cells[:, :2], cells.copy()
    # The other values' rows are their JSON numbers.
    numbers[rest] = rest_numbers
    values = column.tolist()
    assert cell_strings(text) == [format(value, ".6g") for value in values]
    # The CSV writer puts the separator after a text cell into its last byte.
    assert not text.view(np.uint8)[:, -1].any()
    assert cell_strings(numbers) == readback_numbers(values)


class TestReportText:
    @given(st.lists(json_floats, max_size=40))
    @settings(max_examples=400)
    @example([0.5, 99999.95, 999999.5, 9999995.0, 1e-300, 9.999995e-300, 4.94066e-324])
    def test_column_strings_and_json_numbers_equal_one_value_at_a_time(self, values):
        assert cli._fmt_column(values) == [format(value, ".6g") for value in values]
        assert_cells_equal_the_spec(np.array(values, float))

    @given(report_fields, report_columns(), st.one_of(st.sampled_from(SPECIAL), st.floats()))
    @settings(max_examples=150)
    def test_report_text_equals_the_reference(self, fields, columns, weight_n):
        raw = {
            "metadata": fields["metadata"], "series": columns,
            "events": fields["events"], "summary": fields["summary"],
        }
        report = cli._json_ready({**raw, "series": {}})
        assert written_files(report, columns, weight_n) == (
            reference_report_text(raw), reference_csvs(columns, weight_n)
        )

    def test_special_values_are_written_as_json_rounds_them(self, tmp_path):
        values = np.array(SPECIAL)
        columns = {"draft_N": values, "airborne": np.zeros(len(values), bool)}
        report = {"metadata": {}, "series": {}, "events": [], "summary": {}}
        cli._write_report(tmp_path / "r.json", report, columns)
        written = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert written["series"]["draft_N"] == reference_json_ready(values)
        assert "-0.0" in (tmp_path / "r.json").read_text(encoding="utf-8")


def written_files(report: dict, columns: dict, weight_n: float) -> tuple[str, dict[str, str]]:
    """The report and the CSVs that ``_write_report`` and ``_write_series_csvs`` write."""
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        cells = cli._write_report(root / "r.json", report, columns, csv_cells=True)
        cli._write_series_csvs(root / "series", cells, weight_n)
        csvs = {name: (root / "series" / name).read_bytes().decode() for name in cli._SERIES_CSVS}
        return (root / "r.json").read_bytes().decode(), csvs


# Step counts of the byte-writer tests: one, a few, field-session sizes
# on either side of 200, and a long log.
STEPS = (1, 20, 199, 400, 20000)


def series_of(values: np.ndarray, steps: int) -> dict[str, np.ndarray]:
    """Report columns of ``steps`` values; the float columns take ``values`` in turn, cycled."""
    rows = iter(np.resize(values, 10 * steps).reshape(10, steps))
    return {
        name: np.arange(steps) % 3 == 0 if name == "airborne" else next(rows)
        for name in SERIES
    }


def assert_files_equal_the_reference(columns: dict[str, np.ndarray]) -> None:
    raw = {"metadata": {}, "series": columns, "events": [], "summary": {}}
    assert written_files({**raw, "series": {}}, columns, 490.5) == (
        reference_report_text(raw), reference_csvs(columns, 490.5)
    )


@st.composite
def long_columns(draw):
    """Ten columns' worth of float64 values for one of ``STEPS``, ``json_floats`` among them.

    Values drawn one by one would overrun the test-case buffer, so a
    seeded filler of any bits and of log-uniform magnitudes takes the
    drawn values at drawn places.
    """
    drawn = draw(st.lists(json_floats, min_size=1, max_size=60))
    n = 10 * draw(st.sampled_from(STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = np.where(
        rng.random(n) < 0.5,
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.copysign(10.0 ** rng.uniform(-6.0, 8.0, n), rng.random(n) - 0.5),
    )
    places = rng.choice(n, min(n, len(drawn)), replace=False)
    column[places] = drawn[: len(places)]
    return column


def tie_sweep() -> np.ndarray:
    """Values where 6-digit rounding is hardest, over the decades 1e-5 .. 1e7.

    The float nearest each half-unit tie d + 0.5 of the sixth digit (d
    every 211th six-digit integer, and the carry tie 999999.5) and its
    neighbours, 10^k and 9.999995 * 10^k and theirs, the fixed-notation
    bounds 1e-4 and 1e6 and theirs, both zeros, nan, both infinities
    and subnormals; each also negated.
    """
    decades = 10.0 ** np.arange(-5, 8)
    ties = np.append(np.arange(100000, 1000000, 211), 999999) + 0.5
    centres = np.concatenate([
        np.outer(decades * 1e-5, ties).ravel(), decades, 9.999995 * decades, [1e-4, 1e6],
    ])
    near = np.concatenate([centres, np.nextafter(centres, 0.0), np.nextafter(centres, np.inf)])
    special = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1e-310]
    return np.concatenate([near, special, -near, np.negative(special)])


class TestLongColumns:
    @given(long_columns())
    @settings(max_examples=30, deadline=None)
    def test_strings_and_json_numbers_equal_one_value_at_a_time(self, column):
        assert_cells_equal_the_spec(column)

    def test_ties_powers_and_bounds_equal_the_spec(self):
        assert_cells_equal_the_spec(tie_sweep())

    @given(long_columns())
    @settings(max_examples=30, deadline=None)
    def test_report_and_csvs_of_drawn_values_equal_the_reference(self, values):
        assert_files_equal_the_reference(series_of(values, len(values) // 10))

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("values", [tie_sweep, lambda: np.array(SPECIAL)],
                             ids=["tie_sweep", "special"])
    def test_report_and_csvs_equal_the_reference(self, values, steps):
        assert_files_equal_the_reference(series_of(values(), steps))

    def test_lists_and_other_dtypes_take_the_percent_pass(self):
        values = [0.5 * i for i in range(400)]
        assert cli._fmt_column(values) == list(map(cli._fmt, values))
        assert cli._fmt_column(np.array(values, np.float32)) == list(map(cli._fmt, values))


# Cycled over the float columns by ``series_of``.  Eight values, so that
# at 7 and 21 steps, with blocks of 1, 3 or 7 values, each of them opens
# and closes some block: the ``%``-formatted 0, -0.0, nan, inf, 1e-05 and
# 1e+06 among values in fixed notation.
BOUNDARY_VALUES = np.array([0.0, 0.5, -0.0, math.nan, 123.25, math.inf, 1e-05, 1e6])


class TestBlockBoundaries:
    # No steps; columns shorter than, as long as and longer than a block,
    # so blocks of whole columns, of one, and of slices of one.
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 7, 8, 21])
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_report_and_csvs_equal_the_reference(self, monkeypatch, block, steps):
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert_files_equal_the_reference(series_of(BOUNDARY_VALUES, steps))

    # A field log's ten columns take one pass, as do ten 819-step columns,
    # but only nine 820-step ones fit in one; a 20,000-step column takes
    # three slices.
    @pytest.mark.parametrize(
        ("steps", "expected"), [(20, 1), (200, 1), (819, 1), (820, 2), (20000, 30)]
    )
    def test_columns_share_format_passes(self, monkeypatch, tmp_path, steps, expected):
        passes = []
        fixed_notation = cli._fixed_notation
        monkeypatch.setattr(
            cli, "_fixed_notation", lambda *args: passes.append(1) or fixed_notation(*args)
        )
        report = {"metadata": {}, "series": {}, "events": [], "summary": {}}
        cli._write_report(tmp_path / "r.json", report, series_of(BOUNDARY_VALUES, steps))
        assert len(passes) == expected

    def test_writers_keep_only_the_csv_cells_and_block_buffers(self, tmp_path):
        # The seven float columns the CSVs read keep 16 bytes of cells per
        # step; everything else lives in buffers of _BLOCK rows (1.4 MB
        # measured at 100,000 steps).  Writers that held every column's
        # cells and rows at once took 97 MB here.
        steps = 100_000
        rng = np.random.default_rng(0)
        size = 10.0 ** rng.uniform(-6.0, 8.0, 10 * steps)
        values = np.copysign(size, rng.random(10 * steps) - 0.5)
        columns = series_of(values, steps)
        report = {"metadata": {}, "series": {}, "events": [], "summary": {}}
        # Builds the format tables, which are kept for the process's life.
        cli._write_report(tmp_path / "warm.json", report, series_of(values, 10))
        tracemalloc.start()
        try:
            cells = cli._write_report(tmp_path / "r.json", report, columns, csv_cells=True)
            cli._write_series_csvs(tmp_path / "series", cells, 490.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 16 * steps + 2 * 2**20


meta_values = st.fixed_dictionaries({
    "site": st.sampled_from(["dry", "moist"]),
    "diameter_mm": st.floats(5.0, 60.0),
    "radius_m": st.floats(0.5, 2.0),
    "hinge_m": st.floats(0.05, 0.15),
    "rake0_deg": st.floats(20.0, 60.0),
    "vehicle_kg": st.one_of(st.floats(0.5, 80.0), st.just(123456.0)),
    "pulley_mu": st.floats(0.0, 0.5),
})


# A vertical arm is an error (tests/test_trials.py); this is the closest pose below it.
NEAR_VERTICAL = math.nextafter(90.0, 0.0)


@st.composite
def short_logs(draw):
    """Logs of 0 to 3 steps; the arm may come within a float of 90 degrees, baskets reach 1e16 kg."""
    metadata = TrialMetadata(**draw(meta_values))
    n = draw(st.integers(0, 3))
    rows, basket, motion, incl = [], 0.0, 0.0, draw(st.floats(0.0, 30.0))
    for index in range(n):
        rows.append((index, basket, motion, incl))
        basket += draw(st.one_of(st.floats(0.0, 400.0), st.sampled_from([1e-05, 1e16])))
        motion += draw(st.floats(0.0, 80.0))
        incl = draw(st.one_of(st.floats(incl, NEAR_VERTICAL), st.just(NEAR_VERTICAL)))
    return log_of_rows(metadata, rows)


LIGHT = TrialMetadata("dry", 21.0, 1.34, 0.09, 45.0, 5.0, 0.23)


class TestAnalyzeOutputs:
    @given(short_logs(), st.one_of(st.none(), st.floats(0.0, 5.0)))
    @settings(max_examples=60, deadline=None)
    @example(log_of_rows(LIGHT, []), 1.0)
    @example(log_of_rows(LIGHT, [(0, 123456.0, 0.0, 30.0)]), None)
    # A near-vertical arm at the second step: a lift of about 3e18 N.
    @example(log_of_rows(LIGHT, [(0, 0.0, 0.0, 5.0), (1, 100.0, 10.0, NEAR_VERTICAL)]), 1.0)
    def test_files_equal_the_reference(self, log, push):
        expected_report, expected_csvs = reference_analyze(log, push)
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            write_trial_log(log, root / "log.csv")
            argv = ["analyze", "--log", str(root / "log.csv"), "--out", str(root / "r.json"),
                    "--series", str(root / "series")]
            if push is not None:
                argv += ["--push-distance", repr(push)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert (root / "r.json").read_text(encoding="utf-8") == expected_report
            for name, text in expected_csvs.items():
                assert (root / "series" / name).read_text(encoding="utf-8") == text


design_values = st.builds(
    lambda radius, hinge, rake: SpikeDesign(
        radius_m=radius, hinge_height_m=hinge, initial_rake_deg=rake,
        diameter_mm=21.0, design_depth_m=radius - hinge,
    ),
    st.floats(0.5, 2.0), st.floats(0.05, 0.15), st.floats(20.0, 60.0),
)


@st.composite
def kappa_cases(draw):
    design = draw(design_values)
    n = draw(st.integers(0, 8))
    drafts = draw(st.lists(st.floats(0.0, 3000.0), min_size=n, max_size=n))
    depths = draw(st.lists(
        st.one_of(st.floats(0.0, design.max_depth_m), st.sampled_from([0.0, design.max_depth_m])),
        min_size=n, max_size=n,
    ))
    lifts = draw(st.lists(
        st.one_of(st.floats(0.0, 3000.0), st.just(math.inf)), min_size=n, max_size=n
    ))
    vehicle = VehicleConfig(total_mass_kg=draw(st.floats(0.5, 100.0)))
    series = DerivedSeries(
        draft_n=drafts, depth_m=depths, thrust_deg=[0.0] * n, lift_n=lifts,
        tip_x_m=[0.0] * n, cumulative_work_j=[0.0] * n, motion_m=[0.0] * n,
        airborne=[False] * n,
    )
    return series, design, vehicle


# The dyadic fractions a bisection to _KAPPA_TOLERANCE can try first.
TRIED_KAPPAS = [k / 16 for k in range(17)]


@st.composite
def near_limit_kappa_cases(draw):
    """Points whose lift at a kappa the bisection tries sits a few ulps from the limit.

    Some put the arm within 1e-6 of vertical at that kappa, where np.tan
    magnifies a last-bit difference of np.arcsin 1e3 times or more.  The
    estimate rejects depths past radius - hinge height, so such a depth
    is clamped to it, where the arm stands vertical at kappa = 1.
    """
    design = draw(design_values)
    vehicle = VehicleConfig(total_mass_kg=draw(st.floats(0.5, 100.0)))
    limit = vehicle.weight_n + 1e-9
    drafts, depths = [], []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            gap = st.one_of(st.integers(0, 64).map(lambda k: k * 2.0**-53), st.floats(0.0, 1e-6))
            sin_gamma = 1.0 - draw(gap)
            kappa = draw(st.sampled_from(TRIED_KAPPAS[1:]))
            depth = min(
                (sin_gamma * design.radius_m - design.hinge_height_m) / kappa, design.max_depth_m
            )
        else:
            depth = draw(st.floats(0.0, design.max_depth_m))
            kappa = draw(st.sampled_from(TRIED_KAPPAS))
        lift_per_newton = _applied_lift(design, kappa, 1.0, depth)
        draft = limit / lift_per_newton if 0 < lift_per_newton < math.inf else 0.0
        for _ in range(abs(ulps := draw(st.integers(-4, 4)))):
            draft = math.nextafter(draft, math.copysign(math.inf, ulps))
        drafts.append(draft)
        depths.append(depth)
    n = len(drafts)
    series = DerivedSeries(
        draft_n=drafts, depth_m=depths, thrust_deg=[0.0] * n,
        lift_n=[_applied_lift(design, 1.0, d, z) for d, z in zip(drafts, depths)],
        tip_x_m=[0.0] * n, cumulative_work_j=[0.0] * n, motion_m=[0.0] * n,
        airborne=[False] * n,
    )
    return series, design, vehicle


class TestKappaFilter:
    @given(near_limit_kappa_cases())
    @settings(max_examples=400)
    def test_kappa_near_the_limit_equals_the_full_bisection(self, case):
        series, design, vehicle = case
        result = estimate_effective_application(series, design, vehicle)
        kappa, inconsistent = reference_kappa(series, design, vehicle)
        assert (result.kappa.hex(), result.inconsistent) == (kappa.hex(), inconsistent)

    @given(kappa_cases())
    @settings(max_examples=200)
    def test_kappa_equals_the_full_bisection(self, case):
        series, design, vehicle = case
        result = estimate_effective_application(series, design, vehicle)
        kappa, inconsistent = reference_kappa(series, design, vehicle)
        assert (result.kappa.hex(), result.inconsistent) == (kappa.hex(), inconsistent)

    @given(short_logs())
    @settings(max_examples=60)
    def test_kappa_of_derived_logs_equals_the_full_bisection(self, log):
        series = derive_series(log)
        design, vehicle = log.metadata.spike_design, log.metadata.vehicle
        result = estimate_effective_application(series, design, vehicle)
        kappa, inconsistent = reference_kappa(series, design, vehicle)
        assert (result.kappa.hex(), result.inconsistent) == (kappa.hex(), inconsistent)

    @given(
        design_values, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 1e6), st.floats(0.0, 3.0),
    )
    @settings(max_examples=500)
    @example(
        SpikeDesign(radius_m=1.34, hinge_height_m=0.09, diameter_mm=21.0, design_depth_m=1.25),
        0.5, 1.0, 1000.0, 1.25,
    )
    def test_lift_never_decreases_in_kappa(self, design, a, b, draft, depth):
        # The filter drops points that hold at kappa = 1 on this property.
        low, high = min(a, b), max(a, b)
        assert _applied_lift(design, low, draft, depth) <= _applied_lift(design, high, draft, depth)
