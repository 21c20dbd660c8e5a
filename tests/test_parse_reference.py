"""The columnar trial-log parser against the per-step parser it replaced.

The reference below is the earlier parser: it stripped every field,
built one frozen ``ReferenceStep`` per line and checked it against the
step before.  For any step lines, ``parse_trial_log`` must raise the
same ``TrialLogError`` (message and line) or return columns with the
same bits as the reference's steps.  The header is fixed and valid: its
rules changed with the columnar parser and are tested in
``tests/test_trials.py``.  Plain step text is read by numpy's text
reader and any other by a per-line loop; both are held to the
reference here, and the tests at the end check which path a log takes.
"""

import importlib.util
import io
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import INPUTS
from trial_data import same_bits

import spiketrac
from spiketrac import TrialLog, TrialLogError, TrialMetadata, parse_trial_log, trials, write_trial_log

HEADER = (
    "# site=dry diameter_mm=21.0 radius_m=1.34 hinge_m=0.09 rake0_deg=45.0 "
    "vehicle_kg=50.0 pulley_mu=0.23"
)
COLUMNS = "step,basket_kg,motion_mm,incl_deg"


@dataclass(frozen=True)
class ReferenceStep:
    index: int
    basket_kg: float
    motion_mm: float
    incl_deg: float


def reference_steps(lines: list[str]) -> list[ReferenceStep]:
    """The step lines of a log, file line 3 on, parsed as the earlier parser did."""
    steps: list[ReferenceStep] = []
    for offset, raw in enumerate(lines, start=3):
        if not raw.strip():
            continue
        fields = [part.strip() for part in raw.split(",")]
        if len(fields) != 4:
            raise TrialLogError(f"expected 4 comma-separated fields, got {len(fields)}", line=offset)
        try:
            step = ReferenceStep(
                index=int(fields[0]),
                basket_kg=float(fields[1]),
                motion_mm=float(fields[2]),
                incl_deg=float(fields[3]),
            )
        except ValueError as exc:
            raise TrialLogError(f"bad value: {exc}", line=offset) from exc

        if not math.isfinite(step.basket_kg) or not math.isfinite(step.motion_mm) or not math.isfinite(step.incl_deg):
            raise TrialLogError("values must be finite", line=offset)
        if step.basket_kg < 0:
            raise TrialLogError(f"basket_kg ({step.basket_kg}) must be >= 0", line=offset)
        if not 0 <= step.incl_deg <= 90:
            raise TrialLogError(
                f"incl_deg ({step.incl_deg}) must lie in [0, 90]", line=offset
            )
        if steps:
            prev = steps[-1]
            if step.index <= prev.index:
                raise TrialLogError(
                    f"step index {step.index} must increase (previous {prev.index})",
                    line=offset,
                )
            if step.basket_kg < prev.basket_kg:
                raise TrialLogError(
                    f"basket_kg ({step.basket_kg}) decreased (previous {prev.basket_kg}); "
                    "weights are only added",
                    line=offset,
                )
            if step.motion_mm < prev.motion_mm:
                raise TrialLogError(
                    f"motion_mm ({step.motion_mm}) decreased (previous {prev.motion_mm}); "
                    "motion is cumulative",
                    line=offset,
                )
        steps.append(step)
    return steps


# Whitespace that does not end a line: int and float skip all of it but
# U+001F, which strip() removes too.
_INLINE_SPACE = "".join(
    c for c in map(chr, range(0x3001)) if c.isspace() and len(f"a{c}b".splitlines()) == 1
)
# Whitespace that str.splitlines() ends a line at, so it moves later lines down.
_LINE_SPACE = "".join(
    c for c in map(chr, range(0x3001)) if c.isspace() and len(f"a{c}b".splitlines()) == 2
)
_SPACE = st.text(st.sampled_from(_INLINE_SPACE), min_size=1, max_size=3)
_PAD = _SPACE | st.just("")
_NOT_NUMBERS = st.sampled_from(["", "abc", "1.5.2", "0x10", "--1", "1e", "\u00bd", "1 2"])
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999"])
# Number spellings float and int accept beside repr.
_NUMBER_FORMS = st.sampled_from(["{}", "+{}", "{}e0", "0{}"])
_KINDS = st.sampled_from([
    "padded", "padded_all", "line_space", "field_count", "not_number", "non_finite",
    "negative_basket", "low_incl", "high_incl", "decreasing_basket", "decreasing_motion",
    "repeated_index", "lower_index", "integer_text",
])


@st.composite
def step_lines(draw) -> list[str]:
    """Step lines, a third of them changed in one or two ways, some blank."""
    lines = []
    index = draw(st.integers(-3, 3))
    basket = motion = 0.0
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u3000 "])))
            continue
        prev_index, prev_basket, prev_motion = index, basket, motion
        index += draw(st.integers(1, 3))
        basket += draw(st.sampled_from([0.0, 2.5]) | st.floats(0.0, 50.0))
        motion += draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0))
        incl = draw(st.sampled_from([0.0, -0.0, 90.0]) | st.floats(0.0, 90.0))
        fields = [str(index), repr(basket), repr(motion), repr(incl)]
        kinds = draw(st.lists(_KINDS, min_size=1, max_size=2)) if draw(st.integers(0, 2)) == 0 else []
        for kind in kinds:
            column = draw(st.integers(0, len(fields) - 1))
            if kind == "padded":
                fields[column] = draw(_SPACE) + fields[column] + draw(_PAD)
            elif kind == "padded_all":
                fields = [draw(_PAD) + field + draw(_PAD) for field in fields]
            elif kind == "line_space":
                fields[column] += draw(st.sampled_from(_LINE_SPACE)) + draw(_PAD)
            elif kind == "field_count":
                fields = draw(st.sampled_from([fields[:1], fields[:3], fields + ["0"]]))
            elif kind == "not_number":
                fields[column] = draw(_PAD) + draw(_NOT_NUMBERS) + draw(_PAD)
            elif kind == "non_finite":
                fields[column] = draw(_NON_FINITE)
            elif kind == "negative_basket" and len(fields) > 1:
                fields[1] = repr(-draw(st.sampled_from([0.5, 5e-324]) | st.floats(1e-9, 1e3)))
            elif kind == "low_incl" and len(fields) > 3:
                fields[3] = repr(-draw(st.sampled_from([1e-12, 0.5]) | st.floats(1e-9, 90.0)))
            elif kind == "high_incl" and len(fields) > 3:
                fields[3] = repr(draw(st.sampled_from([90.00001, 1e300]) | st.floats(90.0, 1e3, exclude_min=True)))
            elif kind == "decreasing_basket" and len(fields) > 1:
                fields[1] = repr(prev_basket - draw(st.floats(1e-9, 10.0)))
            elif kind == "decreasing_motion" and len(fields) > 2:
                fields[2] = repr(prev_motion - draw(st.floats(1e-9, 10.0)))
            elif kind == "repeated_index":
                fields[0] = str(prev_index)
            elif kind == "lower_index":
                fields[0] = str(prev_index - draw(st.integers(1, 3)))
            elif kind == "integer_text":
                fields[column] = draw(_NUMBER_FORMS).format(draw(st.integers(0, 90)))
        lines.append(",".join(fields))
    return lines


@settings(max_examples=600, deadline=None)
@given(step_lines())
@example(["0,0,0,nan"])
@example(["0, 1 ,2,\t3", "1,-1,0,100"])
@example(["\x1f0\x1f,\u20051\u2005,2\x1f\t,\u30003"])
@example(["0,1,2,3", "1,\x1f abc\u3000,2,3"])
@example(["0,1\u2028,2,3", "1,1,2,3"])
@example(["0,1,2,\ud8003"])  # a lone surrogate, which UTF-8 cannot encode
@example(["0,0,0,5", "1,1,1,-inf"])
# Lines that break two rules against the line before.
@example(["0,5,5,10", "1,4,4,10"])
@example(["0,5,5,10", "0,4,4,10"])
# Two failures in one row: the field count comes first, then the first
# field from the left that does not convert.
@example(["0,0,0,5", "x,1,y"])
@example(["0,0,0,5", "x,1,y,5"])
def test_parser_matches_the_reference(lines):
    assert_matches(lines, reference_steps)


def assert_matches(lines: list[str], reference) -> None:
    """The log of ``lines`` raises the reference's error (message and line)
    or has the bits of its steps."""
    text = "\n".join([HEADER, COLUMNS, *lines]) + "\n"
    try:
        steps = reference(text.splitlines()[2:])
    except TrialLogError as expected:
        with pytest.raises(TrialLogError) as caught:
            parse_trial_log(io.StringIO(text))
        assert (str(caught.value), caught.value.line) == (str(expected), expected.line)
        return
    log = parse_trial_log(io.StringIO(text))
    assert len(log) == len(steps)
    assert same_bits(log.index, [step.index for step in steps], np.int64)
    for name in ("basket_kg", "motion_mm", "incl_deg"):
        expected = [getattr(step, name) for step in steps]
        assert same_bits(getattr(log, name), expected, np.float64), name


@pytest.mark.parametrize(
    ("rows", "line", "index"),
    [
        (["0,0,0,5", "9223372036854775808,1,1,5"], 4, "9223372036854775808"),
        (["-9223372036854775809,0,0,5"], 3, "-9223372036854775809"),
    ],
)
def test_index_outside_int64_names_its_line(rows, line, index):
    text = "\n".join([HEADER, COLUMNS, *rows]) + "\n"
    with pytest.raises(TrialLogError) as caught:
        parse_trial_log(io.StringIO(text))
    assert str(caught.value) == f"line {line}: bad value: step index {index} is outside int64"
    assert caught.value.line == line


def test_int64_bounds_are_valid_indices():
    rows = ["-9223372036854775808,0,0,5", "9223372036854775807,0,0,5"]
    log = parse_trial_log(io.StringIO("\n".join([HEADER, COLUMNS, *rows]) + "\n"))
    assert log.index.tolist() == [-(2**63), 2**63 - 1]


# Long logs of 8,194 rows, with one row changed on either side of row 4,096
# or at the end.
_ROWS = 2 * 4096 + 2


def _valid_fields(row: int) -> list[str]:
    return [str(row - 5), repr(row * 0.37), repr(row * 1.1 / 3), repr(row * 7.3 % 90)]


_CHANGES = {
    "valid": lambda fields, before: fields,
    "padded": lambda fields, before: ["\x1f" + fields[0] + "\u2005", *fields[1:3], "\t" + fields[3]],
    "integer_text": lambda fields, before: ["+" + fields[0], *fields[1:]],
    "too_few_fields": lambda fields, before: fields[:3],
    "too_many_fields": lambda fields, before: [*fields, "0"],
    "line_space": lambda fields, before: [fields[0], fields[1] + "\u2028", *fields[2:]],
    "not_number": lambda fields, before: [*fields[:2], "1.5.2", fields[3]],
    "padded_not_number": lambda fields, before: [fields[0], "\x1f abc\u3000", *fields[2:]],
    "non_finite": lambda fields, before: [*fields[:3], "nan"],
    "infinite_basket": lambda fields, before: [fields[0], "inf", *fields[2:]],
    "negative_basket": lambda fields, before: [fields[0], "-5e-324", *fields[2:]],
    "low_incl": lambda fields, before: [*fields[:3], "-0.5"],
    "high_incl": lambda fields, before: [*fields[:3], "90.00001"],
    "decreasing_basket": lambda fields, before: [
        fields[0], repr(float(before[1]) - 1e-9), *fields[2:]
    ],
    "decreasing_motion": lambda fields, before: [
        *fields[:2], repr(float(before[2]) - 1e-9), fields[3]
    ],
    "repeated_index": lambda fields, before: [before[0], *fields[1:]],
    "lower_index": lambda fields, before: [str(int(before[0]) - 2), *fields[1:]],
    "index_above_int64": lambda fields, before: ["9223372036854775808", *fields[1:]],
    "index_below_int64": lambda fields, before: ["-9223372036854775809", *fields[1:]],
    "int64_and_not_number": lambda fields, before: [
        "9223372036854775808", fields[1], "x", fields[3]
    ],
}


@pytest.mark.parametrize("row", [4095, 4096, 4097, _ROWS - 1])
@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_block_boundaries_match_the_reference(change, row):
    """A long log with blank lines ahead of one changed row matches the
    reference: the error's message and line, or every row's bits."""
    rows = [",".join(_valid_fields(k)) for k in range(_ROWS)]
    rows[row] = ",".join(_CHANGES[change](_valid_fields(row), _valid_fields(row - 1)))
    # Blank lines ahead of the change move its line away from its row.
    # They, and the whitespace in them, send every case to the per-line
    # loop, which must count its rows and lines apart over a long log.
    ahead = ["", *rows[:3], " \t", *rows[3:row], "\u3000"]
    text = "\n".join([HEADER, COLUMNS, *ahead, rows[row], "", *rows[row + 1:]]) + "\n"
    if change.startswith("index_"):  # the reference predates the int64 rule
        with pytest.raises(TrialLogError) as caught:
            parse_trial_log(io.StringIO(text))
        line = len(ahead) + 3
        index = rows[row].split(",")[0]
        assert str(caught.value) == f"line {line}: bad value: step index {index} is outside int64"
        assert caught.value.line == line
        return
    try:
        steps = reference_steps(text.splitlines()[2:])
    except TrialLogError as expected:
        with pytest.raises(TrialLogError) as caught:
            parse_trial_log(io.StringIO(text))
        assert (str(caught.value), caught.value.line) == (str(expected), expected.line)
        return
    assert change in ("valid", "padded", "integer_text")
    log = parse_trial_log(io.StringIO(text))
    assert same_bits(log.index, [step.index for step in steps], np.int64)
    for name in ("basket_kg", "motion_mm", "incl_deg"):
        expected = [getattr(step, name) for step in steps]
        assert same_bits(getattr(log, name), expected, np.float64), name


def reference_with_int64(lines: list[str]) -> list[ReferenceStep]:
    """``reference_steps`` with the columnar parser's int64 rule: a step
    index outside int64 is a bad value of its line, after the line's
    field count and number conversions and ahead of its value rules."""
    for offset, raw in enumerate(lines):
        fields = [part.strip() for part in raw.split(",")]
        if len(fields) != 4:
            continue
        try:
            index = int(fields[0])
            for field in fields[1:]:
                float(field)
        except ValueError:
            continue
        if not -(2**63) <= index < 2**63:
            reference_steps(lines[:offset])  # an error on an earlier line comes first
            raise TrialLogError(f"bad value: step index {index} is outside int64", line=offset + 3)
    return reference_steps(lines)


# The bytes of plain step text but the comma and the newline.
_PLAIN_CHARS = "0123456789+-.eE"
_FLOAT_SPELLINGS = st.sampled_from([repr, "{:.3f}".format, "{:.17g}".format, "{:e}".format,
                                    "{:.25f}".format, "{:+.0f}".format])
_INDEX_SPELLINGS = st.sampled_from(["{}", "+{}", "00{}"])
_PLAIN_FIELDS = (
    st.text(_PLAIN_CHARS, max_size=25)
    | st.from_regex(r"[+-]?[0-9]{0,25}\.?[0-9]{0,25}([eE][+-]?[0-9]{1,4})?", fullmatch=True)
    | st.integers(-(2**63) - 2, 2**63 + 1).map(str)
)


@st.composite
def plain_step_lines(draw) -> list[str]:
    """Step lines of plain text: valid rows spelt in several ways, some
    with a field of plain bytes that may not convert or a field too few
    or too many."""
    lines = []
    index = draw(st.integers(-3, 3))
    basket = motion = 0.0
    for _ in range(draw(st.integers(1, 12))):
        index += draw(st.integers(1, 3))
        basket += draw(st.sampled_from([0.0, 2.5]) | st.floats(0.0, 50.0))
        motion += draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0))
        incl = draw(st.sampled_from([0.0, -0.0, 90.0]) | st.floats(0.0, 90.0))
        fields = [draw(_INDEX_SPELLINGS).format(index) if index >= 0 else str(index)]
        fields += [draw(_FLOAT_SPELLINGS)(value) for value in (basket, motion, incl)]
        if draw(st.integers(0, 3)) == 0:
            fields[draw(st.integers(0, 3))] = draw(_PLAIN_FIELDS)
        if draw(st.integers(0, 9)) == 0:
            fields = draw(st.sampled_from([fields[:3], [*fields, "0"], [*fields, ""]]))
        lines.append(",".join(fields))
    return lines


@settings(max_examples=600, deadline=None)
@given(plain_step_lines())
@example(["-0,-0,0,-0", "+5,1.,.5,5", "007,1e-05,1E+3,1e-05"])
@example(["0,0.12345678901234567,1234567890.123456789012345,89.9999999999999999999"])
@example(["0,9007199254740993,2.2250738585072011e-308,4.9406564584124654e-324"])
@example(["0,1e400,0,5"])
@example(["0,-1e-400,0,5"])
@example(["-9223372036854775808,0,0,5", "9223372036854775807,0,0,5"])
@example(["0,0,0,5", "9223372036854775808,0,0,5"])
@example(["-9223372036854775809,0,0,5"])
@example(["0,0,0,5", "9223372036854775809,0,0,5"])
@example(["0,0,0,5", "9223372036854775808,0,x,5"])  # a float that fails names the error
@example(["0,0,0,5", "1e3,0,0,5"])
@example(["0,0,0,5", "1.0,0,0,5"])
@example(["0,0,0,5", "1,0,0"])
@example(["0,0,0,5", "1,0,0,5,6"])
@example(["0,0,0,5", "1,0,0,5,"])
def test_plain_step_text_matches_the_reference(lines):
    assert_matches(lines, reference_with_int64)


_PLAIN_LOG = "\n".join([HEADER, COLUMNS, "0,0,0,5", "1,2.5,1,6.5", "3,2.5,4,7"]) + "\n"
_PLAIN_STEPS = [(0, 0.0, 0.0, 5.0), (1, 2.5, 1.0, 6.5), (3, 2.5, 4.0, 7.0)]
# Step text that numpy's text reader warns on ("input contained no data")
# or that is not plain, with the rows or the (message, line) it parses to.
_WARNING_CASES = {
    "empty": ("\n".join([HEADER, COLUMNS]) + "\n", []),
    "only_newlines": ("\n".join([HEADER, COLUMNS]) + "\n\n\n\n", []),
    "trailing_blank_lines": (_PLAIN_LOG + "\n\n", _PLAIN_STEPS),
    "crlf": (_PLAIN_LOG.replace("\n", "\r\n"), _PLAIN_STEPS),
    "crlf_rule": (_PLAIN_LOG.replace("\n", "\r\n") + "2,3,5,8\r\n",
                  ("step index 2 must increase (previous 3)", 6)),
}


@pytest.mark.parametrize("case", sorted(_WARNING_CASES))
def test_blank_and_crlf_step_text_parses_with_no_warning(case):
    text, expected = _WARNING_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, tuple):
            with pytest.raises(TrialLogError) as caught:
                parse_trial_log(io.StringIO(text))
            message, line = expected
            assert (str(caught.value), caught.value.line) == (f"line {line}: {message}", line)
            return
        log = parse_trial_log(io.StringIO(text))
    columns = (log.index, log.basket_kg, log.motion_mm, log.incl_deg)
    assert list(zip(*(column.tolist() for column in columns))) == expected


@pytest.mark.parametrize(("case", "steps"), [
    ("empty", 0), ("only_newlines", 0), ("trailing_blank_lines", 20), ("crlf", 20),
])
def test_analyze_writes_no_warning_to_stderr(case, steps, tmp_path):
    trial = (INPUTS / "trial.csv").read_text()
    head = "\n".join(trial.splitlines()[:2]) + "\n"
    text = {"empty": head, "only_newlines": head + "\n\n\n", "trailing_blank_lines": trial + "\n\n",
            "crlf": trial.replace("\n", "\r\n")}[case]
    (tmp_path / "log.csv").write_bytes(text.encode())
    env = dict(os.environ)
    src = str(Path(spiketrac.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spiketrac.cli", "analyze", "--log", "log.csv", "--out", "r.json"],
        cwd=tmp_path, env=env, capture_output=True, timeout=60, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    events = 2 if steps else 0
    assert proc.stdout == f"wrote r.json: {steps} steps, {events} landslide events\n".encode()


def _benchmark_inputs():
    """``benchmark/inputs.py``, loaded as a module without changing it."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _refuse(lines):
    raise AssertionError("the per-line loop converted a plain log")


@pytest.fixture
def no_per_line_path(monkeypatch):
    """Make the per-line loop raise: a log that parses took the reader's path."""
    monkeypatch.setattr(trials, "_step_columns", _refuse)


@pytest.mark.parametrize(("steps", "events"), [(20, 0), (200, 3), (20000, 100)])
def test_benchmark_logs_take_the_reader_path(steps, events, tmp_path, no_per_line_path):
    path = tmp_path / "log.csv"
    _benchmark_inputs().trial_log(random.Random(steps), path, steps, events, 2.5)
    assert len(parse_trial_log(path)) == steps


@pytest.mark.parametrize("name", ["trial.csv", "trial_edge.csv", "trial_light.csv"])
def test_golden_logs_take_the_reader_path(name, no_per_line_path):
    assert len(parse_trial_log(INPUTS / name)) > 0


_ROW_LISTS = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True),
    *(st.lists(values, min_size=n, max_size=n) for values in (
        st.floats(0.0, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, 90.0),
    )),
))


@settings(max_examples=200, deadline=None)
@given(_ROW_LISTS)
def test_written_logs_take_the_reader_path(columns):
    # A log with no step has no row to read: it takes the per-line loop.
    index, basket, motion, incl = columns
    metadata = TrialMetadata("dry", 21.0, 1.34, 0.09, 45.0, 50.0, 0.23)
    log = TrialLog(metadata, sorted(index), sorted(basket), sorted(motion), incl)
    text = io.StringIO()
    write_trial_log(log, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trials, "_step_columns", _refuse)
        assert parse_trial_log(io.StringIO(text.getvalue())) == log
