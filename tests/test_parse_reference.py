"""The columnar trial-log parser against the per-step parser it replaced.

The reference below is the earlier parser: it stripped every field,
built one frozen ``ReferenceStep`` per line and checked it against the
step before.  For any step lines, ``parse_trial_log`` must raise the
same ``TrialLogError`` (message and line) or return columns with the
same bits as the reference's steps.  The header is fixed and valid: its
rules changed with the columnar parser and are tested in
``tests/test_trials.py``.
"""

import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trial_data import same_bits

from spiketrac import TrialLogError, parse_trial_log
from spiketrac.trials import _BLOCK_ROWS

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
@example(["0,0,0,5", "1,1,1,-inf"])
# Lines that break two rules against the line before.
@example(["0,5,5,10", "1,4,4,10"])
@example(["0,5,5,10", "0,4,4,10"])
def test_parser_matches_the_reference(lines):
    text = "\n".join([HEADER, COLUMNS, *lines]) + "\n"
    try:
        steps = reference_steps(text.splitlines()[2:])
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


# Logs longer than two blocks, with one row changed at a block boundary.
_ROWS = 2 * _BLOCK_ROWS + 2


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


@pytest.mark.parametrize("row", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _ROWS - 1])
@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_block_boundaries_match_the_reference(change, row):
    rows = [",".join(_valid_fields(k)) for k in range(_ROWS)]
    rows[row] = ",".join(_CHANGES[change](_valid_fields(row), _valid_fields(row - 1)))
    # Blank lines ahead of the change move its line away from its row.
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
