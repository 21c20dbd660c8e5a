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
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

# The package names each subcommand's ``run_*`` function calls; the input
# loaders import their own.  Each ``run_*`` binds its subcommand's names
# into this module when it first runs, so a run loads only the library
# modules that hold them.
_NEEDS = {
    "analyze": (
        "TrialLogError", "derive_series", "detect_landslides", "estimate_effective_application",
        "landslide_filter", "parse_trial_log", "stability_check", "tractive_efficiency",
    ),
    "crescent": ("ForceLaw", "max_crescent_force"),
    "design": ("CriticalDepthModel", "grid_search"),
    "simulate": ("CriticalDepthModel", "predict_series"),
}
_NAMES = frozenset(chain.from_iterable(_NEEDS.values()))
_bound: set[str] = set()


def _bind(command: str) -> None:
    """Bind ``command``'s names here once; a name already set (a stand-in) stays."""
    if command in _bound:
        return
    package = sys.modules[__package__]
    for name in _NEEDS[command]:
        globals().setdefault(name, getattr(package, name))
    _bound.add(command)


def __getattr__(name: str):
    """A name of ``_NEEDS``, read from outside before its subcommand's first run."""
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

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
# The series whose ``%.6g`` cells the CSVs read.
_CSV_SERIES = frozenset(chain.from_iterable(_SERIES_CSVS.values()))
# Columns of the ranked design CSV: design fields, then evaluation fields.
_DESIGN_KEYS = ("radius_m", "hinge_height_m", "initial_rake_deg", "diameter_mm", "design_depth_m")
_EVALUATION_KEYS = ("objective", "thrust_deg", "window_deg")
# How the float spec spells the floats JSON writes as null.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))
# Every float the CLI writes: 6 significant digits.  For a float,
# ``_FLOAT_SPEC % value == format(value, ".6g")``.
_FLOAT_SPEC = "%.6g"


def _word(text: str) -> np.uint64:
    """Up to 8 ASCII bytes as one little-endian word, padded with NULs."""
    return np.uint64(int.from_bytes(text.encode(), "little"))


# The words the series files are laid out from.  A report series item
# starts with the separator and indent of ``json.dumps(indent=2)`` at
# depth 3; a CSV cell's text is at most 13 bytes, so the last byte of its
# second word is free for the comma or newline after it.
_ITEM = _word(",\n      ")
_DOT_ZERO = _word(".0")
_TRUE, _FALSE = _word("true"), _word("false")
_COMMA, _NEWLINE = (np.uint64(ord(sep) << 56) for sep in ",\n")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _fmt(value: float) -> str:
    return _FLOAT_SPEC % value


def _fmt_column(values: Iterable[float]) -> list[str]:
    """``list(map(_fmt, values))`` in one C-level ``%`` pass."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    values = tuple(values)
    return (f"{_FLOAT_SPEC}\n" * len(values) % values).split("\n")[:-1]


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_fixed_notation``'s tables, built on first use so that import stays cheap.

    The ASCII digits of 000 .. 999 as little-endian words, the trailing
    zeros of 0 .. 999 (3 for 0), the exact powers 10^0 .. 10^9, and the
    layout of each key ``((e + 4) * 6 + trailing zeros of r) * 2 +
    negative``: where r's six digits are cut for the point, the prefix
    (sign, and ``0.`` and zeros below 1), and which bytes of a value's
    two words show, the rest being NULs.
    """
    ascii3 = "".join(f"{i:03d}\0" for i in range(1000)).encode()
    trailing = [3] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 1000))]
    layout = []
    for e in range(-4, 6):
        for zeros in range(6):
            for sign in ("", "-"):
                if e >= 0:
                    cut, dot, prefix = 8 * (e + 1), ord("."), sign
                    fraction = max(5 - e - zeros, 0)
                    shown = len(sign) + e + 1 + (fraction and fraction + 1)
                else:
                    cut, dot, prefix = 48, 0, f"{sign}0.{'0' * (-e - 1)}"
                    shown = len(prefix) + 6 - zeros
                keep = [(1 << 8 * min(shown, 8)) - 1, (1 << 8 * max(shown - 8, 0)) - 1]
                layout.append([
                    (1 << cut) - 1, dot << cut, cut, cut + (8 if dot else 0),
                    int.from_bytes(prefix.encode(), "little"), 8 * len(prefix),
                    56 - 8 * len(prefix), *keep,
                ])
    return (
        np.frombuffer(ascii3, "<u4").astype(np.uint64), np.array(trailing),
        10.0 ** np.arange(10), np.array(layout, np.uint64).T,
    )


def _fixed_notation(column: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay out in ``out`` the text of the values that print in fixed notation.

    A value x with 1e-4 <= |x| < 1e6 prints its 6 significant digits r,
    the integer nearest m = |x| * 10^(5 - e) for e = floor(log10|x|),
    with the point after digit e + 1 (or ``0.`` and -e - 1 zeros before
    them when e < 0) and the fraction's trailing zeros dropped.  The
    power of ten is exact, so m is within 1.2e-10 of its true value and
    ``rint(m)`` is r unless m lies within 1e-6 of a half k + 0.5.  Such
    a near-tie is decided on the exact product: |x| splits into two
    parts of at most 27 significant bits (Veltkamp), so each part times
    the power, of at most 21, is exact, and so is the upper part's
    product minus k + 0.5, which lie within 0.02 of each other; adding
    the lower part's product keeps the sign of |x| * 10^(5 - e) - (k + 0.5).
    r rounds up above the half, down below it and to even on it, as
    ``%`` does.  An e one too low gives r = 10^6, which carries into e;
    one too high gives r < 10^5, which is not fixed.  Each value's text is
    left-aligned in its row of ``out``, two little-endian words, and
    padded with NULs; a value that is not fixed reads ``1`` or ``-1``.
    Returns which values are fixed, and which of those print no fraction
    digits (e + trailing zeros of r >= 5), so that their text is an
    integer.
    """
    ascii3, trailing, powers, layout = _format_tables()
    size = np.abs(column)
    fixed = (size >= 1e-4) & (size < 1e6)
    size = np.where(fixed, size, 1.0)
    e = np.clip(np.floor(np.log10(size)), -4, 5).astype(np.int64)
    m = size * powers[5 - e]
    r = np.rint(m)
    near = np.flatnonzero(np.abs(m - np.floor(m) - 0.5) <= 1e-6)
    if near.size:
        x, p, k = size[near], powers[5 - e[near]], np.floor(m[near])
        split = x * 134217729.0
        upper = split - (split - x)
        above = (upper * p - (k + 0.5)) + (x - upper) * p
        r[near] = k + ((above > 0) | ((above == 0) & (k % 2 == 1)))
    fixed &= (r >= 1e5) & (r <= 1e6)
    carry = r == 1e6
    e += carry
    fixed &= e <= 5
    high, low = np.divmod(np.where(fixed & ~carry, r, 1e5).astype(np.int64), 1000)
    e = np.where(fixed, e, 0)
    zeros = np.where(low == 0, 3 + trailing[high], trailing[low])
    integer = fixed & (e + zeros >= 5)
    key = ((e + 4) * 6 + zeros) * 2 + np.signbit(column)
    # One field at a time, so that few column-sized arrays live at once.
    below, dot, cut, lift, prefix, shift, back, keep0, keep1 = layout
    digits = ascii3[high] | (ascii3[low] << np.uint64(24))
    body = (digits & below[key]) | dot[key] | ((digits >> cut[key]) << lift[key])
    out[:, 0] = (prefix[key] | (body << shift[key])) & keep0[key]
    out[:, 1] = ((body >> np.uint64(8)) >> back[key]) & keep1[key]
    return fixed, integer


def _cells_of(strings: Sequence[str], words: int) -> np.ndarray:
    """ASCII ``strings`` as rows of ``words`` little-endian words, padded with NULs."""
    return np.array(strings, f"S{8 * words}").view("<u8").reshape(-1, words)


# Values per ``_fixed_notation`` pass, so that its temporaries stay in
# cache: the ten columns of a 20,000-step log took 16-28 ms in one pass
# and 8-9 ms in passes of this size (2-vCPU Xeon, ``timeit``).  It is
# also the rows of each layout buffer of the report series and the CSVs,
# so that the writers' memory does not grow with the row count.
_BLOCK = 8192


def _format_block(values: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay out in ``cells``, three words a row, the ``%.6g`` cell of each value.

    A cell is a value's ASCII text, left-aligned and padded with NULs:
    ``format(x, ".6g")`` in the first two words.  A value's JSON number is
    ``repr(float(s))`` of that string ``s``, or ``null`` when x is not
    finite.  ``_fixed_notation`` lays out the values that print in fixed
    notation, whose JSON number is ``s`` as it is, with ``.0`` after an
    integer: the third word takes that ``.0``, so their rows are their
    JSON numbers.  Every other value (zero, nan, inf, exponent notation)
    is formatted by ``%``, and its JSON number is read back.  Returns the
    indices of those values and their JSON numbers, three words each.
    """
    fixed, integer = _fixed_notation(values, cells[:, :2])
    cells[:, 2] = np.where(integer, _DOT_ZERO, 0)
    rest = np.flatnonzero(~fixed)
    strings = _fmt_column(values[rest])
    cells[rest] = _cells_of(strings, 3)
    return rest, _cells_of(["null" if s in _NON_FINITE else repr(float(s)) for s in strings], 3)


def _without_nuls(words: np.ndarray) -> np.ndarray:
    """The bytes of a word array, NULs dropped, in one boolean compress."""
    data = words.view(np.uint8).ravel()
    return data[data != 0]


def _items(rows: np.ndarray, first: bool) -> np.ndarray:
    """The bytes of laid-out series items; the first item's separator comma becomes the ``[``."""
    body = _without_nuls(rows)
    if first:
        body[0] = ord("[")
    return body


def _float_items(
    columns: Sequence[np.ndarray], layout: np.ndarray, cells: Sequence[np.ndarray | None]
) -> Iterator[tuple[int, np.ndarray]]:
    """The report series items of float ``columns`` of one length, a block of values at a time.

    A block holds as many whole columns as fit in ``len(layout)`` values,
    so that short columns share one ``_fixed_notation`` pass; a longer
    column is taken in slices of itself.  A block's items are laid out in
    ``layout``, a row each: the item separator and indent, then the
    value's JSON number.  The ``%.6g`` cells of column j are kept in
    ``cells[j]`` unless it is None.  Yields each column's part of a block
    as the row the part ends at and the part's bytes.  A block's parts
    are all made before the first is yielded, so the caller may lay out
    other items in ``layout`` between yields.
    """
    n, size = len(columns[0]), len(layout)
    values = np.empty(size)
    per_block = max(size // n, 1)
    for first in range(0, len(columns), per_block):
        group = range(first, min(first + per_block, len(columns)))
        for start in range(0, n, size):
            stop = min(start + size, n)
            rows = layout[:len(group) * (stop - start)]
            block = values[:len(rows)]
            np.concatenate([columns[j][start:stop] for j in group], out=block)
            rest, numbers = _format_block(block, rows[:, 1:])
            parts = rows.reshape(len(group), stop - start, 4)
            for j, part in zip(group, parts):
                if cells[j] is not None:
                    cells[j][start:stop] = part[:, 1:3]
            rows[rest, 1:] = numbers
            yield from [(stop, _items(part, not start)) for part in parts]


def _csv_chunks(header: str, columns: Sequence) -> Iterator[bytes]:
    """Byte chunks of a CSV whose columns are ``%.6g`` cells, ``_BLOCK`` rows at a time.

    A column is an array of cells, or a ``_Gathered`` one, sliced by
    rows.  Its cells are one or two words each; the last byte of a cell's
    last word is free, and takes the comma or newline after it.  Each
    block's rows are laid out side by side in one reused buffer.
    """
    yield f"{header}\n".encode()
    n = len(columns[0])
    widths = [cells[:0].shape[1] for cells in columns]
    rows = np.empty((min(_BLOCK, n), sum(widths)), "<u8")
    for start in range(0, n, _BLOCK):
        block = rows[:n - start]
        stop = 0
        for j, (cells, width) in enumerate(zip(columns, widths)):
            first, stop = stop, stop + width
            cells = cells[start:start + _BLOCK]
            block[:, first:stop - 1] = cells[:, :-1]
            end = _COMMA if j + 1 < len(columns) else _NEWLINE
            np.bitwise_or(cells[:, -1], end, out=block[:, stop - 1])
        yield _without_nuls(block)


def _json_ready(value):
    """Round floats to 6 significant digits; non-finite becomes null."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    return value


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    return "\n".join(chain([",".join(header)], map(",".join, rows))) + "\n"


def finite(text: str) -> float:
    """A finite float from text; the type of every float flag and JSON number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def nonnegative(text: str) -> float:
    """A finite float of at least 0 from text; the type of distance and sensitivity flags."""
    value = finite(text)
    if value < 0:
        raise ValueError(f"{text} is negative")
    return value


def positive(text: str) -> float:
    """A finite float above 0 from text; the type of threshold and aspect-ratio flags."""
    value = finite(text)
    if value <= 0:
        raise ValueError(f"{text} is not positive")
    return value


def _integer(text: str) -> int:
    """A JSON integer within the float range; the int itself is kept."""
    if not math.isfinite(float(text)):
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits is beyond the float range")
    return int(text)


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
        # NaN/Infinity literals and numbers that overflow a float are rejected.
        data = json.loads(text, parse_constant=finite, parse_float=finite, parse_int=_integer)
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
    # The loaders import what they build, so they work before any dispatch.
    from .soilmech import DRY_SAND, MOIST_SAND, SoilProperties

    presets = {"preset:dry": DRY_SAND, "preset:moist": MOIST_SAND}
    if spec in presets:
        return presets[spec]
    if spec.startswith("preset:"):
        raise ConfigError(f"unknown soil preset {spec!r}; use preset:dry or preset:moist")
    return _load_dataclass(SoilProperties, Path(spec), "soil")


def load_design(path: Path) -> SpikeDesign:
    from .geometry import SpikeDesign

    return _load_dataclass(SpikeDesign, path, "design")


def load_constraints(path: Path | None) -> DesignConstraints:
    from .design import DesignConstraints

    if path is None:
        return DesignConstraints()
    return _load_dataclass(DesignConstraints, path, "constraints")


def load_space(path: Path) -> DesignSpace:
    from .design import DesignSpace, ParameterRange

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
    try:
        return DesignSpace(**ranges)
    except ValueError as exc:
        raise ConfigError(f"design-space file {path}: {exc}") from exc


def load_draft_schedule(path: Path) -> list[float]:
    """Draft schedule CSV: a ``draft_N`` header then one non-decreasing force per line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != "draft_N":
        raise ConfigError(f"draft-schedule file {path}: first line must be 'draft_N'")
    drafts: list[float] = []
    line = f"draft-schedule file {path}: line"
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{line} {number}: {exc}") from exc
        if value < 0 or not math.isfinite(value):
            raise ConfigError(f"{line} {number}: draft must be finite and >= 0")
        if drafts and value < drafts[-1]:
            raise ConfigError(
                f"{line} {number}: draft ({value}) decreased (previous {drafts[-1]}); "
                "weights are only added"
            )
        drafts.append(value)
    return drafts


def _build_report(
    log: TrialLog, series: DerivedSeries, events: list[int], push_distance_m: float | None
) -> dict:
    """The report with an empty ``series`` block, rounded for JSON."""
    meta = log.metadata
    summary: dict = {
        "max_draft_N": None,
        "final_depth_m": None,
        "penetration_work_J": None,
        "efficiency_at_push": None,
        "stability": {"first_liftoff_step": None},
        "kappa_estimate": None,
    }
    if len(series):
        kappa = estimate_effective_application(series, meta.spike_design, meta.vehicle)
        summary["max_draft_N"] = series.draft_n.max()
        summary["final_depth_m"] = series.depth_m[-1]
        summary["penetration_work_J"] = series.cumulative_work_j[-1]
        liftoff = np.flatnonzero(stability_check(series, meta.vehicle))
        summary["stability"]["first_liftoff_step"] = int(liftoff[0]) if liftoff.size else None
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
        "series": {},
        "events": events,
        "summary": summary,
    }
    return _json_ready(report)


def _write_report(
    path: Path, report: dict, columns: dict[str, np.ndarray], csv_cells: bool = False
) -> dict[str, np.ndarray]:
    """Write ``report`` as indented JSON with ``columns`` in its empty series block.

    The text is ``json.dumps(report, indent=2)`` with each column, all of
    one length, a series array of its values rounded as ``_json_ready``
    rounds them.  The float columns are formatted and laid out a block
    at a time by ``_float_items``, so each JSON number carries the digits
    of its CSV cell, and a bool column is laid out in the same buffer;
    each block is written as it is made.  With ``csv_cells``, returns the
    ``%.6g`` cells of the float columns that ``_SERIES_CSVS`` reads.
    """
    head, tail = json.dumps(report, indent=2).split('\n  "series": {},\n')
    n = len(next(iter(columns.values())))
    floats = [name for name, column in columns.items() if column.dtype != bool]
    kept = {
        name: np.empty((n, 2), "<u8") for name in floats if csv_cells and name in _CSV_SERIES
    }
    layout = np.empty((min(_BLOCK, n * len(columns)), 4), "<u8")
    layout[:, 0] = _ITEM
    items = _float_items(
        [columns[name] for name in floats], layout, [kept.get(name) for name in floats]
    )

    def chunks():
        yield (head + '\n  "series": {').encode()
        for i, (name, column) in enumerate(columns.items()):
            yield f'{"," if i else ""}\n    {json.dumps(name)}: '.encode()
            if not n:
                yield b"[]"
                continue
            if column.dtype == bool:
                for start in range(0, n, len(layout)):
                    rows = layout[:n - start]
                    rows[:, 1] = np.where(column[start:start + len(rows)], _TRUE, _FALSE)
                    rows[:, 2:] = 0
                    yield _items(rows, not start)
            else:
                for stop, body in items:
                    yield body
                    if stop == n:
                        break
            yield b"\n    ]"
        yield ("\n  },\n" + tail + "\n").encode()

    _atomic_write(path, chunks())
    return kept


def _write_series_csvs(directory: Path, cells: dict[str, np.ndarray], weight_n: float) -> None:
    """Write the plot-ready CSVs from the ``%.6g`` cells of each series."""
    directory.mkdir(parents=True, exist_ok=True)
    weight = np.broadcast_to(_cells_of([_fmt(weight_n)], 2), cells["draft_N"].shape)
    cells = {**cells, "weight_N": weight}
    for name, keys in _SERIES_CSVS.items():
        header = ",".join(key.replace("_filtered", "") for key in keys)
        _atomic_write(directory / name, _csv_chunks(header, [cells[key] for key in keys]))


def run_analyze(args: argparse.Namespace) -> int:
    _bind("analyze")
    try:
        log = parse_trial_log(args.log)
    except TrialLogError as exc:
        raise ConfigError(f"{args.log}: {exc}") from exc
    series = derive_series(log)
    # A threshold flag left out keeps the library's default.
    flags = {"depth_jump_threshold_m": args.depth_threshold,
             "motion_jump_threshold_m": args.motion_threshold}
    events = detect_landslides(series, **{k: v for k, v in flags.items() if v is not None})
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
    report = _build_report(log, series, events, args.push_distance)
    cells = _write_report(args.out, report, columns, csv_cells=args.series is not None)
    if args.series is not None:
        _write_series_csvs(args.series, cells, log.metadata.vehicle.weight_n)
    print(f"wrote {args.out}: {len(series)} steps, {len(events)} landslide events")
    return EXIT_OK


def run_crescent(args: argparse.Namespace) -> int:
    _bind("crescent")
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
        columns = (_fmt_column(column) for column in result.curve.T.tolist())
        _atomic_write(args.out, [_csv_text(["beta_deg", "force_N"], zip(*columns)).encode()])
    print(f"beta_star_deg={_fmt(result.beta_star_deg)} force_N={_fmt(result.force_n)}")
    return EXIT_OK


class _Gathered:
    """The cells ``table[index]``, gathered only for the rows sliced out."""

    def __init__(self, table: np.ndarray, index: np.ndarray) -> None:
        self.table, self.index = table, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.table[self.index[rows]]


def _gathered_cells(strings: list[str], index: np.ndarray) -> _Gathered:
    """The cells of ``strings`` at ``index``: one word each if no string passes 7 bytes, else two."""
    return _Gathered(_cells_of(strings, 1 if max(map(len, strings), default=0) <= 7 else 2), index)


def _keyed_cells(index: tuple, shape: tuple, *columns: np.ndarray) -> list[_Gathered]:
    """Each column's cells, formatted once per distinct key; equal keys hold equal values.

    The keys are the points ``index`` in a grid of ``shape``, found with dense tables over it."""
    key = np.ravel_multi_index(index, shape)
    first = np.full(math.prod(shape), len(key))
    first[key[::-1]] = np.arange(len(key))[::-1]  # the last of repeated stores stays
    seen = first < len(key)
    inverse = np.cumsum(seen)[key] - 1
    return [_gathered_cells(_fmt_column(column[first[seen]]), inverse) for column in columns]


def _design_chunks(result: GridSearchResult) -> Iterator[bytes]:
    """The ranked CSV's byte chunks.

    Each axis value is formatted once, and so are the objective and
    thrust of each (radius, hinge, depth) arm and the window of each
    (radius, hinge, rake), on which alone it depends; their cells are
    gathered by index as ``_csv_chunks`` lays out each block of rows,
    with no per-row object.
    """
    columns = [_gathered_cells(_fmt_column(axis), i) for axis, i in zip(result.axes, result.index)]
    ir, ih, ia, _, iz = result.index
    nr, nh, na, _, nz = map(len, result.axes)
    objective, thrust, window = (getattr(result, key) for key in _EVALUATION_KEYS)
    columns += _keyed_cells((ir, ih, iz), (nr, nh, nz), objective, thrust)
    columns += _keyed_cells((ir, ih, ia), (nr, nh, na), window)
    return _csv_chunks(",".join((*_DESIGN_KEYS, *_EVALUATION_KEYS)), columns)


def run_design(args: argparse.Namespace) -> int:
    _bind("design")
    space = load_space(args.space)
    constraints = load_constraints(args.constraints)
    # The soil is validated but does not enter the ranking: the present
    # feasibility checks are geometric.
    load_soil(args.soil)
    cd_model = CriticalDepthModel(k0=args.k0, k1=args.k1)
    result = grid_search(space, constraints, cd_model, top=args.top)
    # A zero effective thrust angle makes the ratio infinite; no ranking follows from it.
    infinite = np.flatnonzero(~np.isfinite(result.objective))
    if infinite.size:
        n = infinite[0]
        point = ", ".join(
            f"{key}={_fmt(axis[index[n]])}"
            for key, axis, index in zip(_DESIGN_KEYS, result.axes, result.index)
        )
        raise ValueError(f"design {point} has a pull/weight ratio of {_fmt(result.objective[n])}")
    if args.out is not None:
        _atomic_write(args.out, _design_chunks(result))
    print(
        f"evaluated {result.evaluated} designs ({result.invalid} invalid grid points): "
        f"{result.feasible} feasible"
    )
    if not result.feasible:
        worst = result.most_common_violation()
        if worst is not None:
            print(f"no feasible designs; most common violation: {worst}")
    elif args.out is None:
        print(b"".join(_design_chunks(result)).decode(), end="")
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    _bind("simulate")
    design = load_design(args.design)
    soil = load_soil(args.soil)
    drafts = load_draft_schedule(args.draft_schedule)
    cd_model = CriticalDepthModel(k0=args.k0, k1=args.k1)
    steps = predict_series(design, soil, drafts, cd_model)
    # A lift past the float range is returned as inf; it predicts nothing.
    infinite = np.flatnonzero(~np.isfinite(steps.lift_n))
    if infinite.size:
        step = steps[infinite[0]]
        raise ValueError(
            f"draft {_fmt(step.draft_n)} N at depth {_fmt(step.depth_m)} m "
            f"has a lift of {_fmt(step.lift_n)} N"
        )
    if args.out is not None:
        header = ["draft_N", "depth_m", "regime", "sustained", "thrust_deg", "rake_deg", "lift_N"]
        draft, depth, thrust, rake, lift = (
            _fmt_column(steps[name].tolist())
            for name in ("draft_n", "depth_m", "thrust_deg", "rake_deg", "lift_n")
        )
        regime = [mode.value for mode in steps.regime.tolist()]
        sustained = np.where(steps.sustained, "true", "false").tolist()
        rows = zip(draft, depth, regime, sustained, thrust, rake, lift)
        _atomic_write(args.out, [_csv_text(header, rows).encode()])
    if len(steps):
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
        "--depth-threshold", type=positive, help="landslide depth jump threshold (m)"
    )
    analyze.add_argument(
        "--motion-threshold", type=positive, help="landslide motion jump threshold (m)"
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
    design.add_argument("--k0", type=positive, default=6.0, help="critical-depth aspect ratio")
    design.add_argument("--k1", type=nonnegative, default=1.0, help="critical-depth rake sensitivity")

    simulate = sub.add_parser("simulate", help="forward model a draft schedule")
    simulate.add_argument("--design", required=True, type=Path, help="design JSON")
    simulate.add_argument("--soil", required=True, help="soil file or preset")
    simulate.add_argument("--draft-schedule", required=True, type=Path, help="schedule CSV")
    simulate.add_argument("--out", type=Path, help="predicted series CSV path")
    simulate.add_argument("--k0", type=positive, default=6.0, help="critical-depth aspect ratio")
    simulate.add_argument("--k1", type=nonnegative, default=1.0, help="critical-depth rake sensitivity")

    return parser


_COMMANDS = {
    "analyze": run_analyze,
    "crescent": run_crescent,
    "design": run_design,
    "simulate": run_simulate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Results are checked for overflow and nan; numpy warnings add nothing.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (ConfigError, UnicodeDecodeError) as exc:
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
