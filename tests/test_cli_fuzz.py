"""Fuzz the CLI's input files: trial logs and design, soil, constraints and space JSON.

The property, for any input text: ``main`` returns 0, 2, 3 or 4 and
prints nothing to stderr on success; on exit 0 every number it prints
or writes is finite, or ``null`` in the JSON report.  The logs still
reach a vertical arm (``incl_deg`` 90), whose unbounded lift exits 3.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spiketrac.cli import main

EXIT_CODES = {0, 2, 3, 4}
_NUMBER = re.compile(
    r"(?<![\w.+-])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])", re.IGNORECASE
)

# Number text: ordinary values, extremes, and strings a float parser may take.
number_texts = st.one_of(
    st.floats(0.0, 100.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 10**6).map(str),
    st.sampled_from(
        ["1e308", "1e999", "-0", "nan", "inf", "-inf", "0x10", "1_0", "", " 7 ", "abc"]
    ),
)
json_values = st.one_of(
    st.floats(-2.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 10**4),
    st.sampled_from([0, 1e308, -1e308, 5e-324, 10**400, True, False, None, "1.0", [], {}]),
)
FLOAT_LITERALS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_finite_numbers(text: str, where: str) -> None:
    for token in _NUMBER.findall(text):
        assert math.isfinite(float(token)), f"{where}: {token!r} in {text!r}"


def _check_csv(path: Path) -> None:
    rows = path.read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        for name, cell in cells.items():
            try:
                value = float(cell)
            except ValueError:  # a label, such as the simulate regime
                continue
            assert math.isfinite(value), f"{path.name}: {name}={cell}"


def _check_outputs(code: int, stdout: str, stderr: str, outputs: list[Path]) -> None:
    assert code in EXIT_CODES, (code, stderr)
    if code != 0:
        assert stderr.count("\n") == 1 or stderr.startswith("usage:"), stderr
        return
    assert stderr == ""
    _check_finite_numbers(stdout, "stdout")
    for path in outputs:
        if not path.exists():
            continue
        if path.suffix == ".json":
            report = json.loads(path.read_text(encoding="utf-8"), parse_constant=float)
            _check_json_numbers(report, path.name)
        elif path.is_dir():
            for csv in sorted(path.glob("*.csv")):
                _check_csv(csv)
        else:
            _check_csv(path)


def _check_json_numbers(value, where: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _check_json_numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for item in value:
            _check_json_numbers(item, where)
    elif isinstance(value, float):
        assert math.isfinite(value), where


def _maybe_broken(draw, valid: st.SearchStrategy[str]) -> str:
    """A valid value nine times in ten, else any number text."""
    return draw(number_texts) if draw(st.integers(0, 9)) == 0 else draw(valid)


@st.composite
def trial_log_texts(draw) -> str:
    """Trial-log text: mostly well-formed, with any field or line possibly broken."""
    meta = {
        "site": draw(st.sampled_from(["dry", "moist"] * 5 + ["wet", ""])),
        "diameter_mm": _maybe_broken(draw, st.floats(5.0, 60.0).map(repr)),
        "radius_m": _maybe_broken(draw, st.floats(0.5, 2.0).map(repr)),
        "hinge_m": _maybe_broken(draw, st.floats(0.05, 0.15).map(repr)),
        "rake0_deg": _maybe_broken(draw, st.floats(20.0, 60.0).map(repr)),
        "vehicle_kg": _maybe_broken(draw, st.one_of(
            st.floats(1.0, 80.0).map(repr), st.sampled_from(["1e306", "1e308"])
        )),
        "pulley_mu": _maybe_broken(draw, st.floats(0.0, 0.5).map(repr)),
    }
    keys = list(meta)
    if draw(st.integers(0, 9)) == 0:
        del keys[draw(st.integers(0, len(keys) - 1))]
    lines = ["# " + " ".join(f"{key}={meta[key]}" for key in keys)]
    lines.append(draw(st.sampled_from(["step,basket_kg,motion_mm,incl_deg"] * 9 + ["step,basket"])))
    basket, motion, incl = 0.0, 0.0, draw(st.floats(0.0, 30.0))
    for index in range(draw(st.integers(0, 6))):
        basket += draw(st.one_of(st.floats(0.0, 400.0), st.sampled_from([1e16, 1e300, 1e308])))
        motion += draw(st.one_of(st.floats(0.0, 80.0), st.sampled_from([1e16, 1e300, 1e308])))
        incl = draw(st.one_of(st.floats(incl, 90.0), st.just(90.0)))
        fields = [str(index), repr(basket), repr(motion), repr(incl)]
        if draw(st.integers(0, 19)) == 0:
            fields[draw(st.integers(0, 3))] = draw(number_texts)
        lines.append(",".join(fields))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines) + "\n"


_FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(trial_log_texts(), st.sampled_from([[], ["--push-distance", "2"]]))
@_FUZZ
def test_analyze_any_trial_log(text, flags):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "log.csv").write_text(text, encoding="utf-8")
        out, series = root / "report.json", root / "series"
        code, stdout, stderr = _run([
            "analyze", "--log", str(root / "log.csv"), "--out", str(out),
            "--series", str(series), *flags,
        ])
        _check_outputs(code, stdout, stderr, [out, series])


def _json_text(draw, base: dict, values: st.SearchStrategy = json_values) -> str:
    """``base`` with values replaced, keys dropped or added, or a broken literal."""
    data = dict(base)
    for key in list(data):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            data[key] = draw(values)
        elif choice == 1 and draw(st.booleans()):
            del data[key]
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.sampled_from(["extra", "radius", "k0"]))] = 1.0
    text = json.dumps(data)
    if data and draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(sorted(data)))
        text = json.dumps({**data, key: "@@"}).replace('"@@"', draw(FLOAT_LITERALS))
    if draw(st.integers(0, 19)) == 0:
        text = draw(st.sampled_from(["", "[]", "{", "null", "1.0"]))
    return text


SOIL = {"bulk_density_kg_m3": 1720.0, "friction_angle_deg": 30.0,
        "moisture_label": "dry", "gravity_m_s2": 9.81}
DESIGN = {"radius_m": 1.34, "hinge_height_m": 0.09, "initial_rake_deg": 45.0,
          "diameter_mm": 21.0, "design_depth_m": 0.5, "tip_mass_kg": 0.0}
CONSTRAINTS = {"max_thrust_deg": 25.0, "window_low_deg": 15.0, "window_high_deg": 35.0,
               "require_lateral_at_design_depth": False}
SPACE = {
    "radius_m": (1.0, 0.25), "hinge_height_m": (0.05, 0.04),
    "initial_rake_deg": (30.0, 10.0), "diameter_mm": (10.0, 10.0),
    "design_depth_m": (0.2, 0.2),
}


@st.composite
def soil_texts(draw):
    return _json_text(draw, SOIL)


@st.composite
def design_texts(draw):
    return _json_text(draw, DESIGN)


@st.composite
def constraints_texts(draw):
    return _json_text(draw, CONSTRAINTS)


@st.composite
def space_texts(draw):
    """A space of at most 3 values per axis, so no grid outgrows memory.

    A broken range gets no number in place of another: a wider range or
    a finer step could make a grid of any size.
    """
    space = {}
    for name, (start, step) in SPACE.items():
        start = draw(st.one_of(st.just(start), st.floats(-1.0, 100.0)))
        step = draw(st.one_of(st.just(step), st.floats(1e-3, 50.0)))
        count = draw(st.integers(0, 2))
        space[name] = {"start": start, "stop": start + count * step, "step": step}
    if draw(st.integers(0, 9)) == 0:
        del space[draw(st.sampled_from(sorted(space)))]
    text = json.dumps(space)
    if draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(sorted(space)))
        entry = _json_text(draw, space[name], st.sampled_from([None, True, "1.0", [], {}]))
        text = json.dumps({**space, name: "@@"}).replace('"@@"', entry)
    return text


@given(soil_texts(), st.sampled_from(["active", "passive"]),
       st.sampled_from(["0.3", "0", "2.5", "1e150"]))
@_FUZZ
def test_crescent_any_soil(soil, law, depth):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "soil.json").write_text(soil, encoding="utf-8")
        curve = root / "curve.csv"
        code, stdout, stderr = _run([
            "crescent", "--depth", depth, "--width", "0.021", "--soil", str(root / "soil.json"),
            "--law", law, "--out", str(curve),
        ])
        _check_outputs(code, stdout, stderr, [curve])


@given(design_texts(), soil_texts(), st.lists(st.floats(0.0, 5000.0), max_size=4))
@_FUZZ
def test_simulate_any_design_and_soil(design, soil, drafts):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "design.json").write_text(design, encoding="utf-8")
        (root / "soil.json").write_text(soil, encoding="utf-8")
        schedule = "draft_N\n" + "".join(f"{d!r}\n" for d in sorted(drafts))
        (root / "drafts.csv").write_text(schedule, encoding="utf-8")
        out = root / "sim.csv"
        code, stdout, stderr = _run([
            "simulate", "--design", str(root / "design.json"), "--soil", str(root / "soil.json"),
            "--draft-schedule", str(root / "drafts.csv"), "--out", str(out),
        ])
        _check_outputs(code, stdout, stderr, [out])


@given(space_texts(), constraints_texts(), soil_texts(), st.booleans())
@_FUZZ
def test_design_any_space_and_constraints(space, constraints, soil, to_file):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, text in (("space", space), ("constraints", constraints), ("soil", soil)):
            (root / f"{name}.json").write_text(text, encoding="utf-8")
        out = root / "ranked.csv"
        argv = [
            "design", "--space", str(root / "space.json"),
            "--constraints", str(root / "constraints.json"), "--soil", str(root / "soil.json"),
        ]
        code, stdout, stderr = _run(argv + (["--out", str(out)] if to_file else []))
        _check_outputs(code, stdout, stderr, [out])
