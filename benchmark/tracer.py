"""Timing and counting shims around the package's module boundaries.

The tracer replaces functions in the namespace of the module that calls
them (``spiketrac.simulate.max_crescent_force`` is the scan as the
forward model sees it), so nothing under ``src/`` changes.  It wraps:

* every function a package module imports from another package module;
* the named sites in ``NAMED`` (entry points and module-internal stages).

Each call is a span.  Spans are aggregated in memory per call site as
they close: calls, total time, self time (the span minus the wrapped
spans inside it) and counters read from the result.  A site whose
function no longer exists is skipped, and every metric that needs it is
left out rather than reported wrong.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

PACKAGE = "spiketrac"
LAYERS = ("cli", "trials", "geometry", "soilmech", "design", "simulate")
_LOADERS = ("load_soil", "load_design", "load_constraints", "load_space", "load_draft_schedule")

# (calling module, function) -> span name, for sites the metrics single out.
NAMED = {
    ("cli", "main"): "cli.main",
    **{("cli", name): "cli.load" for name in _LOADERS},
    ("cli", "parse_trial_log"): "trials.parse",
    ("cli", "derive_series"): "trials.derive",
    ("cli", "detect_landslides"): "trials.detect",
    ("cli", "landslide_filter"): "trials.filter",
    ("cli", "stability_check"): "trials.stability",
    ("cli", "estimate_effective_application"): "trials.kappa",
    ("cli", "max_crescent_force"): "soilmech.scan",
    ("simulate", "max_crescent_force"): "soilmech.scan",
    ("design", "critical_depth"): "soilmech.critical_depth",
    ("simulate", "critical_depth"): "soilmech.critical_depth",
    ("cli", "grid_search"): "design.search",
    ("design", "evaluate_design"): "design.evaluate",
    ("cli", "predict_series"): "simulate.predict",
    ("simulate", "lateral_onset_depth"): "simulate.onset",
}

# span name -> counters read from each call's result.
COUNTERS = {
    "trials.parse": {"trials.steps": len},
    "trials.detect": {"trials.events": len},
    "soilmech.scan": {"soilmech.scan_points": lambda result: len(result.curve)},
    "design.search": {
        "design.feasible": lambda result: len(result.ranked),
        "design.invalid": lambda result: result.invalid,
    },
    "simulate.predict": {
        "simulate.drafts": len,
        "simulate.unsustained": lambda steps: sum(not step.sustained for step in steps),
    },
}


class Site:
    """Aggregated spans of one wrapped call site."""

    __slots__ = ("span", "calls", "total", "self_time", "counts", "broken")

    def __init__(self, span: str):
        self.span = span
        self.broken: set[str] = set()
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = dict.fromkeys(COUNTERS.get(self.span, {}), 0)


class Tracer:
    """Installs the shims, aggregates spans, and restores the package."""

    def __init__(self) -> None:
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        self.sites: dict[tuple[str, str], Site] = {}
        self.missing: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []
        self._stack = [0.0]

    def _targets(self):
        for (layer, name), span in NAMED.items():
            fn = getattr(self.modules.get(layer), name, None)
            if inspect.isfunction(fn):
                yield layer, name, span, fn
            else:
                self.missing.add(span)
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                owner = getattr(fn, "__module__", "") or ""
                if (
                    inspect.isfunction(fn)
                    and (layer, name) not in NAMED
                    and owner.startswith(f"{PACKAGE}.")
                    and owner != module.__name__
                ):
                    yield layer, name, f"{owner.rsplit('.', 1)[1]}.{name}", fn

    def install(self) -> None:
        for layer, name, span, fn in list(self._targets()):
            site = self.sites.setdefault((layer, name), Site(span))
            module = self.modules[layer]
            self._originals.append((module, name, fn))
            setattr(module, name, self._wrap(site, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def reset(self) -> None:
        for site in self.sites.values():
            site.clear()

    def _wrap(self, site: Site, fn):
        stack = self._stack
        counters = tuple(COUNTERS.get(site.span, {}).items())

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = stack.pop()
                site.calls += 1
                site.total += end - start
                site.self_time += end - start - inner
                stack[-1] += end - start
            if counters:
                for counter, count in counters:
                    try:
                        site.counts[counter] += count(result)
                    except (AttributeError, TypeError):
                        site.broken.add(counter)
                # Counting is charged to no span: the caller's self time skips it.
                stack[-1] += perf_counter() - end
            return result

        return shim

    def snapshot(self) -> dict:
        """The aggregated spans so far, one entry per call site."""
        return {
            f"{layer}:{name}": {
                "span": site.span, "calls": site.calls, "total_s": site.total,
                "self_s": site.self_time, "counts": dict(site.counts),
            }
            for (layer, name), site in self.sites.items()
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans so far; unmeasurable ones are left out."""
        view = _View(self)
        out = {}
        for name, formula in METRICS.items():
            try:
                out[name] = formula(view)
            except _Unmeasured:
                continue
        return out


class _Unmeasured(Exception):
    pass


class _View:
    """Sums over the sites of a span; raises _Unmeasured for a missing one."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def _sites(self, span: str, layer: str | None = None) -> list[Site]:
        if span in self.tracer.missing:
            raise _Unmeasured(span)
        found = [
            site for (caller, _), site in self.tracer.sites.items()
            if site.span == span and (layer is None or caller == layer)
        ]
        if not found:
            raise _Unmeasured(span)
        return found

    def total(self, *spans: str) -> float:
        return sum(site.total for span in spans for site in self._sites(span))

    def self_time(self, *spans: str) -> float:
        return sum(site.self_time for span in spans for site in self._sites(span))

    def calls(self, span: str, layer: str | None = None) -> int:
        return sum(site.calls for site in self._sites(span, layer))

    def count(self, span: str, counter: str) -> int:
        sites = self._sites(span)
        if any(counter in site.broken for site in sites):
            raise _Unmeasured(counter)
        return sum(site.counts[counter] for site in sites)

    def layer(self, layer: str) -> list[Site]:
        found = [site for site in self.tracer.sites.values()
                 if site.span.split(".", 1)[0] == layer]
        if not found:
            raise _Unmeasured(layer)
        return found


def _scans_per_draft(view: _View) -> float:
    drafts = view.count("simulate.predict", "simulate.drafts")
    return view.calls("soilmech.scan", layer="simulate") / drafts if drafts else 0.0


METRICS = {
    "cli.self_s": lambda v: v.self_time("cli.main", "cli.load"),
    "cli.load_s": lambda v: v.total("cli.load"),
    "trials.parse_s": lambda v: v.total("trials.parse"),
    "trials.derive_s": lambda v: v.total("trials.derive"),
    "trials.landslide_s": lambda v: v.total("trials.detect", "trials.filter"),
    "trials.stability_s": lambda v: v.total("trials.stability", "trials.kappa"),
    "trials.steps": lambda v: v.count("trials.parse", "trials.steps"),
    "trials.events": lambda v: v.count("trials.detect", "trials.events"),
    "geometry.calls": lambda v: sum(site.calls for site in v.layer("geometry")),
    "geometry.s": lambda v: sum(site.total for site in v.layer("geometry")),
    "soilmech.scans": lambda v: v.calls("soilmech.scan"),
    "soilmech.scan_s": lambda v: v.total("soilmech.scan"),
    "soilmech.scan_points": lambda v: v.count("soilmech.scan", "soilmech.scan_points"),
    "soilmech.critical_depth_calls": lambda v: v.calls("soilmech.critical_depth"),
    "design.search_s": lambda v: v.total("design.search"),
    "design.evaluate_calls": lambda v: v.calls("design.evaluate"),
    "design.evaluate_s": lambda v: v.total("design.evaluate"),
    "design.rank_self_s": lambda v: v.self_time("design.search"),
    "design.feasible": lambda v: v.count("design.search", "design.feasible"),
    "design.invalid": lambda v: v.count("design.search", "design.invalid"),
    "simulate.onset_s": lambda v: v.total("simulate.onset"),
    "simulate.predict_s": lambda v: v.total("simulate.predict"),
    "simulate.drafts": lambda v: v.count("simulate.predict", "simulate.drafts"),
    "simulate.scans_per_draft": _scans_per_draft,
    "simulate.unsustained": lambda v: v.count("simulate.predict", "simulate.unsustained"),
}
