"""Traction modeling for interlocking ground spikes on granular soil.

Spike kinematics, crescent soil-failure mechanics, field trial-log
reduction, a quasi-static forward model, and spike design search, with a
CLI front end (``spiketrac``).
"""

import importlib

# Each module's public names.  A name is imported from its module on
# first access (PEP 562), so ``import spiketrac`` loads no module.
_EXPORTS = {
    "design": (
        "DesignConstraints", "DesignEvaluation", "DesignSpace", "GridSearchResult",
        "ParameterRange", "RankedDesign", "Violation", "evaluate_design", "grid_search",
        "pull_weight_ratio",
    ),
    "geometry": (
        "DEFAULT_HINGE_HEIGHT_M", "SpikeDesign", "depth_from_inclination", "lifting_force",
        "rake_angle", "thrust_angle", "tip_displacement",
    ),
    "simulate": ("lateral_onset_depth", "predict_series"),
    "soilmech": (
        "DRY_SAND", "MOIST_SAND", "CrescentResult", "CriticalDepthModel", "FailureMode",
        "ForceLaw", "SoilProperties", "crescent_force", "crescent_volume", "critical_depth",
        "failure_mode", "max_crescent_force",
    ),
    "trials": (
        "DerivedSeries", "EffectiveApplication", "PulleyRig", "TrialLog", "TrialLogError",
        "TrialMetadata", "VehicleConfig", "derive_series", "detect_landslides",
        "draft_from_basket", "estimate_effective_application", "landslide_filter",
        "parse_trial_log", "penetration_work", "stability_check", "tractive_efficiency",
        "write_trial_log",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
