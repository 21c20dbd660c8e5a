import pytest
from trial_data import LARGE_FIELD_DESIGN

from spiketrac import (
    DRY_SAND,
    CriticalDepthModel,
    FailureMode,
    SpikeDesign,
    lateral_onset_depth,
    max_crescent_force,
    predict_series,
    thrust_angle,
)


class TestLateralOnset:
    def test_field_design_crosses_near_stub_prediction(self):
        # z_c(0.021 m, 45 deg) = 0.126 m at the surface pose; the rake
        # grows with depth so the crossing lands slightly deeper.
        onset = lateral_onset_depth(LARGE_FIELD_DESIGN)
        assert onset is not None
        assert 0.126 < onset < 0.20

    def test_zero_sensitivity_crossing_is_exact(self):
        model = CriticalDepthModel(k0=6.0, k1=0.0)
        onset = lateral_onset_depth(LARGE_FIELD_DESIGN, model)
        assert onset == pytest.approx(0.126, abs=1e-5)

    def test_no_crossing_within_design_depth(self):
        # A thick spike keeps its critical depth beyond the design range.
        thick = SpikeDesign(
            radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
            diameter_mm=200.0, design_depth_m=0.50,
        )
        assert lateral_onset_depth(thick) is None


class TestPredictSeries:
    def test_zero_draft_stays_on_surface(self):
        steps = predict_series(LARGE_FIELD_DESIGN, DRY_SAND, [0.0])
        assert steps[0].depth_m == 0.0
        assert steps[0].regime is FailureMode.CRESCENT
        assert steps[0].sustained

    def test_small_draft_finds_crescent_equilibrium(self):
        onset = lateral_onset_depth(LARGE_FIELD_DESIGN)
        capacity = max_crescent_force(onset, 0.021, DRY_SAND).force_n
        draft = 0.5 * capacity
        steps = predict_series(LARGE_FIELD_DESIGN, DRY_SAND, [draft])
        step = steps[0]
        assert step.regime is FailureMode.CRESCENT
        assert step.sustained
        assert 0 < step.depth_m < onset
        # The solved depth reacts the draft within the bisection tolerance.
        reaction = max_crescent_force(step.depth_m, 0.021, DRY_SAND).force_n
        assert reaction == pytest.approx(draft, rel=1e-3)

    def test_large_draft_enters_lateral_regime(self):
        steps = predict_series(LARGE_FIELD_DESIGN, DRY_SAND, [2000.0])
        step = steps[0]
        assert step.regime is FailureMode.LATERAL
        assert step.sustained
        assert step.depth_m == pytest.approx(lateral_onset_depth(LARGE_FIELD_DESIGN))

    def test_depth_monotone_along_schedule(self):
        drafts = [0.0, 2.0, 5.0, 10.0, 50.0, 400.0, 2000.0]
        steps = predict_series(LARGE_FIELD_DESIGN, DRY_SAND, drafts)
        depths = [s.depth_m for s in steps]
        assert depths == sorted(depths)
        assert steps[-1].thrust_deg == pytest.approx(
            thrust_angle(LARGE_FIELD_DESIGN, depths[-1])
        )

    def test_capacity_exceeded_without_lateral_regime(self):
        thick = SpikeDesign(
            radius_m=1.34, hinge_height_m=0.09, initial_rake_deg=45.0,
            diameter_mm=200.0, design_depth_m=0.30,
        )
        capacity = max_crescent_force(0.30, 0.2, DRY_SAND).force_n
        steps = predict_series(thick, DRY_SAND, [capacity * 2])
        step = steps[0]
        assert not step.sustained
        assert step.depth_m == 0.30
        assert step.regime is FailureMode.CRESCENT

    def test_rejects_negative_draft(self):
        with pytest.raises(ValueError, match="draft_n"):
            predict_series(LARGE_FIELD_DESIGN, DRY_SAND, [-5.0])
