"""Invariant checks that go beyond single frozen examples."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trial_data import log_of_rows

from spiketrac import (
    DerivedSeries,
    SoilProperties,
    SpikeDesign,
    TrialLog,
    TrialMetadata,
    VehicleConfig,
    crescent_force,
    crescent_volume,
    critical_depth,
    derive_series,
    estimate_effective_application,
    lifting_force,
    parse_trial_log,
    penetration_work,
    stability_check,
    thrust_angle,
    write_trial_log,
)


@st.composite
def spike_designs(draw) -> SpikeDesign:
    radius = draw(st.floats(0.2, 3.0))
    hinge = radius * draw(st.floats(0.05, 0.8))
    depth = (radius - hinge) * draw(st.floats(0.05, 1.0))
    return SpikeDesign(
        radius_m=radius,
        hinge_height_m=hinge,
        initial_rake_deg=draw(st.floats(5.0, 85.0)),
        diameter_mm=draw(st.floats(5.0, 60.0)),
        design_depth_m=depth,
    )


class TestGeometryInvariants:
    @given(spike_designs(), st.floats(0.0, 1.0), st.floats(1e-6, 0.5))
    def test_thrust_strictly_increasing(self, design, frac, delta):
        z1 = design.max_depth_m * frac * 0.5
        z2 = min(z1 + delta, design.max_depth_m)
        if z2 > z1:
            assert thrust_angle(design, z2) > thrust_angle(design, z1)

    @given(st.floats(0.1, 5000.0), st.floats(0.5, 89.0), st.floats(0.1, 500.0), st.floats(0.1, 0.9))
    def test_lift_increasing_in_both_arguments(self, draft, thrust, dd, dt):
        # Strict growth holds away from the degenerate zero edges.
        base = lifting_force(draft, thrust)
        assert lifting_force(draft + dd, thrust) > base
        assert lifting_force(draft, min(thrust + dt, 89.9)) > base


class TestCrescentInvariants:
    @given(
        st.floats(0.01, 0.8),
        st.floats(5.0, 85.0),
        st.floats(0.005, 0.1),
        st.floats(0.001, 0.2),
    )
    def test_volume_monotone_in_depth_and_width(self, depth, beta, width, bump):
        base = crescent_volume(depth, beta, width)
        assert crescent_volume(depth + bump, beta, width) > base
        assert crescent_volume(depth, beta, width + bump) > base

    @given(st.floats(0.01, 0.8), st.floats(5.0, 84.0), st.floats(0.005, 0.1), st.floats(0.1, 5.0))
    def test_volume_decreasing_in_beta(self, depth, beta, width, step):
        higher = min(beta + step, 89.5)
        assert crescent_volume(depth, higher, width) < crescent_volume(depth, beta, width)

    @given(
        st.floats(0.01, 0.8),
        st.floats(31.0, 89.0),
        st.floats(0.005, 0.1),
        st.floats(1.2, 4.0),
    )
    def test_force_scales_linearly_in_density_and_gravity(self, depth, beta, width, factor):
        dry = SoilProperties(1720.0, 30.0, "dry")
        scaled_rho = SoilProperties(1720.0 * factor, 30.0, "dry")
        scaled_g = SoilProperties(1720.0, 30.0, "dry", gravity_m_s2=9.81 * factor)
        base = crescent_force(depth, beta, width, dry)
        assert crescent_force(depth, beta, width, scaled_rho) == pytest.approx(factor * base)
        assert crescent_force(depth, beta, width, scaled_g) == pytest.approx(factor * base)

    def test_active_force_vanishes_at_domain_edges(self):
        dry = SoilProperties(1720.0, 30.0, "dry")
        near_phi = crescent_force(0.3, 30.0 + 1e-6, 0.021, dry)
        near_vertical = crescent_force(0.3, 90.0 - 1e-6, 0.021, dry)
        interior = crescent_force(0.3, 50.0, 0.021, dry)
        assert near_phi < 1e-3 * interior
        assert near_vertical < 1e-3 * interior

    @given(st.floats(0.005, 0.1), st.floats(5.0, 85.0), st.floats(1.5, 6.0))
    def test_critical_depth_ratio_width_independent(self, width, rake, scale):
        z1 = critical_depth(width, rake)
        z2 = critical_depth(width * scale, rake)
        assert z2 / (width * scale) == pytest.approx(z1 / width)

    @given(st.floats(0.005, 0.1), st.floats(5.0, 80.0), st.floats(0.5, 9.0))
    def test_critical_depth_nondecreasing_in_rake(self, width, rake, step):
        higher = min(rake + step, 89.0)
        assert critical_depth(width, higher) >= critical_depth(width, rake)


@st.composite
def trial_logs(draw) -> TrialLog:
    n = draw(st.integers(0, 12))
    metadata = TrialMetadata(
        site=draw(st.sampled_from(["dry", "moist"])),
        diameter_mm=draw(st.floats(5.0, 60.0)),
        radius_m=draw(st.floats(0.5, 2.0)),
        hinge_m=draw(st.floats(0.05, 0.15)),
        rake0_deg=draw(st.floats(20.0, 60.0)),
        vehicle_kg=draw(st.floats(4.0, 80.0)),
        pulley_mu=draw(st.floats(0.0, 0.5)),
    )
    rows = []
    basket = 0.0
    motion = 0.0
    incl = draw(st.floats(0.0, 30.0))
    index = draw(st.integers(0, 3))
    for _ in range(n):
        rows.append((index, basket, motion, incl))
        index += draw(st.integers(1, 3))
        basket += draw(st.floats(0.0, 40.0))
        motion += draw(st.floats(0.0, 80.0))
        incl = min(incl + draw(st.floats(0.0, 4.0)), 90.0)
    return log_of_rows(metadata, rows)


class TestTrialPipelineInvariants:
    @given(trial_logs())
    def test_write_parse_round_trip_is_exact(self, log):
        buffer = io.StringIO()
        write_trial_log(log, buffer)
        assert parse_trial_log(io.StringIO(buffer.getvalue())) == log

    @given(trial_logs())
    @settings(max_examples=30)
    def test_derivation_is_deterministic(self, log):
        assert derive_series(log) == derive_series(log)

    def test_linear_compliance_gives_quadratic_work(self):
        # Force proportional to tip travel: F = c x.  The trapezoid rule is
        # exact on the linear path, so W(F) = F^2 / (2c) step for step.
        c = 5000.0
        forces = [0.0, 250.0, 600.0, 1300.0, 2000.0]
        series = DerivedSeries(
            draft_n=forces,
            depth_m=[0.0] * 5,
            thrust_deg=[0.0] * 5,
            lift_n=[0.0] * 5,
            tip_x_m=[f / c for f in forces],
            cumulative_work_j=[0.0] * 5,
            motion_m=[0.0] * 5,
            airborne=[False] * 5,
        )
        work = penetration_work(series)
        for force, w in zip(forces, work):
            assert w == pytest.approx(force**2 / (2 * c), rel=1e-9)
        # Work per unit draft recovers F/(2c) exactly on this model.
        assert work[-1] / forces[-1] == pytest.approx(forces[-1] / (2 * c), rel=1e-2)

    def test_liftoff_crossing_monotone_in_draft(self):
        # Fixed pose, growing draft: once the margin goes negative it stays.
        thrust = 35.0
        drafts = [100.0 * i for i in range(12)]
        series = DerivedSeries(
            draft_n=drafts,
            depth_m=[0.3] * 12,
            thrust_deg=[thrust] * 12,
            lift_n=[lifting_force(d, thrust) for d in drafts],
            tip_x_m=[0.0] * 12,
            cumulative_work_j=[0.0] * 12,
            motion_m=[0.0] * 12,
            airborne=[False] * 12,
        )
        flags = stability_check(series, VehicleConfig(total_mass_kg=50.0)).tolist()
        assert flags == sorted(flags)  # False ... False True ... True
        assert any(flags) and not all(flags)

    @given(trial_logs())
    @settings(max_examples=30)
    def test_kappa_is_one_without_contradiction(self, log):
        series = derive_series(log)
        vehicle = VehicleConfig(total_mass_kg=1e9)  # nothing can lift this
        design = log.metadata.spike_design
        result = estimate_effective_application(series, design, vehicle)
        assert result.kappa == 1.0
        assert not result.inconsistent
