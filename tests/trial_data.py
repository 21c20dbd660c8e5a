"""Field-trial designs and a synthetic trial log shared by the tests."""

from spiketrac import SpikeDesign

# The two field-trial geometries: 58 cm radius rebar spike (15 cm design
# depth) and the 134 cm radius rod spike (50 cm design depth).
SMALL_FIELD_DESIGN = SpikeDesign(
    radius_m=0.58,
    hinge_height_m=0.09,
    initial_rake_deg=45.0,
    diameter_mm=12.0,
    design_depth_m=0.15,
    tip_mass_kg=0.7,
)
LARGE_FIELD_DESIGN = SpikeDesign(
    radius_m=1.34,
    hinge_height_m=0.09,
    initial_rake_deg=45.0,
    diameter_mm=21.0,
    design_depth_m=0.50,
    tip_mass_kg=2.9,
)



def sample_log_text(n_steps: int = 20, jump_steps: tuple[int, ...] = (7, 14)) -> str:
    """Deterministic synthetic trial log with landslide jumps at known steps.

    Smooth steps advance 5 mm / 0.3 deg per load increment (below the
    default landslide thresholds); jump steps advance 40 mm / 2.5 deg.
    """
    lines = [
        "# site=dry diameter_mm=21.0 radius_m=1.34 hinge_m=0.09 rake0_deg=45.0 "
        "vehicle_kg=50.0 pulley_mu=0.23",
        "step,basket_kg,motion_mm,incl_deg",
    ]
    motion = 0.0
    incl = 4.0
    for i in range(n_steps):
        if i > 0:
            if i in jump_steps:
                motion += 40.0
                incl += 2.5
            else:
                motion += 5.0
                incl += 0.3
        lines.append(f"{i},{10.0 * i!r},{motion!r},{round(incl, 4)!r}")
    return "\n".join(lines) + "\n"
