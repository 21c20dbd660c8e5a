import pytest
from trial_data import LARGE_FIELD_DESIGN, SMALL_FIELD_DESIGN, sample_log_text

from spiketrac import SpikeDesign


@pytest.fixture
def small_design() -> SpikeDesign:
    return SMALL_FIELD_DESIGN


@pytest.fixture
def large_design() -> SpikeDesign:
    return LARGE_FIELD_DESIGN


@pytest.fixture
def sample_log_path(tmp_path):
    path = tmp_path / "trial.csv"
    path.write_text(sample_log_text(), encoding="utf-8")
    return path
