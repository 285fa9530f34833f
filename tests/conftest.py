import numpy as np
import pytest

from inflowcast.synth import ScenarioConfig, generate_scenario

TINY_CONFIG = """
[synth]
years = 5
members = 3
lead_days = 42

[horizons]
names = Forecast Week 1

[verification]
bootstrap = 20

[cost]
differential_min = 30
differential_max = 90
differential_step = 30
bootstrap = 20
"""


@pytest.fixture(scope="session")
def scenario5():
    """Shared 5-year scenario for integration-style tests."""
    return generate_scenario(ScenarioConfig(n_years=5, seed=101))


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """A 5-year, 3-member dataset run through synth, train, verify and cost-eval (Forecast Week 1)."""
    from inflowcast.cli import main

    out = tmp_path_factory.mktemp("tiny")
    (out / "run.ini").write_text(TINY_CONFIG)
    base = ["--config", str(out / "run.ini"), "--seed", "3"]
    data = ["--inflow", str(out / "inflow.csv"), "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]
    models = ["--models", str(out / "models.json")]
    assert main([*base, "synth", "--out", str(out)]) == 0
    assert main([*base, "train", *data]) == 0
    assert main([*base, "verify", *models, *data]) == 0
    assert main([*base, "cost-eval", *models, *data]) == 0
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20240915)
