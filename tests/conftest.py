import numpy as np
import pytest

import qgame


@pytest.fixture(scope="session")
def scores():
    return qgame.load_zscores(qgame.case_study_path().parent.parent / "data" / "zscores.csv")


@pytest.fixture(scope="session")
def loadings():
    return qgame.load_loadings(qgame.case_study_path().parent.parent / "data" / "loadings.csv")


@pytest.fixture(scope="session")
def case_study():
    return qgame.load_case_study()


@pytest.fixture(scope="session")
def case_trajectory(case_study):
    """The default-integrator case-study run, shared across tests."""
    return qgame.run_scenario(case_study)


@pytest.fixture(scope="session")
def case_trajectory_half_step(case_study):
    cfg = qgame.IntegratorConfig(method="rk4", step=0.005, t_end=50.0)
    return qgame.run_scenario(case_study, cfg)


@pytest.fixture(scope="session")
def case_trajectory_rk45(case_study):
    cfg = qgame.IntegratorConfig(method="rk45", step=0.01, t_end=50.0, tol=1e-9)
    return qgame.run_scenario(case_study, cfg)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.dirichlet(np.ones(n))
    return v / v.sum()
