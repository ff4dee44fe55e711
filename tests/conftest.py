import numpy as np
import pytest

from mfgp_search import Bump, FidelityModel, GridDomain, MissionConfig


@pytest.fixture(scope="session")
def desk_domain():
    return GridDomain(0.0, 20.0, 0.0, 20.0, 20)


@pytest.fixture(scope="session")
def desk_model():
    return FidelityModel(
        mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.12, 0.08), z=(8.0, 4.0)
    )


@pytest.fixture(scope="session")
def desk_config(desk_domain, desk_model):
    return MissionConfig(
        domain=desk_domain, model=desk_model, delta=0.1, th=0.3, seed=0, max_epochs=8
    )


@pytest.fixture(scope="session")
def planted_config(desk_domain):
    model = FidelityModel(
        mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.08, 0.05), z=(8.0, 4.0)
    )
    bumps = (
        Bump(4.5, 4.5, 1.2, 2.2),
        Bump(14.5, 6.5, 1.2, 2.2),
        Bump(8.5, 15.5, 1.2, 2.2),
    )
    return MissionConfig(
        domain=desk_domain,
        model=model,
        delta=0.1,
        th=0.5,
        seed=0,
        mode="planted",
        bumps=bumps,
        background=-0.1,
        max_epochs=30,
    )


def random_mixed_log(domain, model, rng, n):
    """Random cell picks and values with a sorted (hence valid) fidelity order."""
    from mfgp_search import SampleLog

    idx = rng.integers(0, domain.n_cells, size=n)
    fids = np.sort(rng.integers(1, model.levels + 1, size=n))
    values = rng.normal(0.0, 1.0, size=n)
    log = SampleLog(domain)
    for c, m, y in zip(idx, fids, values):
        log.append(int(c), float(y), int(m))
    return log
