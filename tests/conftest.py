import pytest

from elastic_schwarz.analysis import ElasticMedium


@pytest.fixture(scope="session")
def medium() -> ElasticMedium:
    """Reference medium of all the experiments: cp=1, cs=0.5, rho=1."""
    return ElasticMedium.from_speeds(rho=1.0, cp=1.0, cs=0.5)


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts the subdomain factorizations `schwarz` makes."""
    from elastic_schwarz import schwarz

    calls = []
    original = schwarz.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(schwarz, "splu", counting)
    return calls


@pytest.fixture(scope="session")
def poisoned_solve():
    """Factory of `RestrictedSolve` subclasses whose calls after the first
    ``clean`` ones return inf: a subdomain solve that breaks down mid-run,
    the one way left for a finite load to meet a non-finite residual."""
    import numpy as np

    from elastic_schwarz.schwarz import RestrictedSolve

    def make(clean: int):
        class Poisoned(RestrictedSolve):
            calls = 0

            def __call__(self, v):
                self.calls += 1
                z = super().__call__(v)
                return z if self.calls <= clean else np.full_like(z, np.inf)

        return Poisoned

    return make


@pytest.fixture(scope="session")
def wrong_factor():
    """Factory of `splu` stand-ins whose factors' `solve` is off by a
    relative ``error``: a subdomain factorization gone bad without
    raising, which only the factor check of `RestrictedSolve` sees."""
    from scipy.sparse.linalg import splu

    def make(error: float):
        class Wrong:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return (1.0 + error) * self.lu.solve(rhs)

        return lambda matrix, **kwargs: Wrong(splu(matrix, **kwargs))

    return make
