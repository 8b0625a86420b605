import pytest

from corpus import build_corpus

from rampsched import solve


@pytest.fixture(scope="session")
def corpus96():
    return build_corpus(96)


@pytest.fixture(scope="session")
def solved96(corpus96):
    """Converged solutions for every corpus scenario on the 96-node grid."""
    return {name: solve(sc) for name, sc in corpus96.items()}
