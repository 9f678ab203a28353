import pytest

from speclab import surface as sf
from speclab.generator import generate
from speclab.harness import Session
from speclab.instances import load_instance

_SESSIONS = {}


def get_session(label):
    if label not in _SESSIONS:
        _SESSIONS[label] = Session(load_instance(label))
    return _SESSIONS[label]


@pytest.fixture(scope="session")
def ell4():
    return get_session("ell4")


@pytest.fixture(scope="session")
def g2_23():
    return get_session("g2-23")


@pytest.fixture(scope="session")
def g2_5():
    return get_session("g2-5")


@pytest.fixture(scope="session")
def g2_resfree():
    return get_session("g2-resfree")


@pytest.fixture(scope="session")
def drawn_curves():
    """One cold curve per n = 2 generator recipe."""
    return [sf.build_surface(generate(label, seed_base=7))
            for label in ("ell4", "g2-5", "g2-23", "g2-resfree")]
