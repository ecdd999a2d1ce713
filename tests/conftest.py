import pytest

from ncrewrite import minsky_utm, nilpotency_presentation, zerodivisor_presentation
from oracles import tiny_halting_machine, tiny_looping_machine


@pytest.fixture(scope="session")
def minsky():
    return minsky_utm()


@pytest.fixture(scope="session")
def p_nilp(minsky):
    return nilpotency_presentation(minsky)


@pytest.fixture(scope="session")
def p_zd(minsky):
    return zerodivisor_presentation(minsky)


@pytest.fixture(scope="session")
def tiny_halt():
    return tiny_halting_machine()


@pytest.fixture(scope="session")
def tiny_loop():
    return tiny_looping_machine()
