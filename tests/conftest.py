import numpy as np
import pytest

from stablepairs.forms import build_x_pair
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.verify import rational_normal_curve

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, title: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:2d}: {title}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


def generic_matrix(n1: int):
    """The n1 x (n1 + 1) matrix whose entries are the variables of
    VariableShape.matrix(n1, n1 + 1), row by row."""
    shape = VariableShape.matrix(n1, n1 + 1)
    return [[HomogeneousPolynomial.monomial(shape, [int(k == r * (n1 + 1) + c)
                                                     for k in range(shape.nvars)])
             for c in range(n1 + 1)] for r in range(n1)]


@pytest.fixture(scope="session")
def conic_curve():
    return rational_normal_curve(2)


@pytest.fixture(scope="session")
def cubic_curve():
    return rational_normal_curve(3)


@pytest.fixture(scope="session")
def conic_xpair(conic_curve):
    return build_x_pair(conic_curve)


@pytest.fixture(scope="session")
def cubic_xpair(cubic_curve):
    return build_x_pair(cubic_curve)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)

