import pytest

from twistcert.congruence import quotient_closure


@pytest.fixture(scope="session")
def closure_table():
    """Shared genus-2 closure; computed once per test session."""
    return quotient_closure()


@pytest.fixture
def example_word_text():
    return "d1^-2 c1^-2 a1 d1^-2 b2 b1"


# The known genus-2 homology action of the example word, all 16 entries.
EXAMPLE_MATRIX_ROWS = (
    (1, 0, 3, -2),
    (0, 1, -2, 2),
    (-1, 0, -2, 2),
    (0, -1, 2, -1),
)


@pytest.fixture
def example_matrix_rows():
    return EXAMPLE_MATRIX_ROWS
