import pytest

from upst.graph import CirculantSpec


@pytest.fixture
def circ3():
    """Circ(0, -i, i): the order-3 dense circulant with entries in Q(i)."""
    return CirculantSpec.from_rows(3, 4, [[0, 0], [0, -1], [0, 1]], 1)


@pytest.fixture
def nd6():
    """The non-dense order-6 circulant (a_1 = a_5 = 0), diagonal left at 0."""
    from upst.constructors import nondense_circulant

    return nondense_circulant(2, 3)
