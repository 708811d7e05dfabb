import pytest

from opra.corpus import fixture_graph


@pytest.fixture(scope="session")
def fig2():
    return fixture_graph()


@pytest.fixture
def node(fig2):
    return lambda name: fig2.node_id(name)
