import pytest

from sparsebeam import assemble, bundled_scenario_path, load_scenario

from helpers import constraints_of


@pytest.fixture(scope="session")
def paper_scenario():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def paper_problem(paper_scenario):
    return assemble(paper_scenario)


@pytest.fixture(scope="session")
def paper_constraints(paper_scenario):
    """The paper problem's rows as the reference objects of ``helpers``."""
    return constraints_of(paper_scenario)
