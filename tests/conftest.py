import pytest

import ruelleop as ro


@pytest.fixture
def two_space():
    return ro.uniform_space(2)


@pytest.fixture
def three_space():
    return ro.uniform_space(3)
