import pytest

from freecert.bell import povm_instance


@pytest.fixture
def povm_sdp():
    return povm_instance
