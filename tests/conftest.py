import tracemalloc

import pytest

from ofanet import ndtensor as ndt


@pytest.fixture(autouse=True)
def _fresh_tape():
    """Keep graph residue from one test out of the next."""
    ndt.active_tape().clear()
    yield
    ndt.active_tape().clear()


@pytest.fixture()
def traced_peak():
    """``traced_peak(call)``: the peak bytes that tracemalloc sees while ``call()`` runs."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
