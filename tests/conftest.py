import pytest

from depcon import kernel


@pytest.fixture(autouse=True)
def no_kept_sums():
    """Start every test with no dataset's sums kept, so no test reads a build of
    another (one that patched ``DEGENERATE_SQ_NORM``, say) or depends on their order."""
    kernel._sums.clear()
