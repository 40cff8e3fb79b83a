import pytest

from depcon import kernel


@pytest.fixture(autouse=True)
def no_kept_sums():
    """Start every test with no dataset's sums kept, so no test reads a build of
    another (one that patched ``DEGENERATE_SQ_NORM``, say) or depends on their order."""
    kernel._sums.clear()


@pytest.fixture
def builds(monkeypatch):
    """One entry per feature build: every build runs ``_product_blocks`` once."""
    calls = []
    original = kernel._product_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "_product_blocks", counted)
    return calls
