import pytest

from latticegas import chain


def clear_chain_caches():
    """Forget every period of links ``transfer_chain`` keeps, with all the
    lazy state of its relations, and every sweep price ``_sweep`` keeps."""
    chain._links.cache_clear()
    chain._price.cache_clear()


@pytest.fixture(autouse=True)
def fresh_chains(request):
    """A test that patches module globals (it takes ``monkeypatch``) sees
    relations made afresh and prices taken afresh, and leaves none of
    those it made under its patches to the tests after it."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    clear_chain_caches()
    yield
    clear_chain_caches()


@pytest.fixture
def clear_chains():
    """``clear_chain_caches``, for a test to call where it needs the
    caches cold."""
    return clear_chain_caches
