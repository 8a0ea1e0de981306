import pytest

from latticegas import chain


def clear_chain_caches():
    """Forget every period of links ``transfer_chain`` keeps, with all the
    lazy state of its relations, every kernel ``_kernel`` picked and
    every sweep price ``_sweep`` keeps."""
    chain._links.cache_clear()
    chain._kernel.cache_clear()
    chain._price.cache_clear()


@pytest.fixture(autouse=True)
def fresh_chains(request):
    """A test that patches module globals (it takes ``monkeypatch``) sees
    relations made afresh and picks and prices taken afresh, and leaves
    none of those it made under its patches to the tests after it."""
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


@pytest.fixture
def pick():
    """The kernel a relation's push takes for a stack this wide: the one
    ``_kernel`` picks for the relation's sizes."""

    def kernel(link, stack):
        rows, _, cols, bits, orbits, keys = link._dims
        return chain._kernel(rows, cols, bits, stack, orbits, keys)[1]

    return kernel
