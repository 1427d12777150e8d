import functools

import pytest

from gridcycles import transfer


@pytest.fixture(scope="session")
def shared_build():
    """``shared_build(builder, m)`` is ``transfer.<builder>(m)``, built once per
    session for every test that asks for it.  A test that counts builds by
    monkeypatching a builder must build its own."""
    return functools.lru_cache(maxsize=None)(lambda builder, m: getattr(transfer, builder)(m))
