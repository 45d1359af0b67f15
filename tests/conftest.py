import functools

import pytest

from sqsplit.entangle import log_negativity_mixed
from sqsplit.statekit import mixed_split_state


@pytest.fixture(scope="session")
def untruncated_log_negativity():
    """log_negativity_mixed of mixed_split_state(n, t, window=0), once per
    (n, t) in a session: at n = 800 each value takes about 1 s, and the
    library and command-line tests both read it."""

    @functools.cache
    def value(n, t):
        return log_negativity_mixed(mixed_split_state(n, t, window=0.0))

    return value
