"""Shared test set-up."""

import pytest

from qoscompose import leveling


@pytest.fixture(autouse=True)
def cold_training_memo():
    """Start every test with an empty classifier memo, so no result depends on test order.

    A test that replaces `leveling.train_classifier` sees its stand-in
    called only when its request misses the memo.
    """
    leveling._trained.cache_clear()
