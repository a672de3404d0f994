import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

TINY = {
    "LARGE_LEXEMES": 40, "LARGE_DIM": 8, "EVAL_FORMS": 20, "BIN_WIDTH": 40, "NUM_BINS": 8,
    "TRAIN_EPOCHS": 3, "STREAM_LEXEMES": 24, "STREAM_DIM": 8, "STREAM_TOKENS": 300,
    "STREAM_OOV_TOKENS": 15, "NOVEL_STEMS": 3,
}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's world to a few hundred forms."""
    import worlds

    for name, value in TINY.items():
        monkeypatch.setattr(worlds, name, value)
