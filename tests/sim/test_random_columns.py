"""``random_columns`` against its reference, ``random.Random``."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import rng
from repro.sim.rng import random_columns

np = pytest.importorskip("numpy")

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.fixture(scope="module", autouse=True)
def columns_at_any_width():
    """Every block takes the column path, however narrow."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_MIN_COLUMNS", 0)
        yield


def reference(seed, n):
    stream = random.Random(seed)
    return [stream.random() for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    n=st.integers(0, 330),
)
@example(seeds=EDGES, n=0)
@example(seeds=EDGES, n=1)
@example(seeds=EDGES, n=312)
@example(seeds=EDGES, n=313)  # word 626: past one full twist
@example(seeds=EDGES, n=700)  # a full second twist: word 623 reads the new word 0
def test_every_column_is_the_seeds_random_stream(seeds, n):
    columns = random_columns(seeds, n)
    assert columns.shape == (n, len(seeds))
    assert columns.dtype == np.float64
    for i, seed in enumerate(seeds):
        assert columns[:, i].tolist() == reference(seed, n)


def test_blocks_of_mixed_key_lengths_split_nowhere(monkeypatch):
    """Seven-seed blocks: a call spans several, each mixing one-word keys
    (below ``2**32``) with two-word ones."""
    monkeypatch.setattr(rng, "_BLOCK", 7)
    seeds = EDGES + [5, 2**32 + 5, 2**40, 17, 3**40, 2**33 - 1, 12345, 2**63]
    columns = random_columns(seeds, 40)
    assert [columns[:, i].tolist() for i in range(len(seeds))] == [
        reference(seed, 40) for seed in seeds
    ]


def test_narrow_blocks_seed_through_random_random(monkeypatch):
    """Blocks below ``_MIN_COLUMNS`` seeds call ``random.Random`` itself;
    one call may mix both paths."""
    monkeypatch.setattr(rng, "_BLOCK", 7)
    monkeypatch.setattr(rng, "_MIN_COLUMNS", 5)
    seeds = EDGES + [5, 2**32 + 5, 2**40, 17, 3**40, 2**33 - 1, 12345, 2**63, 9, 2**50]
    columns = random_columns(seeds, 30)
    assert [columns[:, i].tolist() for i in range(len(seeds))] == [
        reference(seed, 30) for seed in seeds
    ]
