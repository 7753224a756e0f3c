import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import DataError, plan_epoch


def test_paper_instance():
    batches = plan_epoch((1000, 620, 260), max_batch=200, seed=0)
    assert len(batches) == 5
    assert tuple(map(len, batches[0])) == (200, 124, 52)


def test_single_iteration():
    batches = plan_epoch((10, 10, 10), max_batch=10)
    assert len(batches) == 1
    assert tuple(map(len, batches[0])) == (10, 10, 10)


def test_short_final_batch():
    batches = plan_epoch((7, 3, 2), max_batch=3)
    assert len(batches) == 3
    assert tuple(map(len, batches[0])) == (3, 1, 1)
    assert len(batches[2][0]) == 1  # 7 = 3 + 3 + 1


def test_empty_set_rejected():
    with pytest.raises(DataError):
        plan_epoch((5, 0), max_batch=2)
    with pytest.raises(DataError):
        plan_epoch((5, 3), max_batch=0)


def test_joint_batch_sizes_and_tags():
    sets = [[f"a{i}" for i in range(1000)], [f"b{i}" for i in range(620)], [f"c{i}" for i in range(260)]]
    batch = plan_epoch([len(s) for s in sets], max_batch=200, seed=1)[0]
    assert sum(len(rows) for rows in batch) == 376
    tags = Counter({si: len(rows) for si, rows in enumerate(batch)})
    assert tags == {0: 200, 1: 124, 2: 52}


def test_epoch_coverage_exact_once():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sizes = [int(rng.integers(1, 40)) for _ in range(rng.integers(1, 4))]
        max_batch = int(rng.integers(1, 15))
        sets = [[f"s{si}_{i}" for i in range(n)] for si, n in enumerate(sizes)]
        seen = Counter()
        for batch in plan_epoch(sizes, max_batch, seed=int(rng.integers(1 << 30))):
            for si, rows in enumerate(batch):
                seen.update(sets[si][i] for i in rows)
        expected = Counter(s for group in sets for s in group)
        assert seen == expected


def test_every_iteration_covers_all_sets_in_proportioned_plans():
    # paper-style geometry: every set size is a multiple of the iteration count
    for batch in plan_epoch((1000, 620, 260), max_batch=200, seed=3):
        for rows in batch:
            assert len(rows) >= 1


def test_reproducible_with_seed():
    def same(b1, b2):
        return len(b1) == len(b2) and all(
            len(x) == len(y) and all(np.array_equal(r, s) for r, s in zip(x, y))
            for x, y in zip(b1, b2))

    b1 = plan_epoch((30, 20), max_batch=7, seed=42)
    assert same(b1, plan_epoch((30, 20), max_batch=7, seed=42))
    assert not same(b1, plan_epoch((30, 20), max_batch=7, seed=43))


def test_batches_are_read_only_views_of_the_orders():
    sizes = (30, 20)
    batches = plan_epoch(sizes, max_batch=7, seed=44)
    for si, n in enumerate(sizes):
        for batch in batches:
            assert batch[si].dtype.kind == "i" and not batch[si].flags.writeable
        order = np.concatenate([batch[si] for batch in batches])
        assert np.array_equal(np.sort(order), np.arange(n))


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=3), max_batch=st.integers(1, 300))
def test_batches_hold_the_batch_size_then_the_remainder_then_nothing(sizes, max_batch):
    """Each set's batches hold ceil(n / iterations) rows until the set runs out,
    then the remainder, then nothing."""
    batches = plan_epoch(sizes, max_batch)
    iters = len(batches)
    assert iters == math.ceil(max(sizes) / max_batch)
    for si, n in enumerate(sizes):
        bs = math.ceil(n / iters)
        assert [len(batch[si]) for batch in batches] == [
            min(bs, max(n - it * bs, 0)) for it in range(iters)]


def test_degenerate_single_set():
    batch = plan_epoch([5], max_batch=2, seed=0)[0]
    assert [si for si, rows in enumerate(batch) for _ in rows] == [0, 0]
