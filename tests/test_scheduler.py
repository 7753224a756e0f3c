from collections import Counter

import numpy as np
import pytest

from affectmtl import DataError, next_joint_batch, plan_epoch


def test_paper_instance():
    plan = plan_epoch((1000, 620, 260), max_batch=200, seed=0)
    assert plan.iteration_count == 5
    assert plan.batch_sizes == (200, 124, 52)


def test_single_iteration():
    plan = plan_epoch((10, 10, 10), max_batch=10)
    assert plan.iteration_count == 1
    assert plan.batch_sizes == (10, 10, 10)


def test_short_final_batch():
    plan = plan_epoch((7, 3, 2), max_batch=3)
    assert plan.iteration_count == 3
    assert plan.batch_sizes == (3, 1, 1)
    assert len(plan.slice_indices(0, 2)) == 1  # 7 = 3 + 3 + 1


def test_empty_set_rejected():
    with pytest.raises(DataError):
        plan_epoch((5, 0), max_batch=2)
    with pytest.raises(DataError):
        plan_epoch((5, 3), max_batch=0)


def test_joint_batch_sizes_and_tags():
    sets = [[f"a{i}" for i in range(1000)], [f"b{i}" for i in range(620)], [f"c{i}" for i in range(260)]]
    plan = plan_epoch([len(s) for s in sets], max_batch=200, seed=1)
    batch = next_joint_batch(plan, 0)
    assert sum(len(rows) for rows in batch) == 376
    tags = Counter({si: len(rows) for si, rows in enumerate(batch)})
    assert tags == {0: 200, 1: 124, 2: 52}


def test_iteration_out_of_range():
    plan = plan_epoch([4], max_batch=2)
    with pytest.raises(DataError):
        next_joint_batch(plan, 2)


def test_epoch_coverage_exact_once():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sizes = [int(rng.integers(1, 40)) for _ in range(rng.integers(1, 4))]
        max_batch = int(rng.integers(1, 15))
        sets = [[f"s{si}_{i}" for i in range(n)] for si, n in enumerate(sizes)]
        plan = plan_epoch(sizes, max_batch, seed=int(rng.integers(1 << 30)))
        seen = Counter()
        for it in range(plan.iteration_count):
            for si, rows in enumerate(next_joint_batch(plan, it)):
                seen.update(sets[si][i] for i in rows)
        expected = Counter(s for group in sets for s in group)
        assert seen == expected


def test_every_iteration_covers_all_sets_in_proportioned_plans():
    # paper-style geometry: every set size is a multiple of the iteration count
    plan = plan_epoch((1000, 620, 260), max_batch=200, seed=3)
    for it in range(plan.iteration_count):
        for si in range(3):
            assert len(plan.slice_indices(si, it)) >= 1


def test_reproducible_with_seed():
    p1 = plan_epoch((30, 20), max_batch=7, seed=42)
    p2 = plan_epoch((30, 20), max_batch=7, seed=42)
    assert p1.summary() == p2.summary()
    assert all(np.array_equal(a, b) for a, b in zip(p1.orders, p2.orders))
    p3 = plan_epoch((30, 20), max_batch=7, seed=43)
    assert not all(np.array_equal(a, b) for a, b in zip(p1.orders, p3.orders))


def test_batches_are_read_only_views_of_the_orders():
    plan = plan_epoch((30, 20), max_batch=7, seed=44)
    for si, rows in enumerate(next_joint_batch(plan, 1)):
        assert rows.dtype.kind == "i" and not rows.flags.writeable
        assert np.shares_memory(rows, plan.orders[si])
        assert np.array_equal(rows, plan.orders[si][plan.batch_sizes[si]:][: len(rows)])


def test_degenerate_single_set():
    plan = plan_epoch([5], max_batch=2, seed=0)
    batch = next_joint_batch(plan, 0)
    assert [si for si, rows in enumerate(batch) for _ in rows] == [0, 0]
