"""Batch alignment for heterogeneously-annotated subsets.

Each training iteration concatenates one batch from every set, sized so that
a single epoch exhausts all sets simultaneously: the largest set is cut into
ceil(max_n / max_batch) iterations and every other set's batch size is scaled
down proportionally (ceil). A set's batches hold that many rows until the set
runs out, then the remainder, then nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def plan_epoch(set_sizes, max_batch: int, seed: int = 0) -> list[tuple[np.ndarray, ...]]:
    """One epoch's joint batches, which cover every set once: one tuple per
    iteration, holding a read-only view of each set's shuffled order, in set order."""
    sizes = tuple(int(n) for n in set_sizes)
    if any(n < 1 for n in sizes) or not sizes:
        raise DataError(f"every set must be non-empty, got sizes {sizes}")
    if max_batch < 1:
        raise DataError(f"max_batch must be >= 1, got {max_batch}")
    iters = math.ceil(max(sizes) / max_batch)
    batch_sizes = tuple(math.ceil(n / iters) for n in sizes)
    rng = np.random.default_rng(seed)
    orders = tuple(rng.permutation(n) for n in sizes)
    for order in orders:
        order.flags.writeable = False
    return [tuple(order[it * bs : (it + 1) * bs] for order, bs in zip(orders, batch_sizes))
            for it in range(iters)]
