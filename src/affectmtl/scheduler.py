"""Batch alignment for heterogeneously-annotated subsets.

Each training iteration concatenates one batch from every set, sized so that
a single epoch exhausts all sets simultaneously: the largest set is cut into
ceil(max_n / max_batch) iterations and every other set's batch size is scaled
down proportionally (ceil), with short final batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)  # no field-wise ==: the orders are arrays
class EpochPlan:
    """Shuffled per-set index orders (read-only int arrays) plus the derived
    batch geometry."""

    set_sizes: tuple[int, ...]
    batch_sizes: tuple[int, ...]
    iteration_count: int
    orders: tuple[np.ndarray, ...]
    seed: int

    def slice_indices(self, set_index: int, iteration: int) -> np.ndarray:
        """Sample indices for one set at one iteration, a view of its order (may
        be empty at the tail)."""
        if not 0 <= iteration < self.iteration_count:
            raise DataError(f"iteration {iteration} out of range")
        bs = self.batch_sizes[set_index]
        return self.orders[set_index][iteration * bs : (iteration + 1) * bs]

    def summary(self) -> dict:
        return {
            "set_sizes": list(self.set_sizes),
            "batch_sizes": list(self.batch_sizes),
            "iteration_count": self.iteration_count,
            "seed": self.seed,
        }


def plan_epoch(set_sizes, max_batch: int, seed: int = 0) -> EpochPlan:
    """Derive batch sizes and shuffled orders so one epoch covers every set once."""
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
    return EpochPlan(sizes, batch_sizes, iters, orders, int(seed))


def next_joint_batch(plan: EpochPlan, iteration: int) -> tuple[np.ndarray, ...]:
    """The rows of every set that make up one joint batch: one read-only index
    array per set, in the plan's set order."""
    return tuple(plan.slice_indices(si, iteration) for si in range(len(plan.set_sizes)))
