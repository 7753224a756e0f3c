"""Fixed reference work that measures how fast the machine runs at the moment.

The benchmark runs this as a child process right after every timed iteration
and scales throughput by its wall time, because on a shared machine the same
command's wall time drifts by tens of percent over minutes. The work mixes what
affectmtl spends its time on: text-to-float parsing, per-row small NumPy
operations and dense matrix products the size of a wide trunk's. It imports
nothing from the repository, so no change to the program can move it.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rng.normal(size=(2000, 32)))
    x = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    acc = 0.0
    for i in range(10000):
        p = x[i % len(x), :7]
        e = np.exp(p - p.max())
        acc += float((e / e.sum())[0])
    h = rng.normal(size=(600, 512))
    w = rng.normal(size=(512, 512)) * 0.04
    for _ in range(30):
        y = np.tanh(h @ w)
        w -= 1e-6 * (h.T @ (1.0 - y**2))
    if not np.isfinite(acc + w.sum()):
        raise SystemExit("reference work produced a non-finite value")


if __name__ == "__main__":
    main()
