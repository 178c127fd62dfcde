"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark's host is shared with other tenants, and its speed drifts by up
to ~1.8x over minutes, for the reference and for qpdsim alike. The harness
times this computation right after each op, in the same process and on the
same CPU, and reports each op's time in units of the reference's time after
it, as well as in milliseconds.
It uses no qpdsim code, so a change to qpdsim cannot change it; do not change
it either, or results before and after stop being comparable.

Its parts mirror the kinds of work qpdsim's workloads do: interpreted Python
arithmetic, a batched LAPACK call on small Hermitian matrices, many numpy
calls on tiny arrays. It allocates little, so that it leaves peak_rss_mb as
it finds it.
"""

from __future__ import annotations

import numpy as np

PY_LOOP = 20000
STACK = 256  # 4x4 Hermitian matrices
SMALL_CALLS = 200


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((STACK, 4, 4)) + 1j * rng.standard_normal((STACK, 4, 4))
        self.stack = a + a.conj().swapaxes(-1, -2)
        self()  # first-call costs stay out of the samples

    def __call__(self) -> float:
        total = 0.0
        for i in range(PY_LOOP):
            total += i * 0.5
        total += float(np.linalg.eigvalsh(self.stack)[:, -1].sum())
        rng = np.random.default_rng(7)
        for _ in range(SMALL_CALLS):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            total += float(np.outer(v, v.conj()).trace().real)
        return total
