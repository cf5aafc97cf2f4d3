"""The fixed reference computation that the gated timings are divided by.

It uses no minvar code, so a change to the program leaves it unchanged,
while a slower host slows it together with the workload. Imported after
the BLAS thread count is set, like the workloads.
"""

from __future__ import annotations

import time

import numpy as np

_REF_VEC = np.linspace(0.1, 1.0, 8)
_REF_BATCH = np.linspace(0.1, 1.0, 64 * 16 * 16).reshape(64, 16, 16)


class _RefJet:
    __slots__ = ("value", "hess")

    def __init__(self, value, hess):
        self.value = value
        self.hess = hess


def reference_s() -> float:
    """Seconds for a fixed computation with the workloads' instruction mix.

    Python objects and small-array numpy calls, as in batch-1 jet algebra,
    plus a batched (64, 16, 16) product, as in dense Hessians. It takes
    3 to 5 ms on one 2.1 GHz core of a shared host.
    """
    start = time.perf_counter()
    jet = _RefJet(_REF_VEC, np.outer(_REF_VEC, _REF_VEC))
    for i in range(300):
        value = jet.value * _REF_VEC
        jet = _RefJet(np.sin(value),
                      np.multiply.outer(value, _REF_VEC) + 0.5 * jet.hess)
        key = {"pass": i, "pair": (i, i + 1)}
        sum(key["pair"])
    for _ in range(4):
        np.einsum("bij,bjk->bik", _REF_BATCH, _REF_BATCH)
    return time.perf_counter() - start
