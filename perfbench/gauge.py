"""A speed gauge for scaling timings on a machine whose speed drifts.

On a shared virtual machine the speed this process gets can change by a
factor of two within seconds and between runs, for every op alike.  The
benchmark therefore times a fixed kernel between ops and scales each op's
latency by ``REF_S / g``, where ``g`` is the mean of the gauge readings
taken just before and just after the op.  The result reads as seconds on
a machine where one gauge takes ``REF_S``.  The kernel uses no schmidtq
code, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Gauge time that scaled timings are expressed against: about the time of
# one gauge on a 2-vCPU x86-64 virtual machine under Python 3.11.
REF_S = 0.012
# Least time between two gauge readings inside a run.
EVERY_S = 0.2


class _Parts:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


def _descending(n, top):
    if n == 0:
        yield ()
        return
    for a in range(min(n, top), 0, -1):
        for rest in _descending(n - a, a):
            yield (a,) + rest


def reading():
    """Seconds for the kernel: the two kinds of work the package does.

    They are a truncated sparse multiply of exponent-tuple dicts and a
    recursive partition generator whose output is wrapped in objects and
    graded.
    """
    start = perf_counter()
    a = {(i, j, k): i + j + k + 1 for i in range(10) for j in range(4) for k in range(4)}
    b = {(i, j, k): i - j * k for i in range(10) for j in range(3) for k in range(3)}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            if key[0] <= 12 and key[1] <= 4 and key[2] <= 4:
                out[key] = out.get(key, 0) + c1 * c2
    graded = {}
    for parts in _descending(20, 20):
        lam = _Parts(parts)
        key = (sum(lam.parts[::2]), len(lam.parts))
        graded[key] = graded.get(key, 0) + 1
    return perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, given the readings around it."""
    return seconds * REF_S / ((before + after) / 2)
