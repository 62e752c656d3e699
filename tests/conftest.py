import re
import tracemalloc
from itertools import combinations, groupby

from schmidtq import Partition


def residue_sets(m, include_m):
    """All S with 1 in S, ascending, bounded by m or m-1."""
    upper = m if include_m else m - 1
    out = []
    for k in range(upper):
        for extra in combinations(range(2, upper + 1), k):
            out.append((1,) + extra)
    return out


def every_residue_set(m):
    """Every nonempty subset of 1..m, with or without 1, ascending."""
    return [s for k in range(1, m + 1) for s in combinations(range(1, m + 1), k)]


def descending(parts):
    return Partition(tuple(sorted(parts, reverse=True)))


def repeated_size_count(lam):
    """Number of part sizes occurring more than once; inside multiplicity-
    below-4 partitions, the count of sizes used 2 or 3 times."""
    return sum(1 for _, grp in groupby(lam.parts) if len(tuple(grp)) > 1)


def exact(message):
    """A pattern for pytest.raises that matches the whole message and no more."""
    return f"^{re.escape(message)}$"


class Exactly:
    """An int-like that is not an int: it converts only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def traced_peak(f, *args):
    """The tracemalloc peak, in bytes, of one call ``f(*args)``."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
