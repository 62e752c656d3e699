"""Closed-form object counts that the benchmark checks enumerations against.

Each count comes from a generating function evaluated here with plain
integer lists, independently of ``schmidtq``: Euler's pentagonal
recurrence for p(n), and products of ``1/(1 - q^k)^e`` and ``(1 + q^k)``
for the restricted families.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def partition_count(n):
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for k in range(1, n + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > k:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[k - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= k:
                total += sign * p[k - g2]
            j += 1
        p[k] = total
    return p[n]


def _euler_product(n, exponent, plus=()):
    """Coefficient of q^n in prod_k (1 - q^k)^-exponent(k) * prod_{k in plus} (1 + q^k)."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(exponent(k)):
            for j in range(k, n + 1):
                coeffs[j] += coeffs[j - k]
    for k in plus:
        for j in range(n, k - 1, -1):
            coeffs[j] += coeffs[j - k]
    return coeffs[n]


def restricted_count(n, m):
    """Partitions of n with every multiplicity below m.

    By Glaisher these are equinumerous with partitions into parts not
    divisible by m, and by conjugation with partitions whose gaps
    (the last part included) are below m.
    """
    return _euler_product(n, lambda k: 0 if k % m == 0 else 1)


def divisible_count(n, m):
    """Partitions of n into parts divisible by m."""
    return partition_count(n // m) if n % m == 0 else 0


def overpartition_count(n):
    """Overpartitions of n: prod (1 + q^k) / (1 - q^k)."""
    return _euler_product(n, lambda k: 1, plus=range(1, n + 1))


def colored_count(n, residues, top):
    """Colorings of partitions of n under the residue palette rule.

    A part of size p with k = ((p - 1) mod i) + 1 may wear the
    s_{k+1} - s_k colors from s_k up to s_{k+1} - 1, where s_{i+1} = top,
    so the generating function is prod_p (1 - q^p)^-(colors of p).
    """
    s = tuple(sorted(residues)) + (top,)
    i = len(s) - 1
    return _euler_product(n, lambda p: s[(p - 1) % i + 1] - s[(p - 1) % i])


def two_color_count(n):
    """Partitions of n in two colors: prod (1 - q^k)^-2."""
    return _euler_product(n, lambda k: 2)
