"""The four benchmark workloads: their op decks, how each op runs, and its check.

A deck is the list of ops one pass of a workload makes.  Every deck
covers its parameter grid exactly once, so every seed sends the same
amount of work at each cap; the seed orders the deck and picks those
parameters that barely change an op's cost (the t1 slice, witness
monomials, class moduli, bijection parameters).  This keeps the
distribution of op costs, and so every end-to-end figure, the same from
one seed to the next.

An op is timed by ``Runner.execute`` and checked by ``Runner.check``
after its clock stops.  Checks never reuse the output under test:

- verify and counting reports must pass;
- a series must match the digest committed in ``digests.json``, which
  ``make_digests.py`` writes only after checking the series against the
  identity's other side;
- the lines a ``witness`` prints must number the product-side
  coefficient of that monomial;
- the lines an ``enumerate`` prints must number the closed-form count
  from ``counts.py``;
- every bijection round trip must return its input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import counts

DIGESTS = Path(__file__).resolve().parent / "digests.json"

Q_IDS = ("ak_trivariate", "overpartition", "cor22")
PSI_RESIDUES = {2: ((1,), (1, 2)), 3: ((1,), (1, 2), (1, 3), (1, 2, 3))}


class Op(NamedTuple):
    family: str  # ops of one family differ only in parameters
    kind: str  # a schmidtq function name, "cli" or "roundtrip"
    args: tuple
    kwargs: tuple = ()  # (name, value) pairs
    expect: tuple = ()  # how to compute the expected output size

    @property
    def label(self):
        parts = [repr(a) for a in self.args] + [f"{k}={v!r}" for k, v in self.kwargs]
        return f"{self.kind}({', '.join(parts)})"


def _verify(ident, **kw):
    return Op(f"verify {ident}", "verify_identity", (ident,), tuple(kw.items()))


def _counting(thm, **kw):
    return Op(f"counting {thm}", "verify_counting", (thm,), tuple(kw.items()))


def _witness(ident, mono, side, extra=()):
    argv = ["witness", "--identity", ident, "--mono", ",".join(f"{v}={e}" for v, e in mono)]
    for flag, value in extra:
        argv += [flag, value]
    return Op(f"witness {ident}", "cli", tuple(argv), (), ("witness", ident, side, mono))


def _enumerate(cls, flags, expect):
    argv = ("enumerate", "--class", cls) + tuple(str(x) for x in flags)
    return Op(f"enumerate {cls} {flags[0]}", "cli", argv, (), expect)


def verify_q(rng):
    return [_verify(ident, qcap=c) for ident in Q_IDS for c in range(12, 21)]


def series_sides(rng):
    deck = []
    for ident in ("ak_trivariate", "overpartition"):
        for c in (16, 20, 24):
            deck.append(Op(f"sum {ident}", "sum_side", (ident, c)))
            deck.append(Op(f"product {ident}", "product_side", (ident,), (("qcap", c),)))
    for c in (30, 35, 40):
        for ident in ("mork_odd", "mork_even"):
            deck.append(Op(f"product {ident}", "product_side", (ident,), (("scap", c),)))
        deck.append(
            Op("product psi_all", "product_side", ("psi_all",), (("scap", c), ("m", 3), ("i", 2)))
        )
    deck += [Op("ln_series", "ln_series", (n, 24)) for n in (3, 5, 7)]
    deck += [Op("t1_slice", "t1_slice_check", (rng.randint(0, 3), c)) for c in (16, 20)]
    deck += [Op("cauchy", "cauchy_check", (n,)) for n in (10, 12, 14, 16)]
    return deck


def enum_counts(rng):
    deck = [_verify(ident, scap=c) for ident in ("mork_odd", "mork_even") for c in (22, 26, 30)]
    for ident in ("psi_all", "psi_dm"):
        for m, i, c in ((2, 1, 22), (3, 2, 26), (4, 2, 30)):
            deck.append(_verify(ident, scap=c, m=m, i=i))
    for n in (14, 16, 18, 20):
        deck += [
            _counting("schmidt", n=n),
            _counting("uncu", n=n),
            _counting("ak_main", n=n, m=3, s=(1, 2)),
            _counting("franklin_ext", n=n, m=2, s=(1,)),
        ]
    return deck


def objects(rng):
    deck = []
    for q in (12, 14):
        for ident, t1, t2 in (("ak_trivariate", (1, 4), (1, 4)),
                              ("overpartition", (1, 3), (1, 5)),
                              ("cor22", (0, 2), (0, 3))):
            mono = (("q", q), ("t1", rng.randint(*t1)), ("t2", rng.randint(*t2)))
            deck.append(_witness(ident, mono, (("qcap", q),)))
    for s in (16, 20):
        deck.append(_witness("mork_odd", (("q", rng.randint((s + 1) // 2, s)), ("s", s)),
                             (("scap", s),)))
        deck.append(_witness("psi_all", (("q", rng.randint(2 * s // 3, s)), ("s", s)),
                             (("scap", s), ("m", 3), ("i", 2)), (("--m", "3"), ("--s", "1,2"))))
    for n in (14, 16, 18):
        mD, mF, mR = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((2, 3))
        deck += [
            _enumerate("P", ("--n", n), ("count", "P", n)),
            _enumerate("D", ("--n", n, "--m", mD), ("count", "D", n, mD)),
            _enumerate("F", ("--n", n, "--m", mF), ("count", "D", n, mF)),
            _enumerate("R", ("--n", n, "--m", mR), ("count", "R", n, mR)),
        ]
    for n in (10, 12):
        deck += [
            _enumerate("over", ("--n", n), ("count", "over", n)),
            _enumerate("cs", ("--n", n, "--m", 2, "--s", 1), ("count", "cs", n, (1,), 3)),
            _enumerate("P", ("--schmidt-weight", n - 2), ("count", "two_color", n - 2)),
            _enumerate("D", ("--schmidt-weight", n), ("count", "P", n)),
        ]
    for n in (14, 16, 18):
        m = rng.choice((2, 3))
        deck += [
            Op("roundtrip mork", "roundtrip", ("mork", n)),
            Op("roundtrip psi", "roundtrip", ("psi", n, m, rng.choice(PSI_RESIDUES[m]))),
            Op("roundtrip glaisher", "roundtrip", ("glaisher", n, rng.choice((2, 3)))),
            Op("roundtrip decompose", "roundtrip", ("decompose", n, rng.choice((2, 3)))),
        ]
    return deck


# Deck builder and tail percentile of each workload.  A run makes enough
# passes that at least ten samples lie beyond the tail percentile; for
# verify_q, p87 is the highest whole percentile with ten samples beyond it
# in a three-pass run of 81 ops, and it falls inside one op's samples.
WORKLOADS = {
    "verify_q": (verify_q, 87),
    "series_sides": (series_sides, 90),
    "enum_counts": (enum_counts, 90),
    "objects": (objects, 99),
}


def build_deck(workload, seed):
    """The seeded deck, and the random source that orders its passes."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload][0](rng), rng


def min_passes(workload, deck):
    """Passes a run makes at least: three, so that every op is sampled three
    times, and enough for ten samples beyond the tail percentile."""
    share_beyond = 1 - WORKLOADS[workload][1] / 100
    return max(3, math.ceil(round(10 / share_beyond) / len(deck)))


def warmup_ops(workload):
    """The first op of each family of a fixed-seed deck; decks list low caps first."""
    seen = {}
    for op in WORKLOADS[workload][0](random.Random(0)):
        seen.setdefault(op.family, op)
    return list(seen.values())


def digest_ops():
    """Every series op of the ``series_sides`` deck; the seed does not change them."""
    return [
        op
        for op in series_sides(random.Random(0))
        if op.kind in ("sum_side", "product_side", "ln_series")
    ]


def series_digest(series):
    return hashlib.sha256(series.to_json_text().encode()).hexdigest()


class Runner:
    """Runs ops against the package and checks what they return."""

    def __init__(self, package):
        self.pkg = package
        self.digests = json.loads(DIGESTS.read_text())
        self._expected = {}

    def execute(self, op):
        pkg = self.pkg
        if op.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pkg.cli.run(list(op.args))
            return code, buf.getvalue()
        if op.kind == "roundtrip":
            return self._roundtrip(*op.args)
        return getattr(pkg, op.kind)(*op.args, **dict(op.kwargs))

    def _roundtrip(self, name, n, *params):
        pkg = self.pkg
        pairs = []
        for lam in pkg.partitions_of(n):
            if name == "mork":
                back = pkg.mork_inverse(pkg.mork_forward(lam))
            elif name == "psi":
                m, s = params
                back = pkg.color_conjugate_inverse(pkg.color_conjugate(lam, m, s), m, s)
            elif name == "glaisher":
                kept, banked = pkg.glaisher_reduce(lam, params[0])
                back = pkg.glaisher_expand(kept, banked, params[0])
            else:
                low, bulk = pkg.decompose_multiplicity(lam, params[0])
                back = pkg.merge_partitions(low, bulk)
            pairs.append((lam, back))
        return pairs

    def check(self, op, out):
        """Whether ``out`` is the correct output of ``op``."""
        if op.kind in ("verify_identity", "verify_counting", "t1_slice_check", "cauchy_check"):
            return out.passed
        if op.kind in ("sum_side", "product_side", "ln_series"):
            return self.digests.get(op.label) == series_digest(out)
        if op.kind == "roundtrip":
            return len(out) == counts.partition_count(op.args[1]) and all(a == b for a, b in out)
        code, text = out
        return code == 0 and text.count("\n") == self.expected(op.expect)

    def expected(self, spec):
        if spec not in self._expected:
            self._expected[spec] = self._compute_expected(spec)
        return self._expected[spec]

    def _compute_expected(self, spec):
        if spec[0] == "witness":
            _, ident, side, mono = spec
            series = self.pkg.product_side(ident, **dict(side))
            return series.coefficient_at(**dict(mono))
        _, family, n, *rest = spec
        if family == "P":
            return counts.partition_count(n)
        if family == "D":
            return counts.restricted_count(n, rest[0])
        if family == "R":
            return counts.divisible_count(n, rest[0])
        if family == "over":
            return counts.overpartition_count(n)
        if family == "cs":
            return counts.colored_count(n, *rest)
        return counts.two_color_count(n)
