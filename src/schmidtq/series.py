"""Sparse multivariate power series truncated by per-variable degree caps.

A :class:`SeriesContext` fixes an ordered tuple of variable names and a
cap for each.  All arithmetic happens in the quotient by the monomial
ideal generated by the first out-of-cap power of each variable: any
product monomial exceeding a cap in any variable is simply dropped.
Because that rule is an ideal quotient it is exactly associative, and
every surviving coefficient equals the coefficient of the untruncated
series.  Coefficients are unbounded Python integers.

Pochhammer factors whose leading monomial already exceeds the caps are
identified with 1, so "infinite" products only ever multiply finitely
many factors.

Two steps carry the products and quotients by single factors, each in
time linear in the number of terms: :meth:`Series.mul_one_minus`
multiplies by ``1 - c * x^a`` in one pass over the terms, and
:meth:`Series.div_one_minus` divides by ``1 - x^a`` through the
recurrence ``out[k] = in[k] + out[k - a]``, walked chain by chain along
``a``.  The Pochhammer builders, and the s-graded product sides of the
identities, gather every in-cap factor of their families into one list
and apply these steps to one running series, largest total degree first
(ties by packed key).  The truncated ring is a commutative ideal
quotient, so the order changes no coefficient; it only decides how large
the running series is while it is built.  Large factors first keep it
sparse until the last small factors fill it in: the divisions of
``1/(t1 q; q)oo`` in the q, t1, t2 ring at cap 20 write 620 entries in
this order and 3,686 in generation order (``z``, ``z g``, ``z g^2``,
...).  The factors are
generated as packed keys: z and g are packed once, and each next factor
adds g's key and stops at the cap check below.  A g above the caps leaves
z the only factor in them.  A product with a
single-term operand is a key shift of the other operand: one add, one
cap check and one multiply per term.  Any other product (``*``) forms
every pair of terms and keeps those the cap check passes; no side of an
identity multiplies two multi-term series, so this loop serves the
tests and the public API only.  A sum (``+``) copies the larger operand and
walks the smaller one, deleting each key whose coefficients cancel, so
it costs one pass over the smaller operand beyond the copy.

Inside a series each exponent vector is packed into one int.  Exponent
``k`` gets a field of ``caps[k].bit_length() + 1`` bits, one more than
its cap needs, so the sum of two in-cap vectors is the sum of their
ints and never carries from one field into the next.  Two masks come
from the caps: ``guard`` holds each field's top bit and ``off`` holds
``2**(w-1) - 1 - cap`` in each field of width ``w``.  For a sum of two
in-cap vectors, ``(key + off) & guard`` is nonzero exactly when some
exponent is above its cap, so a product monomial costs one add and its
cap check one add and one mask.  Keys are packed where they enter (the
constructor, :meth:`Series.coefficient`, the step and Pochhammer
arguments) after their arity, sign and caps are checked, and unpacked
where they leave (:meth:`Series.sorted_terms`, text, JSON).

The constructor checks its input row by row, so the first bad key or
coefficient raises, then sums duplicates and drops zeros.  The enum
sides of ``identities.py`` take another way in.  Their tables in
``partitions.py`` and ``colored.py`` count straight into the ring's
packed keys, given one unit ``1 << shift`` per field, and hand over one
dict of keys and counts.  The private :meth:`Series._from_packed` checks
that dict with one ``map`` per test, at C speed: every key and count must
be a plain int, no key may hold a guard bit or a bit past the layout
(``key & (guard | -1 << width)``, which a negative key fails too), and no
field may be above its cap (``(key + off) & guard``).  It then drops zero
counts.  So a table that overflows a field raises, where a digit in a
base of cap + 1 would have carried into the next one unseen.
Exponents, caps and coefficients are read through ``operator.index``:
ints, bools and other ``__index__`` types pass, and a float or a string
raises ``TypeError`` instead of being truncated.

The double sums of ``identities.py`` use the packed keys directly too:
each level of the nesting steps one dict with :func:`_div_one_minus` on
the packed keys of its denominators, skipping any whose q-exponent is
past the cap, and adds its terms into that dict in place, cut at the
cap.  The q-graded product sides there take none of these steps: they
fill one dict of packed keys from Euler's q-difference equations, each
coefficient the sum of two of lower q-degree, so no kernel of this
module is shared by the sum and product sides of one identity.  The
other builders there step one dict of packed keys as well and make no
series until it is done.  ``ln_series`` shifts its last state by Q_r
and the two before it by t1 Q_r into one dict, each key under the guard,
and divides that dict once by 1 - Q_r.  The t1 slice's closed form nests
its Horner divisions on one dict, shifts it by q^C(J+1,2) under the
guard, then divides it J times.  The sum side of ``cauchy_check`` writes
each k's Gaussian coefficients, positive and a run of consecutive q
exponents under their own z^k, with one ``dict.update``.  Each dict
enters a series through :meth:`Series._raw`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, and_, index, itemgetter, le, lshift, rshift
from typing import NamedTuple

__all__ = [
    "Monomial",
    "SeriesContext",
    "Series",
    "geometric_inverse",
    "poch_finite",
    "poch_infinite",
    "poch_infinite_inverse",
    "gaussian_binomial_coeffs",
    "gaussian_multinomial_coeffs",
    "q_binomial",
    "q_multinomial",
]


class Monomial(tuple):
    """An exponent vector; multiplication adds exponents componentwise."""

    def __new__(cls, exponents):
        t = tuple(map(index, exponents))
        if any(e < 0 for e in t):
            raise ValueError(f"exponents must be nonnegative, got {t}")
        return super().__new__(cls, t)

    def __mul__(self, other):
        if len(self) != len(other):
            raise ValueError("monomials from different contexts")
        return Monomial(a + b for a, b in zip(self, other))

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"monomial powers must be nonnegative, got {k}")
        return Monomial(e * k for e in self)

    def is_constant(self):
        return not any(self)

    def within(self, caps):
        return all(e <= c for e, c in zip(self, caps))


@dataclass(frozen=True)
class SeriesContext:
    """An ordered variable list together with one degree cap per variable."""

    variables: tuple
    caps: tuple

    def __post_init__(self):
        variables = tuple(self.variables)
        caps = tuple(map(index, self.caps))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "caps", caps)
        if len(variables) != len(set(variables)):
            raise ValueError(f"duplicate variables in {variables}")
        for v in variables:
            # Names are the keywords of monomial(**exponents).
            if not (isinstance(v, str) and v.isidentifier()):
                raise ValueError(f"variable names must be identifiers, got {v!r}")
        if len(caps) != len(variables):
            raise ValueError("need exactly one cap per variable")
        if any(c < 0 for c in caps):
            raise ValueError(f"caps must be nonnegative, got {caps}")

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} not in context {self.variables}") from None

    def monomial(self, **exponents):
        exps = [0] * len(self.variables)
        for name, e in exponents.items():
            exps[self.index(name)] = e
        return Monomial(exps)

    def zero(self):
        return Series(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return Series(self, {self.monomial(): c})

    def term(self, coeff, monomial):
        return Series(self, {monomial: coeff})


class _Layout(NamedTuple):
    shifts: tuple  # bit offset of each exponent's field
    masks: tuple  # all-ones mask of each field's width
    off: int  # 2**(w-1) - 1 - cap in each field of width w
    guard: int  # the top bit of each field
    width: int  # the bits of all the fields

    def pack(self, exponents):
        return sum(map(lshift, exponents, self.shifts))

    def unpack(self, key):
        # The fields are nonnegative ints by construction, so the Monomial
        # skips its constructor's checks.
        return tuple.__new__(Monomial, map(and_, map(rshift, repeat(key), self.shifts), self.masks))


@lru_cache(maxsize=None)
def _layout(caps):
    """The packed-key layout of a caps tuple (see the module docstring)."""
    shifts, masks = [], []
    off = guard = shift = 0
    for cap in caps:
        width = cap.bit_length() + 1
        shifts.append(shift)
        masks.append((1 << width) - 1)
        off |= ((1 << (width - 1)) - 1 - cap) << shift
        guard |= 1 << (shift + width - 1)
        shift += width
    return _Layout(tuple(shifts), tuple(masks), off, guard, shift)


class Series:
    """A finite sum of integer-coefficient monomials inside one context.

    The constructor accepts any mapping or iterable of (exponent tuple,
    coefficient) pairs, merges duplicates, drops zero coefficients, and
    rejects terms outside the context caps.  Exponents and coefficients
    must be ints or other ``__index__`` types; anything else, a float
    included, raises ``TypeError``.
    """

    __slots__ = ("_context", "_terms")

    def __init__(self, context, terms=()):
        if not isinstance(context, SeriesContext):
            raise TypeError(f"expected a SeriesContext, got {context!r}")
        self._context = context
        items = terms.items() if hasattr(terms, "items") else terms
        self._terms = _merged(*_check_rows(items, context))

    @classmethod
    def _from_packed(cls, context, terms):
        # Internal constructor: terms is a dict from packed keys of the
        # context's layout to counts, which the series takes over.  Each
        # test is one map over every key; a key or count that fails one
        # raises ValueError, and zero counts are dropped.
        if not set(map(type, terms)) | set(map(type, terms.values())) <= {int}:
            raise ValueError("packed keys and their counts must be ints")
        layout = _layout(context.caps)
        outside = layout.guard | -1 << layout.width
        if any(map(and_, terms, repeat(outside))):
            key = next(key for key in terms if key & outside)
            raise ValueError(f"packed key {key} is no key of the layout of {context.variables}")
        if any(map(and_, map(add, terms, repeat(layout.off)), repeat(layout.guard))):
            key = next(key for key in terms if (key + layout.off) & layout.guard)
            raise ValueError(f"monomial {layout.unpack(key)} exceeds caps {context.caps}")
        return cls._raw(context, _nonzero(terms) if 0 in terms.values() else terms)

    @classmethod
    def _raw(cls, context, terms):
        # Internal fast path: terms is a dict of packed in-cap keys with
        # nonzero coefficients that nothing mutates afterwards.
        obj = object.__new__(cls)
        obj._context = context
        obj._terms = terms
        return obj

    @property
    def context(self):
        return self._context

    def coefficient(self, monomial):
        """The coefficient of an exponent vector; 0 for any vector off the context's caps."""
        key = tuple(map(index, monomial))
        caps = self._context.caps
        if len(key) != len(caps) or min(key, default=0) < 0 or not all(map(le, key, caps)):
            return 0
        return self._terms.get(_layout(caps).pack(key), 0)

    def coefficient_at(self, **exponents):
        return self.coefficient(self._context.monomial(**exponents))

    def sorted_terms(self):
        """Terms as (Monomial, coefficient) pairs, by total degree then exponents."""
        unpack = _layout(self._context.caps).unpack
        pairs = [(unpack(k), v) for k, v in self._terms.items()]
        pairs.sort(key=lambda kv: (sum(kv[0]), kv[0]))
        return pairs

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def _require_same_context(self, other):
        if self._context != other._context:
            raise ValueError(
                f"context mismatch: {self._context} vs {other._context}"
            )

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._context == other._context and self._terms == other._terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self._context.constant(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_context(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, v in b.items():
            v += out.get(k, 0)
            if v:
                out[k] = v
            else:
                del out[k]
        return Series._raw(self._context, out)

    __radd__ = __add__

    def __neg__(self):
        return Series._raw(self._context, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self._context.constant(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Series._raw(
                self._context, _nonzero({k: other * v for k, v in self._terms.items()})
            )
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_context(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        if not a:
            return Series._raw(self._context, out)
        layout = _layout(self._context.caps)
        off, guard = layout.off, layout.guard
        if len(a) == 1:
            # A key shift: both coefficients are nonzero, so is each product.
            ((m1, c1),) = a.items()
            m1_off = m1 + off
            return Series._raw(
                self._context, {k + m1: c1 * v for k, v in b.items() if not (k + m1_off) & guard}
            )
        # Every pair, each checked against every cap by the guard.
        for m1, c1 in a.items():
            m1_off = m1 + off
            for m2, c2 in b.items():
                if not (m1_off + m2) & guard:
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
        return Series._raw(self._context, _nonzero(out))

    __rmul__ = __mul__

    def mul_one_minus(self, monomial, coefficient=1):
        """This series times ``1 - coefficient * monomial``, in one pass over its terms."""
        terms = dict(self._terms)
        mon = _as_monomial(self._context, monomial)
        if mon.within(self._context.caps):
            layout = _layout(self._context.caps)
            _mul_one_minus(terms, layout, layout.pack(mon), coefficient)
        return Series._raw(self._context, terms)

    def div_one_minus(self, monomial):
        """This series divided by ``1 - monomial``, in time linear in the result's size.

        Equals the product with :func:`geometric_inverse` of the same
        monomial, which must be nonconstant.
        """
        mon = _as_monomial(self._context, monomial)
        if mon.is_constant():
            raise ValueError("cannot divide by 1 - 1; the monomial must be nonconstant")
        terms = self._terms
        if mon.within(self._context.caps):
            layout = _layout(self._context.caps)
            terms = _div_one_minus(terms, layout, layout.pack(mon))
        return Series._raw(self._context, terms)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"series powers must be nonnegative integers, got {k!r}")
        result = self._context.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __str__(self):
        if not self._terms:
            return "0"
        names = self._context.variables
        chunks = []
        for mon, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, mon)
                if e
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if not factors:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, text))
        first_sign, first_text = chunks[0]
        out = (first_sign if first_sign == "-" else "") + first_text
        for sign, text in chunks[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        return f"<Series {self!s} | {self._context.variables} caps {self._context.caps}>"

    def to_json_dict(self):
        """Canonical form with coefficients as decimal strings."""
        return {
            "variables": list(self._context.variables),
            "caps": list(self._context.caps),
            "terms": [
                {"exponents": list(mon), "coefficient": str(coeff)}
                for mon, coeff in self.sorted_terms()
            ],
        }

    def to_json_text(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _divide_by_monomial(series, monomial):
    # series / x^monomial, for a monomial that divides every term of the
    # series: one subtraction per packed key, as no field borrows.  An
    # empty series stays empty whatever the monomial, in cap or not.
    down = _layout(series._context.caps).pack(monomial)
    return Series._raw(series._context, {k - down: v for k, v in series._terms.items()})


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def _merged(packed, coeffs):
    # {packed key: coefficient} with duplicate keys summed and zeros
    # dropped.  Distinct keys and no zero coefficient, the common case,
    # take one dict build at C speed.
    terms = dict(zip(packed, coeffs))
    if len(terms) == len(packed) and 0 not in coeffs:
        return terms
    acc = {}
    for key, coeff in zip(packed, coeffs):
        if coeff:
            acc[key] = acc.get(key, 0) + coeff
    return _nonzero(acc)


def _check_rows(rows, context):
    # Key by key in input order, so the first bad key or coefficient
    # raises; otherwise the packed keys and int coefficients, coerced
    # through __index__.
    caps = context.caps
    pack = _layout(caps).pack
    packed, coeffs = [], []
    for mon, coeff in rows:
        key = tuple(map(index, mon))
        if len(key) != len(caps):
            raise ValueError(f"monomial {key} has wrong arity for {context.variables}")
        if min(key, default=0) < 0:
            raise ValueError(f"exponents must be nonnegative, got {key}")
        if not all(map(le, key, caps)):
            raise ValueError(f"monomial {key} exceeds caps {caps}")
        packed.append(pack(key))
        coeffs.append(index(coeff))
    return packed, coeffs


def _mul_one_minus(terms, layout, step, coefficient):
    # In place: terms *= (1 - coefficient * x^step), for the packed key step
    # of an in-cap monomial.  The snapshot keeps each shifted term reading
    # the input coefficient, also when the monomial is constant.
    off, guard = layout.off, layout.guard
    for key, value in list(terms.items()):
        shifted = key + step
        if not (shifted + off) & guard:
            value = terms.get(shifted, 0) - coefficient * value
            if value:
                terms[shifted] = value
            else:
                terms.pop(shifted, None)


def _div_one_minus(terms, layout, step):
    # terms / (1 - x^step) by out[k] = in[k] + out[k - step], for the packed
    # key step of an in-cap, nonconstant monomial; terms is left as it is.
    # Keys k and k + step lie on one chain, and k + step is the larger int.
    # Taken in ascending packed order, the first key met on a chain is its
    # lowest input key; the chain is walked once from there up to the caps,
    # popping each input value it passes, so a popped key is never a
    # chain's start.
    off, guard = layout.off, layout.guard
    pending = dict(terms)
    out = {}
    for key in sorted(terms):
        if key not in pending:
            continue
        acc = 0
        while not (key + off) & guard:
            acc += pending.pop(key, 0)
            if acc:
                out[key] = acc
            key += step
    return out


def _factor_keys(context, z, g, n=None):
    # (total degree, packed key) of each factor z * g**k (k < n when n is
    # given), up to the first that leaves the caps: exponents only grow
    # along a family, so no later factor is in them.  z and g are packed
    # once and each step adds g's key, so the guard checks a sum of two
    # in-cap keys.  A g outside the caps leaves z the only factor; with g
    # constant every factor is z.
    caps = context.caps
    if n == 0 or not z.within(caps):
        return []
    layout = _layout(caps)
    key, degree = layout.pack(z), sum(z)
    if not g.within(caps):
        return [(degree, key)]
    step, gain = layout.pack(g), sum(g)
    off, guard = layout.off, layout.guard
    out = []
    for _ in repeat(None) if n is None else range(n):
        if (key + off) & guard:
            break
        out.append((degree, key))
        key += step
        degree += gain
    return out


def geometric_inverse(context, monomial):
    """The truncation of ``1 / (1 - monomial)``, i.e. the geometric sum of its powers.

    The monomial must involve at least one variable so that the sum is
    finite under the caps.  The package itself divides with
    :meth:`Series.div_one_minus`; this whole-series form is the reference
    the tests compare that step against.
    """
    mon = _as_monomial(context, monomial)
    if mon.is_constant():
        raise ValueError("cannot invert 1 - 1; the monomial must be nonconstant")
    powers = _factor_keys(context, context.monomial(), mon)
    return Series._raw(context, dict.fromkeys(map(itemgetter(1), powers), 1))


def _as_monomial(context, monomial):
    mon = Monomial(monomial)
    if len(mon) != len(context.variables):
        raise ValueError(f"monomial {mon} has wrong arity for {context.variables}")
    return mon


class _Family(NamedTuple):
    """The factors ``1 - coefficient * z * g**k`` for ``k < n`` (every k when n is None).

    With ``divide`` the product takes their inverses, ``1 / (1 - z * g**k)``,
    and the coefficient must be 1; z must then be nonconstant.
    """

    z: Monomial
    g: Monomial
    n: object = None  # an int, or None for an infinite family
    coefficient: int = 1
    divide: bool = False


def _poch_product(context, families):
    """The product of every in-cap factor of the families, as one running series.

    One step per factor on one ``{0: 1}`` dict, largest total degree
    first and ties by packed key (see the module docstring).
    """
    layout = _layout(context.caps)
    steps = []
    for z, g, n, coefficient, divide in families:
        steps += [(*factor, coefficient, divide) for factor in _factor_keys(context, z, g, n)]
    steps.sort(key=itemgetter(0, 1), reverse=True)
    terms = {0: 1}
    for _, step, coefficient, divide in steps:
        if divide:
            terms = _div_one_minus(terms, layout, step)
        else:
            _mul_one_minus(terms, layout, step, coefficient)
    return Series._raw(context, terms)


def poch_finite(context, z, g, n, coefficient=1):
    """The product of ``1 - coefficient * z * g**k`` over ``k = 0..n-1``.

    One multiply step (:meth:`Series.mul_one_minus`) per factor inside the
    caps, largest total degree first, each one pass over the terms built
    so far: O(n * terms).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"factor count must be a nonnegative integer, got {n!r}")
    family = _Family(_as_monomial(context, z), _as_monomial(context, g), n, coefficient)
    return _poch_product(context, [family])


def _nonconstant_pair(context, z, g):
    z = _as_monomial(context, z)
    g = _as_monomial(context, g)
    if z.is_constant() or g.is_constant():
        raise ValueError("base and ratio must both be nonconstant monomials")
    return z, g


def poch_infinite(context, z, g, coefficient=1):
    """The product of ``1 - coefficient * z * g**k`` over all ``k >= 0``.

    ``z`` and ``g`` must be nonconstant, so that only finitely many
    factors survive the caps.  One multiply step
    (:meth:`Series.mul_one_minus`) per surviving factor, largest total
    degree first, each one pass over the terms built so far:
    O(factors * terms).
    """
    z, g = _nonconstant_pair(context, z, g)
    return _poch_product(context, [_Family(z, g, coefficient=coefficient)])


def poch_infinite_inverse(context, z, g):
    """The product of ``1 / (1 - z * g**k)`` over all ``k >= 0``.

    One division step (:meth:`Series.div_one_minus`) per factor inside the
    caps, largest total degree first, each linear in the size of the
    series it produces: O(factors * terms).
    """
    z, g = _nonconstant_pair(context, z, g)
    return _poch_product(context, [_Family(z, g, divide=True)])


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def gaussian_binomial_coeffs(n, k):
    """Dense coefficient tuple of the Gaussian binomial, as a product.

    ``[n, k]`` is the product over ``i = 1..k`` of ``(1 - q^(n-k+i)) /
    (1 - q^i)``, with ``k`` the smaller of ``k`` and ``n - k``: one
    multiply and one exact divide step per factor on one dense list.  The
    result has degree ``k * (n - k)`` and nonnegative coefficients.
    Out-of-range ``k`` is the empty selection, a zero polynomial.
    """
    if not (isinstance(n, int) and isinstance(k, int)) or n < 0:
        raise ValueError(f"need integers with n >= 0, got n={n!r}, k={k!r}")
    if k < 0 or k > n:
        return (0,)
    k = min(k, n - k)
    # After i factors the list holds [n - k + i, i], of degree i * (n - k);
    # the multiply step takes it to i * (n - k + 1) before the divide.
    out = [1] + [0] * (k * (n - k + 1))
    for i in range(1, k + 1):
        a, top = n - k + i, i * (n - k + 1)
        for d in range(top, a - 1, -1):
            out[d] -= out[d - a]
        for d in range(i, top + 1):
            out[d] += out[d - i]
    return tuple(out[: k * (n - k) + 1])


def gaussian_multinomial_coeffs(n, parts):
    """Dense coefficients of the Gaussian multinomial with the given composition."""
    parts = tuple(map(index, parts))
    if any(p < 0 for p in parts):
        raise ValueError(f"composition entries must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    out = (1,)
    rem = n
    for p in parts:
        out = _dense_mul(out, gaussian_binomial_coeffs(rem, p))
        rem -= p
    return out


def _embed_q_poly(context, coeffs):
    qi = context.index("q")
    qcap = context.caps[qi]
    shift = _layout(context.caps).shifts[qi]
    terms = {}
    for e, c in enumerate(coeffs):
        if c and e <= qcap:
            terms[e << shift] = c
    return Series._raw(context, terms)


def q_binomial(context, n, k):
    """The Gaussian binomial as a series in the context's ``q`` variable."""
    return _embed_q_poly(context, gaussian_binomial_coeffs(n, k))


def q_multinomial(context, n, parts):
    """The Gaussian multinomial as a series in the context's ``q`` variable."""
    return _embed_q_poly(context, gaussian_multinomial_coeffs(n, parts))
