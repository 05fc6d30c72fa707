"""Sparse polynomial container shared by the operator and phase-space algebras.

Storage: one flat map from (exponent vector, hbar exponent, s exponent)
to a Gaussian-integer numerator (a, b), over one positive denominator
shared by the whole polynomial, so that a polynomial is

    sum (a + b*i)/den * hbar^k * s^j * X^key,

the exponent vector ((n1, m1), ..., (nd, md)) standing for the product
over dofs of the position generator to the n_i times the momentum
generator to the m_i.  The form is canonical: no entry is (0, 0),
den > 0, and den and all numerators have gcd 1 (den is 1 for zero).
Two polynomials of one class are therefore equal exactly when their
maps and denominators are, and the stored form doubles as an identity
certificate.  The format is known to this module alone.  Everything
else sees Scalar coefficients: the constructor takes {key: Scalar},
items() yields (key, Scalar), and flat_items() yields one
GaussianRational per (key, hbar exponent, s exponent).

The algebras differ only in how two polynomials multiply, so each
subclass supplies _product (and what only its algebra has, such as
adjoint or derivative) and the rest lives here.  Values of different
subclasses never mix: they compare unequal and refuse to add or
multiply.

The operator product, the adjoint, the ordered monomials and their
inverse, the star product and the Moyal bracket all factor per dof into
kernels with integer weights, and all run through the one loop
_kernel_terms, in ints only.
"""

import functools
from itertools import chain
from math import gcd, lcm

from .scalars import _CONJ_RULES, ONE, Scalar, _coerce_scalar, _new


def _table(scalar):
    """A Scalar as (den, ((k, j, u, v), ...)) with positive den: the sum
    of (u + v*i)/den hbar^k s^j over the rows.

    Reads the GaussianRational triples (a, b, d) directly.
    """
    coeffs = scalar.items()
    den = lcm(*(g._d for _, g in coeffs))
    return den, tuple(
        (k, j, g._a * (den // g._d), g._b * (den // g._d))
        for (k, j), g in coeffs
    )


@functools.cache
def _class_table(class_power, cls):
    return _table(class_power(cls))


def _add_to(sums, slot, a, b):
    got = sums.get(slot)
    if got is None:
        sums[slot] = [a, b]
    else:
        got[0] += a
        got[1] += b


def _canonical(sums, den):
    """Canonical (terms, den) from {flat key: (a, b)} over a positive den:
    zero entries dropped, then one gcd over numerators and den."""
    terms = {slot: (a, b) for slot, (a, b) in sums.items() if a or b}
    if den == 1:
        return terms, 1
    g = gcd(den, *chain.from_iterable(terms.values()))
    if g == 1:
        return terms, den
    return {slot: (a // g, b // g) for slot, (a, b) in terms.items()}, den // g


def _summed(rows):
    """Canonical (terms, den) of rows (key, k, j, GaussianRational)."""
    rows = list(rows)
    den = lcm(*(g._d for *_, g in rows))
    sums = {}
    for key, k, j, g in rows:
        scale = den // g._d
        _add_to(sums, (key, k, j), g._a * scale, g._b * scale)
    return _canonical(sums, den)


def _checked(key, coeff):
    """(exponent vector, Scalar) from a caller's key and coefficient."""
    key = tuple((int(n), int(m)) for n, m in key)
    if any(n < 0 or m < 0 for n, m in key):
        raise ValueError("negative exponents")
    scalar = _coerce_scalar(coeff)
    if scalar is None:
        raise TypeError("coefficients must be Scalars")
    return key, scalar


def _by_monomial(poly):
    """{key: [(k, j, a, b), ...]} over the flat map of poly."""
    out = {}
    for (key, k, j), (a, b) in poly._terms.items():
        out.setdefault(key, []).append((k, j, a, b))
    return out


@functools.cache
def _dof_kernel(kernel, n, m, k, l):
    """kernel(n, m, k, l) with every block wrapped as a one-dof key."""
    return tuple(((block,), c, w) for block, c, w in kernel(n, m, k, l))


def _kernel_terms(cls, left, right, kernel, class_power):
    """Sum over term pairs of products of integer-weighted per-dof kernels.

    kernel(n, m, k, l) gives the kernel of the block (n, m) of left
    against the block (k, l) of right: a sequence of (block, c, weight)
    with int class c and weight.  Picking one entry per dof gives the
    term
        c1 * c2 * prod(weight) * class_power(sum(c))
    at the concatenated blocks, where class_power returns a Scalar.  A
    right of None stands for the unit, for one-operand passes.  In ints
    only: per term pair, the numerators of c1 * c2 are formed entry by
    entry, and weight times numerator is summed per (key, class, hbar,
    s).  Each class power then meets its totals once, as a cached
    (hbar shift, s power, u, v) table over its own denominator, and one
    gcd pass ends the result.  Returns a cls over the dofs of left.
    """
    if right is None:
        rights = [(((0, 0),) * left.dof_count, None)]
        den = left._den
    else:
        rights = _by_monomial(right).items()
        den = left._den * right._den
    sums = {}
    for key1, coeffs1 in _by_monomial(left).items():
        for key2, coeffs2 in rights:
            product = coeffs1 if coeffs2 is None else [
                (k1 + k2, j1 + j2, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                for k1, j1, a1, b1 in coeffs1
                for k2, j2, a2, b2 in coeffs2
            ]
            blocks = zip(key1, key2)
            (n, m), (k, l) = next(blocks)
            partial = _dof_kernel(kernel, n, m, k, l)
            for (n, m), (k, l) in blocks:
                partial = [
                    (key + block, c0 + c, w0 * w)
                    for key, c0, w0 in partial
                    for block, c, w in _dof_kernel(kernel, n, m, k, l)
                ]
            for k, j, a, b in product:
                for key, c, w in partial:
                    slot = (key, c, k, j)
                    got = sums.get(slot)
                    if got is None:
                        sums[slot] = [w * a, w * b]
                    else:
                        got[0] += w * a
                        got[1] += w * b
    tables = {c: _class_table(class_power, c) for c in {slot[1] for slot in sums}}
    scale = lcm(*(d for d, _ in tables.values()))
    out = {}
    for (key, c, k, j), (a, b) in sums.items():
        d, rows = tables[c]
        if d != scale:
            a *= scale // d
            b *= scale // d
        for dk, dj, u, v in rows:
            slot = (key, k + dk, j + dj)
            re = a * u - b * v
            im = a * v + b * u
            got = out.get(slot)
            if got is None:
                out[slot] = [re, im]
            else:
                got[0] += re
                got[1] += im
    return cls._raw(left.dof_count, *_canonical(out, den * scale))


class SparsePoly:
    """Flat map of Gaussian-integer numerators over one denominator.

    See the module docstring for the canonical form.  Subclasses define
    _product(other), the product of two polynomials of their own class
    with matching dof counts.
    """

    __slots__ = ("dof_count", "_terms", "_den")

    def __init__(self, dof_count, terms=None):
        if not isinstance(dof_count, int) or dof_count < 1:
            raise ValueError("dof_count must be a positive integer")
        rows = []
        if terms:
            for key, coeff in terms.items():
                key, coeff = _checked(key, coeff)
                if len(key) != dof_count:
                    raise ValueError("exponent vector length != dof_count")
                rows.extend((key, k, j, g) for (k, j), g in coeff.items())
        self.dof_count = dof_count
        self._terms, self._den = _summed(rows)

    @classmethod
    def _raw(cls, dof_count, terms, den):
        # Trusted constructor: (terms, den) already canonical.
        out = object.__new__(cls)
        out.dof_count = dof_count
        out._terms = terms
        out._den = den
        return out

    @classmethod
    def zero(cls, dof_count=1):
        return cls._raw(dof_count, {}, 1)

    @classmethod
    def constant(cls, value, dof_count=1):
        return cls.monomial(((0, 0),) * dof_count, value)

    @classmethod
    def generator(cls, kind, dof_index=0, dof_count=1):
        """Position or momentum generator of one dof: kind is 'q' or 'p'."""
        if kind not in ("q", "p"):
            raise ValueError(f"kind must be 'q' or 'p', got {kind!r}")
        if not 0 <= dof_index < dof_count:
            raise IndexError("dof_index out of range")
        block = (1, 0) if kind == "q" else (0, 1)
        key = tuple(
            block if i == dof_index else (0, 0) for i in range(dof_count)
        )
        return cls._raw(dof_count, {(key, 0, 0): (1, 0)}, 1)

    @classmethod
    def monomial(cls, exponents, coeff=ONE):
        key, coeff = _checked(exponents, coeff)
        if not key:
            raise ValueError("dof_count must be a positive integer")
        den, rows = _table(coeff)
        return cls._raw(
            len(key), {(key, k, j): (u, v) for k, j, u, v in rows}, den
        )

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def flat_items(self):
        """(key, hbar_exp, s_exp, GaussianRational) for every stored entry."""
        den = self._den
        for (key, k, j), (a, b) in self._terms.items():
            g = gcd(a, b, den)
            yield key, k, j, _new(a // g, b // g, den // g)

    def items(self):
        """(key, Scalar) pairs: the coefficients rebuilt at the edge."""
        grouped = {}
        for key, k, j, g in self.flat_items():
            grouped.setdefault(key, {})[k, j] = g
        return {key: Scalar._raw(c) for key, c in grouped.items()}.items()

    def sorted_terms(self):
        return sorted(self.items())

    def _check_dof(self, other):
        if self.dof_count != other.dof_count:
            raise ValueError(
                f"dof_count mismatch: {self.dof_count} vs {other.dof_count}"
            )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.dof_count == other.dof_count
            and self._den == other._den
            and self._terms == other._terms
        )

    def _plus(self, other, sign):
        self._check_dof(other)
        den = lcm(self._den, other._den)
        scale = den // self._den
        if scale == 1:
            terms = dict(self._terms)
        else:
            terms = {
                slot: (a * scale, b * scale) for slot, (a, b) in self._terms.items()
            }
        scale = sign * (den // other._den)
        for slot, (a, b) in other._terms.items():
            got = terms.get(slot)
            terms[slot] = (
                (a * scale, b * scale)
                if got is None
                else (got[0] + a * scale, got[1] + b * scale)
            )
        return self._raw(self.dof_count, *_canonical(terms, den))

    def __add__(self, other):
        if type(other) is not type(self):
            scalar = _coerce_scalar(other)
            if scalar is None:
                return NotImplemented
            other = self.constant(scalar, self.dof_count)
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is type(self):
            return self._plus(other, -1)
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self + (-scalar)

    def __rsub__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return (-self) + scalar

    def __neg__(self):
        return self._raw(
            self.dof_count,
            {slot: (-a, -b) for slot, (a, b) in self._terms.items()},
            self._den,
        )

    def __mul__(self, other):
        if type(other) is type(self):
            self._check_dof(other)
            return self._product(other)
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        den, rows = _table(scalar)
        sums = {}
        for dk, dj, u, v in rows:
            for (key, k, j), (a, b) in self._terms.items():
                _add_to(sums, (key, k + dk, j + dj), a * u - b * v, a * v + b * u)
        return self._raw(self.dof_count, *_canonical(sums, self._den * den))

    def __rmul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("powers must be nonnegative integers")
        out = self.constant(ONE, self.dof_count)
        for _ in range(exponent):
            out = out * self
        return out

    def _convolved(self, other):
        """Commutative product: exponent vectors add, coefficients multiply."""
        sums = {}
        rights = _by_monomial(other).items()
        for key1, coeffs1 in _by_monomial(self).items():
            for key2, coeffs2 in rights:
                key = tuple([(n + k, m + l) for (n, m), (k, l) in zip(key1, key2)])
                for k1, j1, a1, b1 in coeffs1:
                    for k2, j2, a2, b2 in coeffs2:
                        slot = (key, k1 + k2, j1 + j2)
                        re = a1 * a2 - b1 * b2
                        im = a1 * b2 + b1 * a2
                        got = sums.get(slot)
                        if got is None:
                            sums[slot] = [re, im]
                        else:
                            got[0] += re
                            got[1] += im
        return self._raw(
            self.dof_count, *_canonical(sums, self._den * other._den)
        )

    def _rekeyed(self, move):
        """Each term moved to move(key) = (new key, int weight), or
        dropped where move returns None."""
        sums = {}
        for (key, k, j), (a, b) in self._terms.items():
            moved = move(key)
            if moved is not None:
                key, weight = moved
                _add_to(sums, (key, k, j), a * weight, b * weight)
        return self._raw(self.dof_count, *_canonical(sums, self._den))

    def _conjugate(self, s_rule):
        """Conjugate every coefficient under the s_rule of Scalar.conjugate."""
        if s_rule not in _CONJ_RULES:
            raise ValueError(
                f"unknown s_rule {s_rule!r}; expected one of {_CONJ_RULES}"
            )
        flip = s_rule == "negate_s"
        return self._raw(
            self.dof_count,
            {
                slot: (-a, b) if flip and slot[2] % 2 else (a, -b)
                for slot, (a, b) in self._terms.items()
            },
            self._den,
        )

    def _map_exponents(self, hbar_factor, s_factor):
        """Replace every hbar^k s^j by the Scalar hbar_factor(k) *
        s_factor(j), each factor taken once per exponent."""
        hbars = {k: _table(hbar_factor(k)) for k in {k for _, k, _ in self._terms}}
        ss = {j: _table(s_factor(j)) for j in {j for _, _, j in self._terms}}
        den_h = lcm(*(d for d, _ in hbars.values()))
        den_s = lcm(*(d for d, _ in ss.values()))
        sums = {}
        for (key, k, j), (a, b) in self._terms.items():
            d_h, rows_h = hbars[k]
            d_s, rows_s = ss[j]
            scale = (den_h // d_h) * (den_s // d_s)
            for k1, j1, u1, v1 in rows_h:
                for k2, j2, u2, v2 in rows_s:
                    u = (u1 * u2 - v1 * v2) * scale
                    v = (u1 * v2 + v1 * u2) * scale
                    _add_to(sums, (key, k1 + k2, j1 + j2), a * u - b * v, a * v + b * u)
        return self._raw(
            self.dof_count, *_canonical(sums, self._den * den_h * den_s)
        )

    def substitute(self, s_value=None, hbar_value=None):
        """Evaluate at a numeric s and/or hbar (see Scalar.substitute)."""
        return self._map_exponents(
            lambda k: Scalar.term(k, 0).substitute(hbar_value=hbar_value),
            lambda j: Scalar.term(0, j).substitute(s_value=s_value),
        )

    def subs_s(self, value):
        """Substitute a Scalar for s (see Scalar.subs_s)."""
        return self._map_exponents(
            lambda k: Scalar.term(k, 0), lambda j: Scalar.term(0, j).subs_s(value)
        )

    def limit_hbar_zero(self):
        """Drop every positive power of hbar; negative powers are an error."""
        return self._map_exponents(
            lambda k: Scalar.term(k, 0).limit_hbar_zero(), lambda j: Scalar.term(0, j)
        )

    def min_hbar_exp(self):
        return min((k for _, k, _ in self._terms), default=None)

    def depends_on_s(self):
        return any(j for _, _, j in self._terms)

    def total_degree(self):
        """Largest summed exponent over all terms; None when zero."""
        return max((sum(map(sum, key)) for key, _, _ in self._terms), default=None)

    def __repr__(self):
        name = type(self).__name__
        if not self._terms:
            return f"{name}.zero({self.dof_count})"
        bits = [f"{key}: {coeff!r}" for key, coeff in self.sorted_terms()]
        return name + "{" + ", ".join(bits) + "}"
