"""Sparse polynomial container of both algebras and of their coefficient ring.

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
certificate.  The format is known to this module alone.

The coefficient ring, Gaussian rationals with formal hbar and s, is
Scalar: the polynomial over no dofs, every entry stored under the empty
exponent vector ().  A Scalar is a finite sum

    sum_{k,j}  c[k,j] * hbar**k * s**j

with Gaussian-rational c[k,j], integer k, and nonnegative integer j.
Negative k (inverse powers of hbar) may appear in intermediate results;
public bracket operations verify they have cancelled before returning.
s is the ordering parameter of the rest of the package.  It stays
formal through every computation; numeric values only ever enter
through ``substitute`` / ``subs_s``, which are ring homomorphisms and
therefore commute with everything else.

Everything outside this module sees coefficients as Scalars: the
constructor takes {key: Scalar}, items() yields (key, Scalar) (a
Scalar's own items() yields ((hbar exponent, s exponent),
GaussianRational)), and flat_items() yields one GaussianRational per
(key, hbar exponent, s exponent).

The algebras differ only in how two polynomials multiply, so each
subclass supplies _product (and what only its algebra has, such as the
adjoint) and the rest, the derivative too, lives here.  Values of different
subclasses never mix: they compare unequal and refuse to add or
multiply.  A Scalar mixes with every class, as a multiple of its unit.

Every product and bracket pairs left with right derivatives per dof, so
each is a slice of one integer-weighted kernel, _dof_kernel: the star
product and the Moyal bracket take every pairing, the operator product
(and, one-sided, the adjoint and the ordered basis both ways) no crossed
pairing, and the Poisson bracket at most one.  All of them run through
the one loop _kernel_terms, in ints only.
"""

import functools
from itertools import chain
from math import comb, gcd, lcm, perm

from .scalars import (
    GaussianRational,
    NegativeHbarPower,
    _coerce_gaussian,
    _frac,
    _new,
    _power,
)

_CONJ_RULES = ("fix_s", "negate_s")

# Largest dof count a polynomial takes.  Every constructor checks it, so
# a count from outside (the CLI's --dof, a variable index) stops here
# before anything of that size is built.
MAX_DOF_COUNT = 64

# A kernel class (a, b) travels as the int a + b*_PAIRINGS, so the
# classes of several dofs add as ints; no count of pairings comes near it.
_PAIRINGS = 1 << 32


def _table(scalar):
    """A Scalar as (den, ((k, j, u, v), ...)) with positive den: the sum
    of (u + v*i)/den hbar^k s^j over the rows."""
    return scalar._den, tuple(
        (k, j, u, v) for (_, k, j), (u, v) in scalar._terms.items()
    )


def _number_table(g):
    """The table of the GaussianRational g, a constant."""
    return g._d, ((0, 0, g._a, g._b),)


def _hbar_to_zero(k):
    """The table of hbar^k as hbar -> 0: 1 at k == 0, 0 above, and an
    error below."""
    if k < 0:
        raise NegativeHbarPower(
            f"cannot take the hbar -> 0 limit of a term with hbar**{k}"
        )
    return 1, (((0, 0, 1, 0),) if k == 0 else ())


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
    """Canonical (terms, den) of rows (flat key, a, b, d), each standing
    for (a + b*i)/d with positive d."""
    rows = list(rows)
    den = lcm(*(d for *_, d in rows))
    sums = {}
    for slot, a, b, d in rows:
        scale = den // d
        _add_to(sums, slot, a * scale, b * scale)
    return _canonical(sums, den)


def _checked_dof_count(dof_count):
    """dof_count itself, once checked to be an int from 1 to MAX_DOF_COUNT."""
    if not isinstance(dof_count, int) or not 1 <= dof_count <= MAX_DOF_COUNT:
        raise ValueError(
            f"dof count {dof_count!r} is not an integer from 1 to {MAX_DOF_COUNT}"
        )
    return dof_count


def _checked_exponents(k, j):
    """(hbar exponent, s exponent) of a Scalar entry, once checked: ints,
    with no negative power of s."""
    if not isinstance(k, int) or not isinstance(j, int):
        raise TypeError("Scalar exponents must be integers")
    if j < 0:
        raise ValueError("negative powers of s are not part of the ring")
    return k, j


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
def _dof_kernel(n, m, k, l, crossed, most):
    """The one pairing kernel: q^n p^m against q^k p^l within one dof.

    Expands the terminating exponential of the bidifferential kernel: a
    counts left-p against right-q pairings, b counts left-q against
    right-p (crossed) pairings.  The falling factorials of the repeated
    derivatives over a! b! leave the int weight
        C(m,a) perm(k,a) C(n,b) perm(l,b)  at  q^(n+k-a-b) p^(m+l-a-b).
    A slice keeps fewer pairings: crossed=False only b = 0, and a most
    other than None bounds a + b.  Returns a tuple of
    ((block,), a + b*_PAIRINGS, weight), the block as a one-dof key.
    """
    return tuple(
        (
            ((n + k - a - b, m + l - a - b),),
            a + b * _PAIRINGS,
            comb(m, a) * perm(k, a) * comb(n, b) * perm(l, b),
        )
        for a in range(min(m, k) + 1)
        for b in range((min(n, l) if crossed else 0) + 1)
        if most is None or a + b <= most
    )


def _kernel_terms(cls, left, right, class_power, crossed=True, most=None):
    """Sum over term pairs of products of per-dof pairing kernels.

    Per dof, the block (n, m) of left meets the block (k, l) of right
    through the slice of _dof_kernel that crossed and most select; most
    bounds the pairings over all dofs too, so a partial product with more
    drops out as soon as it forms (else the at-most-one slice would
    enumerate 3^dof products per term pair).  Picking one kernel entry
    per dof gives the term
        c1 * c2 * prod(weight) * class_power(sum(class))
    at the concatenated blocks, where class_power returns a Scalar.  A
    right of None stands for the unit, for one-operand passes: each block
    (n, m) of left then stands reversed, p^m q^n, its momenta paired
    with its own positions.  In ints only: per term pair, the numerators
    of c1 * c2 are formed entry by entry, and weight times numerator is
    summed per (key, class, hbar, s).  Each class power then meets its
    totals once, as a cached (hbar shift, s power, u, v) table over its
    own denominator, and one gcd pass ends the result.  Returns a cls
    over the dofs of left.
    """
    if right is None:
        rights = [(None, None)]
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
            if key2 is None:
                blocks = iter([((0, m), (n, 0)) for n, m in key1])
            else:
                blocks = zip(key1, key2)
            (n, m), (k, l) = next(blocks)
            partial = _dof_kernel(n, m, k, l, crossed, most)
            for (n, m), (k, l) in blocks:
                kernel = _dof_kernel(n, m, k, l, crossed, most)
                partial = [
                    (key + block, c0 + c, w0 * w)
                    for key, c0, w0 in partial
                    for block, c, w in kernel
                ]
                if most is not None:
                    partial = [
                        entry for entry in partial
                        if sum(divmod(entry[1], _PAIRINGS)) <= most
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
        _checked_dof_count(dof_count)
        rows = []
        if terms:
            for key, coeff in terms.items():
                key, coeff = _checked(key, coeff)
                if len(key) != dof_count:
                    raise ValueError("exponent vector length != dof_count")
                rows.extend(
                    ((key, k, j), a, b, coeff._den)
                    for (_, k, j), (a, b) in coeff._terms.items()
                )
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
        return cls._raw(_checked_dof_count(dof_count), {}, 1)

    @classmethod
    def constant(cls, value, dof_count=1):
        return cls.monomial(((0, 0),) * _checked_dof_count(dof_count), value)

    @classmethod
    def generator(cls, kind, dof_index=0, dof_count=1):
        """Position or momentum generator of one dof: kind is 'q' or 'p'."""
        if kind not in ("q", "p"):
            raise ValueError(f"kind must be 'q' or 'p', got {kind!r}")
        if not 0 <= dof_index < _checked_dof_count(dof_count):
            raise IndexError("dof_index out of range")
        block = (1, 0) if kind == "q" else (0, 1)
        key = tuple(
            block if i == dof_index else (0, 0) for i in range(dof_count)
        )
        return cls._raw(dof_count, {(key, 0, 0): (1, 0)}, 1)

    @classmethod
    def monomial(cls, exponents, coeff=1):
        key, coeff = _checked(exponents, coeff)
        _checked_dof_count(len(key))
        return cls._placed(key, coeff)

    @classmethod
    def _placed(cls, key, scalar):
        """A Scalar placed at the one exponent vector key, as a cls over
        len(key) dofs."""
        return cls._raw(
            len(key),
            {(key, k, j): ab for (_, k, j), ab in scalar._terms.items()},
            scalar._den,
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
        for (key, k, j), ab in self._terms.items():
            grouped.setdefault(key, {})[(), k, j] = ab
        return {
            key: Scalar._raw(0, *_canonical(terms, self._den))
            for key, terms in grouped.items()
        }.items()

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
            other = self._placed(((0, 0),) * self.dof_count, scalar)
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
        out = self._placed(((0, 0),) * self.dof_count, ONE)
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

    def derivative(self, var, dof_index=0):
        """Formal partial derivative in q or p of one dof (on an OpPoly, the
        adjoint action of the conjugate generator over +-i*hbar)."""
        if var not in ("q", "p"):
            raise ValueError(f"var must be 'q' or 'p', got {var!r}")
        if not 0 <= dof_index < self.dof_count:
            raise IndexError("dof_index out of range")
        slot = 0 if var == "q" else 1

        def lowered(key):
            exponent = key[dof_index][slot]
            if exponent == 0:
                return None
            block = list(key[dof_index])
            block[slot] = exponent - 1
            return key[:dof_index] + (tuple(block),) + key[dof_index + 1:], exponent

        return self._rekeyed(lowered)

    def _conjugate(self, s_rule):
        """Conjugate every coefficient under an s_rule (see Scalar.conjugate)."""
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

    def _map_exponents(self, hbar_factor=None, s_factor=None):
        """Replace every hbar^k s^j by the product of the tables (see
        _table) hbar_factor(k) and s_factor(j), each taken once per
        exponent; a factor of None keeps its power as it is."""
        hbars = {
            k: hbar_factor(k) if hbar_factor else (1, ((k, 0, 1, 0),))
            for k in {k for _, k, _ in self._terms}
        }
        ss = {
            j: s_factor(j) if s_factor else (1, ((0, j, 1, 0),))
            for j in {j for _, _, j in self._terms}
        }
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
        """Evaluate at a numeric s and/or hbar; None leaves it formal.

        s_value may be any Gaussian rational; hbar_value must be a plain
        rational.  Substituting hbar = 0 into a term holding a negative
        hbar power raises ZeroDivisionError, as division by zero should.
        """
        if s_value is None and hbar_value is None:
            return self
        hbar_factor = s_factor = None
        if s_value is not None:
            s = _coerce_gaussian(s_value)
            if s is None:
                raise TypeError("s_value must be an exact Gaussian rational")
            s_factor = lambda j: _number_table(_power(_new(1, 0, 1), s, j))
        if hbar_value is not None:
            h = _frac(hbar_value)
            # 0**negative raises ZeroDivisionError
            hbar_factor = lambda k: _number_table(_coerce_gaussian(h**k))
        return self._map_exponents(hbar_factor, s_factor)

    def subs_s(self, value):
        """Substitute a Scalar for s (polynomial composition).

        ``a.subs_s(S)`` is the identity; ``a.subs_s(-S)`` negates s.  The
        replacement value may involve hbar.
        """
        if not isinstance(value, Scalar):
            raise TypeError("subs_s expects a Scalar replacement")
        return self._map_exponents(s_factor=lambda j: _table(value**j))

    def limit_hbar_zero(self):
        """Drop every positive power of hbar; negative powers are an error."""
        return self._map_exponents(hbar_factor=_hbar_to_zero)

    def min_hbar_exp(self):
        """Lowest hbar exponent present, or None when zero."""
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


class Scalar(SparsePoly):
    """A polynomial in formal s times a Laurent polynomial in hbar.

    The SparsePoly over no dofs: every entry sits at the empty exponent
    vector, so the ring operations, the hbar and s maps and the
    canonical form are the container's.  It is the coefficient type at
    the package's edges: polynomial constructors take it, items() hands
    out ((hbar_exp, s_exp), GaussianRational) pairs, and expressions
    evaluate to it.  A constant equals, and hashes like, the int,
    Fraction or GaussianRational it stands for.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        rows = []
        if terms:
            for key, coeff in terms.items():
                k, j = key
                _checked_exponents(k, j)
                coeff = _coerce_gaussian(coeff)
                if coeff is None:
                    raise TypeError("Scalar coefficients must be Gaussian rationals")
                rows.append((((), k, j), coeff._a, coeff._b, coeff._d))
        self.dof_count = 0
        self._terms, self._den = _summed(rows)

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def generator(cls, *_args, **_kwargs):
        raise TypeError("a Scalar has no dofs, so no generator or monomial")

    monomial = generator

    @classmethod
    def constant(cls, re, im=0):
        if isinstance(re, GaussianRational):
            return _scalar(re + GaussianRational(0, 1) * im)
        return _scalar(GaussianRational(re, im))

    @classmethod
    def term(cls, hbar_exp, s_exp, coeff=1):
        coeff = _coerce_gaussian(coeff)
        if coeff is None:
            raise TypeError("Scalar coefficients must be Gaussian rationals")
        return _scalar(coeff, *_checked_exponents(hbar_exp, s_exp))

    def items(self):
        """((hbar_exp, s_exp), GaussianRational) pairs."""
        return {(k, j): g for _, k, j, g in self.flat_items()}.items()

    def __eq__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # A constant equals its coefficient (and zero equals 0), so it
        # must hash like one.
        constant = self.as_constant()
        if constant is not None:
            return hash(constant)
        return hash(tuple(self.sorted_terms()))

    def as_constant(self):
        """The value as a GaussianRational when free of hbar and s, else None."""
        if not self._terms:
            return GaussianRational(0)
        if len(self._terms) == 1:
            got = self._terms.get(((), 0, 0))
            if got is not None:
                return _new(*got, self._den)
        return None

    def _product(self, other):
        return self._convolved(other)

    def __pow__(self, exponent):
        """Nonnegative int power: a constant through the bounded
        GaussianRational power, anything else by repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Scalar powers must be nonnegative integers")
        constant = self.as_constant()
        if constant is not None:
            return _scalar(constant**exponent)
        return _power(ONE, self, exponent)

    def conjugate(self, s_rule="fix_s"):
        """Complex conjugation, with a declared convention for formal s.

        ``fix_s`` treats s as real (s stays put); ``negate_s`` treats s as
        pure imaginary (s -> -s alongside i -> -i).  Both are involutions.
        """
        return self._conjugate(s_rule)

    def negate_s(self):
        """Substitute s -> -s."""
        return self.subs_s(-S)

    def __repr__(self):
        if not self._terms:
            return "Scalar(0)"
        bits = []
        for (k, j), coeff in self.sorted_terms():
            piece = f"({coeff.re}{'+' if coeff.im >= 0 else '-'}{abs(coeff.im)}i)"
            if k:
                piece += f"*hbar^{k}"
            if j:
                piece += f"*s^{j}"
            bits.append(piece)
        return "Scalar(" + " + ".join(bits) + ")"


def _scalar(g, hbar_exp=0, s_exp=0):
    """The GaussianRational g times hbar^hbar_exp s^s_exp, as a Scalar."""
    terms = {((), hbar_exp, s_exp): (g._a, g._b)} if g else {}
    return Scalar._raw(0, terms, g._d)


def _coerce_scalar(value):
    """value as a Scalar, or None when it is not an exact coefficient."""
    if isinstance(value, Scalar):
        return value
    g = _coerce_gaussian(value)
    return None if g is None else _scalar(g)


ZERO = Scalar()
ONE = Scalar.constant(1)
I = Scalar.constant(0, 1)
HBAR = Scalar.term(1, 0)
S = Scalar.term(0, 1)
I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, 1))
# 1/(i*hbar) = -i/hbar, so this constant serves both roles.
NEG_I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, -1))
