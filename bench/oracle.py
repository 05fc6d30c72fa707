"""Independent exact oracle for the benchmark's output checks.

Standard library only; nothing here imports weylforge.  Everything is
written from the paper's closed forms rather than from the package's
rewrite system, so agreement is evidence, not a tautology.

Representation.  A Gaussian rational is a pair (re, im) of Fractions.
A polynomial -- commutative symbol or normal-ordered operator, the two
share one layout -- is a flat dict

    {(mono, hbar_pow, s_pow): (re, im)}

where mono is a tuple of per-dof (n, m) exponent pairs: q^n p^m for a
symbol, qh^n ph^m (positions left) for an operator.  Zero coefficients
are never stored, so equal polynomials are equal dicts.

Conventions shared with the package (and stated in its docstrings):

    {q, p}_PB = -1, i.e. PB(f, g) = sum_i d_p f d_q g - d_q f d_p g
    t(n, m) = 2^-n sum_j C(n,j) (1+s)^j (1-s)^(n-j) qh^j ph^m qh^(n-j)
    ms(f star g) = ms(g) ms(f)
"""

import functools
import math
from fractions import Fraction

ONE_G = (Fraction(1), Fraction(0))


def gmul(a, b):
    ar, ai = a
    br, bi = b
    # Most coefficients are real; skip the Fraction products that are zero.
    if not ai:
        return (ar * br, ar * bi if bi else ai)
    if not bi:
        return (ar * br, ai * br)
    return (ar * br - ai * bi, ar * bi + ai * br)


def gneg(a):
    return (-a[0], -a[1])


def _acc(out, key, g):
    got = out.get(key)
    if got is not None:
        g = (got[0] + g[0], got[1] + g[1])
    if g[0] or g[1]:
        out[key] = g
    elif got is not None:
        del out[key]


def _ipow(g, k):
    out = ONE_G
    for _ in range(k):
        out = gmul(out, g)
    return out


def add(a, b, scale=ONE_G):
    out = dict(a)
    for key, g in b.items():
        _acc(out, key, gmul(g, scale))
    return out


def sub(a, b):
    return add(a, b, (Fraction(-1), Fraction(0)))


def scale(a, g):
    return add({}, a, g)


def constant(g, dof):
    return {(((0, 0),) * dof, 0, 0): g} if (g[0] or g[1]) else {}


# --- commutative side ---------------------------------------------------------


def phase_mul(a, b):
    out = {}
    for (m1, k1, j1), g1 in a.items():
        for (m2, k2, j2), g2 in b.items():
            mono = tuple((n1 + n2, p1 + p2) for (n1, p1), (n2, p2) in zip(m1, m2))
            _acc(out, (mono, k1 + k2, j1 + j2), gmul(g1, g2))
    return out


def derivative(a, slot, dof_index):
    """d/dq (slot 0) or d/dp (slot 1) of one dof, on exponent maps."""
    out = {}
    for (mono, k, j), g in a.items():
        e = mono[dof_index][slot]
        if e:
            block = list(mono[dof_index])
            block[slot] = e - 1
            new = mono[:dof_index] + (tuple(block),) + mono[dof_index + 1:]
            _acc(out, (new, k, j), (g[0] * e, g[1] * e))
    return out


def poisson(f, g, dof):
    out = {}
    for i in range(dof):
        out = add(out, phase_mul(derivative(f, 1, i), derivative(g, 0, i)))
        out = sub(out, phase_mul(derivative(f, 0, i), derivative(g, 1, i)))
    return out


def classical_flow(f0, h, order, dof):
    """Taylor coefficients (1/k!) {h, .}^k f0, k = 0..order."""
    out = [f0]
    current = f0
    for k in range(1, order + 1):
        current = poisson(h, current, dof)
        out.append(scale(current, (Fraction(1, math.factorial(k)), Fraction(0))))
    return out


# --- operator side ------------------------------------------------------------

_MINUS_I = (Fraction(0), Fraction(-1))
_PLUS_I = (Fraction(0), Fraction(1))


@functools.lru_cache(maxsize=None)
def reorder(m, n, sign=-1):
    """ph^m qh^n = sum_k k! C(m,k) C(n,k) (-i hbar)^k qh^(n-k) ph^(m-k).

    Returns [(k, gaussian)] with the hbar power k.  sign=+1 gives the
    mirror rule qh^n ph^m = sum_k ... (+i hbar)^k ph^(m-k) qh^(n-k).
    """
    unit = _MINUS_I if sign < 0 else _PLUS_I
    return tuple(
        (k, scale_g(_ipow(unit, k), math.factorial(k) * math.comb(m, k) * math.comb(n, k)))
        for k in range(min(m, n) + 1)
    )


def scale_g(g, r):
    return (g[0] * r, g[1] * r)


def _block_product(a, b, sign):
    """One dof: (x^a0 y^a1)(x^b0 y^b1) with y x reordered by the closed form.

    sign=-1: x = qh, y = ph (normal order).  sign=+1: x = ph, y = qh
    (antinormal order), with blocks given as (q exponent, p exponent).
    """
    if sign < 0:
        (a0, a1), (b0, b1) = a, b
        return [((a0 + b0 - k, a1 + b1 - k), k, g) for k, g in reorder(a1, b0, -1)]
    (aq, ap), (bq, bp) = a, b
    return [((aq + bq - k, ap + bp - k), k, g) for k, g in reorder(bp, aq, 1)]


def _ordered_mul(a, b, sign):
    out = {}
    for (m1, k1, j1), g1 in a.items():
        for (m2, k2, j2), g2 in b.items():
            partial = [((), k1 + k2, gmul(g1, g2))]
            for x, y in zip(m1, m2):
                partial = [
                    (mono + (block,), k + dk, gmul(g, dg))
                    for mono, k, g in partial
                    for block, dk, dg in _block_product(x, y, sign)
                ]
            for mono, k, g in partial:
                _acc(out, (mono, k, j1 + j2), g)
    return out


def op_mul(a, b):
    """Product of normal-ordered operators, result normal-ordered."""
    return _ordered_mul(a, b, -1)


def standard_product(f, g):
    """Product of standard-order (qh left) symbols at s = 1.

    At s = 1 the ordered monomial is qh^n ph^m, so the standard symbol
    of an operator is its normal form read as a commutative polynomial.
    """
    return _ordered_mul(f, g, -1)


def antistandard_product(f, g):
    """Product of antistandard-order (ph left) symbols at s = -1."""
    return _ordered_mul(f, g, 1)


def commutator(a, b):
    return sub(op_mul(a, b), op_mul(b, a))


def dagger(a):
    """Adjoint: conjugate coefficients, reverse qh^n ph^m into ph^m qh^n."""
    out = {}
    for (mono, k, j), g in a.items():
        partial = [((), k, (g[0], -g[1]))]
        for n, m in mono:
            partial = [
                (pm + ((n - dk, m - dk),), pk + dk, gmul(pg, dg))
                for pm, pk, pg in partial
                for dk, dg in reorder(m, n, -1)
            ]
        for pm, pk, pg in partial:
            _acc(out, (pm, pk, j), pg)
    return out


@functools.lru_cache(maxsize=None)
def _s_binomial(j, r):
    """Coefficients of (1+s)^j (1-s)^r as a tuple indexed by s power."""
    coeffs = [0] * (j + r + 1)
    for a in range(j + 1):
        for b in range(r + 1):
            coeffs[a + b] += math.comb(j, a) * math.comb(r, b) * (-1) ** b
    return tuple(coeffs)


@functools.lru_cache(maxsize=None)
def t_single(n, m):
    """One-dof ordered monomial t(n, m) in normal form, formal s.

    The binomial average over placements of the position block, each
    placement qh^j (ph^m qh^(n-j)) reordered by the closed form.
    Returns {((a, b), hbar_pow, s_pow): gaussian}.
    """
    out = {}
    denominator = 2**n
    for j in range(n + 1):
        weights = _s_binomial(j, n - j)
        outer = math.comb(n, j)
        for k, g in reorder(m, n - j, -1):
            block = (n - k, m - k)
            for s_pow, w in enumerate(weights):
                if w:
                    _acc(out, (block, k, s_pow), scale_g(g, Fraction(outer * w, denominator)))
    return out


@functools.lru_cache(maxsize=None)
def t_multi(mono):
    partial = {((), 0, 0): ONE_G}
    for n, m in mono:
        step = {}
        for (pm, pk, pj), pg in partial.items():
            for (block, k, j), g in t_single(n, m).items():
                _acc(step, (pm + (block,), pk + k, pj + j), gmul(pg, g))
        partial = step
    return partial


def ms(f):
    out = {}
    for (mono, k, j), g in f.items():
        for (tm, tk, tj), tg in t_multi(mono).items():
            _acc(out, (tm, tk + k, tj + j), gmul(tg, g))
    return out


def ms_inverse(F):
    """Peel top-degree terms against t(mono) = mono + lower degree."""
    remaining = dict(F)
    out = {}
    while remaining:
        degree = max(sum(n + m for n, m in mono) for mono, _k, _j in remaining)
        top = {}
        for (mono, k, j), g in remaining.items():
            if sum(n + m for n, m in mono) == degree:
                top.setdefault(mono, {})[(k, j)] = g
        for mono, coeff in top.items():
            for (k, j), g in coeff.items():
                _acc(out, (mono, k, j), g)
                for (tm, tk, tj), tg in t_multi(mono).items():
                    _acc(remaining, (tm, tk + k, tj + j), gneg(gmul(tg, g)))
    return out


def star(f, g):
    """The s-parametrized star product through the ordering map."""
    return ms_inverse(op_mul(ms(g), ms(f)))


# --- substitution and limits --------------------------------------------------


def subs_s(a, value):
    """Evaluate the formal s at a Gaussian rational."""
    out = {}
    for (mono, k, j), g in a.items():
        _acc(out, (mono, k, 0), gmul(g, _ipow(value, j)))
    return out


def hbar_divided_limit(a):
    """(a / (i hbar)) at hbar -> 0, or None when a is not hbar-divisible."""
    out = {}
    for (mono, k, j), g in a.items():
        if k < 1:
            return None
        if k == 1:
            _acc(out, (mono, 0, j), gmul(g, _MINUS_I))
    return out
