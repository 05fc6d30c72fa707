"""Independent oracles the tests check the library against.

Both reorderers here are written from scratch against the single
rewrite rule ph*qh = qh*ph - i*hbar and deliberately share no code with
the package: the random-order oracle picks WHICH out-of-order pair to
rewrite at random (the library folds words left to right through the
closed reordering identity), so agreement across many draws is evidence
the normal form is unique.
"""

import math
import random
from fractions import Fraction

from weylforge import GaussianRational, OpPoly, Scalar

MINUS_I_HBAR = Scalar.term(1, 0, GaussianRational(0, -1))

# Canonical letter order: sort by dof, positions before momenta.
_RANK = {"q": 0, "p": 1}


def _sort_key(letter):
    kind, dof_index = letter
    return (dof_index, _RANK[kind])


def oracle_normalize(letters, rng, coeff=None):
    """Normal-form an operator word by randomized rewriting.

    letters is a sequence of ('q'|'p', dof_index) pairs read left to
    right as an operator product.  Returns the OpPoly it equals.
    """
    words = {tuple(letters): coeff if coeff is not None else Scalar.constant(1)}
    while True:
        bad = None
        for word in words:
            positions = [
                i
                for i in range(len(word) - 1)
                if _sort_key(word[i]) > _sort_key(word[i + 1])
            ]
            if positions:
                bad = (word, rng.choice(positions))
                break
        if bad is None:
            break
        word, i = bad
        weight = words.pop(word)
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
        words[swapped] = words.get(swapped, Scalar.constant(0)) + weight
        if not words[swapped]:
            del words[swapped]
        if word[i][1] == word[i + 1][1]:
            # Same dof: ph*qh also drops the -i*hbar pair-removal term.
            dropped = word[:i] + word[i + 2:]
            extra = weight * MINUS_I_HBAR
            words[dropped] = words.get(dropped, Scalar.constant(0)) + extra
            if not words[dropped]:
                del words[dropped]
    dof_count = max((index for _, index in letters), default=0) + 1
    out = OpPoly.zero(dof_count)
    for word, weight in words.items():
        exponents = [[0, 0] for _ in range(dof_count)]
        for kind, dof_index in word:
            exponents[dof_index][_RANK[kind]] += 1
        out = out + OpPoly.monomial([tuple(e) for e in exponents], weight)
    return out


def closed_form_reorder(n, m):
    """ph^m qh^n as an OpPoly via the binomial-style closed form.

    sum_k (-i*hbar)^k k! C(m,k) C(n,k) qh^(n-k) ph^(m-k)
    """
    out = OpPoly.zero(1)
    for k in range(min(n, m) + 1):
        coeff = (
            MINUS_I_HBAR**k
            * math.factorial(k)
            * math.comb(m, k)
            * math.comb(n, k)
        )
        out = out + OpPoly.monomial([(n - k, m - k)], coeff)
    return out


def oracle_t_averages(n, m, rng):
    """The two binomial averages defining t(n, m), via oracle_normalize.

    Position-led: 2^-n sum_j C(n,j) (1+s)^j (1-s)^(n-j)  qh^j ph^m qh^(n-j).
    Momentum-led: 2^-m sum_k C(m,k) (1-s)^k (1+s)^(m-k)  ph^k qh^n ph^(m-k).
    Returns (position_led, momentum_led) as one-dof OpPolys.
    """
    plus = Scalar.constant(1) + Scalar.term(0, 1)
    minus = Scalar.constant(1) - Scalar.term(0, 1)
    q, p = ("q", 0), ("p", 0)
    position_led = OpPoly.zero(1)
    for j in range(n + 1):
        weight = plus**j * minus ** (n - j) * Fraction(math.comb(n, j), 2**n)
        letters = [q] * j + [p] * m + [q] * (n - j)
        position_led = position_led + oracle_normalize(letters, rng, weight)
    momentum_led = OpPoly.zero(1)
    for k in range(m + 1):
        weight = minus**k * plus ** (m - k) * Fraction(math.comb(m, k), 2**m)
        letters = [p] * k + [q] * n + [p] * (m - k)
        momentum_led = momentum_led + oracle_normalize(letters, rng, weight)
    return position_led, momentum_led


def random_letters(rng, length, dof_count=1):
    return [
        (rng.choice("qp"), rng.randrange(dof_count)) for _ in range(length)
    ]
