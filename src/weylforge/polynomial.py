"""Sparse polynomial container shared by the operator and phase-space algebras.

Both algebras store a polynomial the same way: terms maps exponent
vectors ((n1, m1), ..., (nd, md)) to nonzero Scalar coefficients, the
vector standing for the product over dofs of the position generator to
the n_i times the momentum generator to the m_i.  They differ only in
how two polynomials multiply, so each subclass supplies _product (and
what only its algebra has, such as adjoint or derivative) and the rest
lives here.  Values of different subclasses never mix: they compare
unequal and refuse to add or multiply.

The operator product, the adjoint, the ordered monomials and their
inverse, the star product and the Moyal bracket all factor per dof into
kernels with integer weights, and all run through the one loop
_kernel_terms.
"""

from .scalars import ONE, _coerce_scalar


def _accumulate(terms, key, coeff):
    got = terms.get(key)
    total = coeff if got is None else got + coeff
    if total:
        terms[key] = total
    elif got is not None:
        del terms[key]


def _kernel_terms(products, class_power):
    """Sum of products whose per-dof factors are integer-weighted kernels.

    products yields (coeff, kernels): a Scalar and one kernel per dof,
    each a sequence of (block, cls, weight) with int cls and weight.
    Picking one entry per dof gives the term
        coeff * prod(weight) * class_power(sum(cls))
    at the concatenated blocks.  The combinatorics stay in ints: the
    weights of one product are summed per (key, class) before one
    Scalar-by-int multiplication, and each (key, class) total meets its
    class's Scalar once at the end.  Returns {key: Scalar}.
    """
    sums = {}
    for coeff, kernels in products:
        kernels = iter(kernels)
        partial = {((block,), cls): weight for block, cls, weight in next(kernels)}
        for kernel in kernels:
            grown = {}
            for (key, cls), weight in partial.items():
                for block, c, w in kernel:
                    slot = (key + (block,), cls + c)
                    grown[slot] = grown.get(slot, 0) + weight * w
            partial = grown
        for slot, weight in partial.items():
            _accumulate(sums, slot, coeff if weight == 1 else coeff * weight)
    out = {}
    for (key, cls), total in sums.items():
        _accumulate(out, key, total * class_power(cls))
    return out


class SparsePoly:
    """Exponent vectors to Scalar coefficients, zero terms dropped.

    Two polynomials of one class are equal exactly when their term maps
    are equal, so the stored form doubles as an identity certificate.
    Subclasses define _product(other), the product of two polynomials of
    their own class with matching dof counts.
    """

    __slots__ = ("dof_count", "_terms")

    def __init__(self, dof_count, terms=None):
        if not isinstance(dof_count, int) or dof_count < 1:
            raise ValueError("dof_count must be a positive integer")
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple((int(n), int(m)) for n, m in key)
                if len(key) != dof_count:
                    raise ValueError("exponent vector length != dof_count")
                if any(n < 0 or m < 0 for n, m in key):
                    raise ValueError("negative exponents")
                coeff = _coerce_scalar(coeff)
                if coeff is None:
                    raise TypeError("coefficients must be Scalars")
                if coeff:
                    _accumulate(clean, key, coeff)
        self.dof_count = dof_count
        self._terms = clean

    @classmethod
    def _raw(cls, dof_count, terms):
        out = object.__new__(cls)
        out.dof_count = dof_count
        out._terms = terms
        return out

    @classmethod
    def zero(cls, dof_count=1):
        return cls._raw(dof_count, {})

    @classmethod
    def constant(cls, value, dof_count=1):
        coeff = _coerce_scalar(value)
        if coeff is None:
            raise TypeError("constant must be a Scalar")
        if not coeff:
            return cls.zero(dof_count)
        return cls._raw(dof_count, {((0, 0),) * dof_count: coeff})

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
        return cls._raw(dof_count, {key: ONE})

    @classmethod
    def monomial(cls, exponents, coeff=ONE):
        key = tuple((int(n), int(m)) for n, m in exponents)
        return cls(len(key), {key: coeff})

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        return sorted(self._terms.items())

    def _check_dof(self, other):
        if self.dof_count != other.dof_count:
            raise ValueError(
                f"dof_count mismatch: {self.dof_count} vs {other.dof_count}"
            )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dof_count == other.dof_count and self._terms == other._terms

    def __add__(self, other):
        if type(other) is not type(self):
            scalar = _coerce_scalar(other)
            if scalar is None:
                return NotImplemented
            other = self.constant(scalar, self.dof_count)
        self._check_dof(other)
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(merged, key, coeff)
        return self._raw(self.dof_count, merged)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is type(self):
            return self + (-other)
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
        return self._raw(self.dof_count, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            self._check_dof(other)
            return self._product(other)
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        if not scalar:
            return self.zero(self.dof_count)
        return self._raw(
            self.dof_count,
            {k: c * scalar for k, c in self._terms.items()},
        )

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

    def map_scalars(self, fn):
        out = {}
        for key, coeff in self._terms.items():
            coeff = fn(coeff)
            if coeff:
                out[key] = coeff
        return self._raw(self.dof_count, out)

    def substitute(self, s_value=None, hbar_value=None):
        return self.map_scalars(
            lambda c: c.substitute(s_value=s_value, hbar_value=hbar_value)
        )

    def negate_s(self):
        return self.map_scalars(lambda c: c.negate_s())

    def subs_s(self, value):
        return self.map_scalars(lambda c: c.subs_s(value))

    def limit_hbar_zero(self):
        return self.map_scalars(lambda c: c.limit_hbar_zero())

    def min_hbar_exp(self):
        exps = [c.min_hbar_exp() for c in self._terms.values()]
        return min(exps) if exps else None

    def depends_on_s(self):
        return any(
            j > 0 for c in self._terms.values() for (_k, j), _v in c.items()
        )

    def total_degree(self):
        """Largest summed exponent over all terms; None when zero."""
        if not self._terms:
            return None
        return max(sum(n + m for n, m in key) for key in self._terms)

    def __repr__(self):
        name = type(self).__name__
        if not self._terms:
            return f"{name}.zero({self.dof_count})"
        bits = [f"{key}: {coeff!r}" for key, coeff in self.sorted_terms()]
        return name + "{" + ", ".join(bits) + "}"
