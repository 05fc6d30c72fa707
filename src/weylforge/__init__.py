"""Exact symbolic calculus for s-ordered operators and their phase-space images.

Two polynomial algebras over one exact coefficient ring (Gaussian
rationals with formal hbar and ordering parameter s), the ordering map
between them, the deformed and classical brackets on both sides, the
superoperator layer that computes the operator-side classical bracket,
and truncated formal flows.  Everything is exact; nothing floats.
"""

from .scalars import GaussianRational, NegativeHbarPower
from .polynomial import (
    Scalar,
    ZERO,
    ONE,
    I,
    HBAR,
    S,
    I_OVER_HBAR,
    NEG_I_OVER_HBAR,
)
from .phase import (
    PhasePoly,
    poisson_bracket,
    star_product,
    moyal_bracket,
    winf_pb_structure,
    winf_mb_closed_form,
    classical_limit_bracket,
)
from .operators import (
    OpPoly,
    OpWord,
    normalize,
    commutator,
    t_monomial,
    to_t_basis,
)
from .wwgm import (
    ms,
    ms_inverse,
    derivative_image,
    antihom_check,
    commutator_classical_limit,
)
from .superops import (
    Liouvillian,
    t_super_apply,
    ordering_super_apply,
    liouvillian_apply,
    ad_apply,
    diamond,
    pmb,
    pmb_functions,
)
from .dynamics import (
    FlowSeries,
    hamilton_rhs,
    pmb_flow_series,
    classical_flow_series,
    observable_rhs,
)
from .expressions import (
    ExprError,
    ExprSyntaxError,
    ExprTypeError,
    parse,
    evaluate,
    max_dof_index,
)
from .render import render
from .conformance import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Scalar",
    "NegativeHbarPower",
    "ZERO",
    "ONE",
    "I",
    "HBAR",
    "S",
    "I_OVER_HBAR",
    "NEG_I_OVER_HBAR",
    "PhasePoly",
    "poisson_bracket",
    "star_product",
    "moyal_bracket",
    "winf_pb_structure",
    "winf_mb_closed_form",
    "classical_limit_bracket",
    "OpPoly",
    "OpWord",
    "normalize",
    "commutator",
    "t_monomial",
    "to_t_basis",
    "ms",
    "ms_inverse",
    "derivative_image",
    "antihom_check",
    "commutator_classical_limit",
    "Liouvillian",
    "t_super_apply",
    "ordering_super_apply",
    "liouvillian_apply",
    "ad_apply",
    "diamond",
    "pmb",
    "pmb_functions",
    "FlowSeries",
    "hamilton_rhs",
    "pmb_flow_series",
    "classical_flow_series",
    "observable_rhs",
    "ExprError",
    "ExprSyntaxError",
    "ExprTypeError",
    "parse",
    "evaluate",
    "max_dof_index",
    "render",
    "SUITES",
    "run_suite",
    "__version__",
]
