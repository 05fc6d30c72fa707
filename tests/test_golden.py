"""Byte-exact output of the CLI for small eval, t and evolve commands.

The strings are pinned literally: determinism tests only compare one run
with another, so a change that alters every run alike shows up here.
"""

import pytest

from weylforge.cli import run_command

EVAL = ["eval", "MB(q, p)"]
T = ["t", "1", "1"]
EVOLVE = [
    "evolve", "--observable", "qh", "--hamiltonian", "(q^2+p^2)/2", "--order", "1",
]

EVAL_TEXT = "-i*hbar"

EVAL_LATEX = "-i \\hbar"

EVAL_JSON = """\
{
  "kind": "phase_poly",
  "dof": 1,
  "terms": [
    {
      "exponents": [
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "0",
        "im": "-1"
      }
    }
  ]
}"""

T_TEXT = "qh*ph - 1/2*i*hbar + 1/2*i*hbar*s"

T_LATEX = "\\hat{q} \\hat{p} - \\frac{1}{2} i \\hbar + \\frac{1}{2} i \\hbar s"

T_JSON = """\
{
  "kind": "op_poly",
  "dof": 1,
  "terms": [
    {
      "exponents": [
        [
          1,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "1",
        "im": "0"
      }
    },
    {
      "exponents": [
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "0",
        "im": "-1/2"
      }
    },
    {
      "exponents": [
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 1,
        "re": "0",
        "im": "1/2"
      }
    }
  ]
}"""

EVOLVE_TEXT = "t^0: qh\nt^1: ph"

EVOLVE_LATEX = "t^{0}: \\hat{q} \\\\\nt^{1}: \\hat{p}"

EVOLVE_JSON = """\
{
  "kind": "flow_series",
  "dof": 1,
  "order": 1,
  "space": "operator",
  "coefficients": [
    {
      "kind": "op_poly",
      "dof": 1,
      "terms": [
        {
          "exponents": [
            [
              1,
              0
            ]
          ],
          "coeff": {
            "hbar_pow": 0,
            "s_pow": 0,
            "re": "1",
            "im": "0"
          }
        }
      ]
    },
    {
      "kind": "op_poly",
      "dof": 1,
      "terms": [
        {
          "exponents": [
            [
              0,
              1
            ]
          ],
          "coeff": {
            "hbar_pow": 0,
            "s_pow": 0,
            "re": "1",
            "im": "0"
          }
        }
      ]
    }
  ]
}"""


# Rationals with non-trivial denominators and imaginary parts print as
# 3/2, never as a decimal or an unreduced pair.
EVAL_CUBE = ["eval", "(q/3 + i*p/2)^3"]
EVAL_MIXED = ["eval", "(2/3 - i/4)*q^2 + (1/2 + 3*i)*hbar*p"]
T_HALF = ["t", "3", "2", "--s-value", "1/2"]

EVAL_CUBE_TEXT = "1/27*q^3 + 1/6*i*q^2*p - 1/4*q*p^2 - 1/8*i*p^3"

EVAL_CUBE_LATEX = (
    "\\frac{1}{27} q^{3} + \\frac{1}{6} i q^{2} p"
    " - \\frac{1}{4} q p^{2} - \\frac{1}{8} i p^{3}"
)

EVAL_CUBE_JSON = """\
{
  "kind": "phase_poly",
  "dof": 1,
  "terms": [
    {
      "exponents": [
        [
          3,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "1/27",
        "im": "0"
      }
    },
    {
      "exponents": [
        [
          2,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "0",
        "im": "1/6"
      }
    },
    {
      "exponents": [
        [
          1,
          2
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "-1/4",
        "im": "0"
      }
    },
    {
      "exponents": [
        [
          0,
          3
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "0",
        "im": "-1/8"
      }
    }
  ]
}"""

EVAL_MIXED_TEXT = "(2/3-1/4*i)*q^2 + (1/2+3*i)*hbar*p"

EVAL_MIXED_LATEX = (
    "(\\frac{2}{3} - \\frac{1}{4} i) q^{2}"
    " + (\\frac{1}{2} + 3 i) \\hbar p"
)

EVAL_MIXED_JSON = """\
{
  "kind": "phase_poly",
  "dof": 1,
  "terms": [
    {
      "exponents": [
        [
          2,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "2/3",
        "im": "-1/4"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "1/2",
        "im": "3"
      }
    }
  ]
}"""

T_HALF_TEXT = "qh^3*ph^2 - 3/2*i*hbar*qh^2*ph - 3/8*hbar^2*qh"

T_HALF_LATEX = (
    "\\hat{q}^{3} \\hat{p}^{2} - \\frac{3}{2} i \\hbar \\hat{q}^{2} \\hat{p}"
    " - \\frac{3}{8} \\hbar^{2} \\hat{q}"
)

T_HALF_JSON = """\
{
  "kind": "op_poly",
  "dof": 1,
  "terms": [
    {
      "exponents": [
        [
          3,
          2
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "1",
        "im": "0"
      }
    },
    {
      "exponents": [
        [
          2,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "0",
        "im": "-3/2"
      }
    },
    {
      "exponents": [
        [
          1,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 2,
        "s_pow": 0,
        "re": "-3/8",
        "im": "0"
      }
    }
  ]
}"""

EVAL_MB2 = [
    "eval", "MB(q1^2*p1 + i/2*q2*p2, (2/3 - i)*p1^2*q2^2)", "--dof", "2",
]
EVAL_STAR2 = ["eval", "star(q1*p1 + i*p2/2, (1/2 - i)*p1*q2)", "--dof", "2"]
EVAL_PMB2 = [
    "eval", "PMB(ms(q1*p1 - i*q2^2/2), ms((1/3 + i)*p1*p2^2))",
    "--dof", "2", "--s-value", "i/2",
]
EVAL_DAGGER2 = ["eval", "dagger((2 - i/3)*qh1^2*ph1*qh2*ph2)", "--dof", "2"]

EVAL_MB2_TEXT = (
    "(-4-8/3*i)*hbar*q1*p1^2*q2^2 + (-2/3+i)*hbar*p1^2*q2^2"
    " + (-4/3+2*i)*hbar^2*s*p1*q2^2"
)

EVAL_MB2_LATEX = (
    "(-4 - \\frac{8}{3} i) \\hbar q_{1} p_{1}^{2} q_{2}^{2}"
    " + (-\\frac{2}{3} + i) \\hbar p_{1}^{2} q_{2}^{2} + (-\\frac{4}{3}"
    " + 2 i) \\hbar^{2} s p_{1} q_{2}^{2}"
)

EVAL_MB2_JSON = """\
{
  "kind": "phase_poly",
  "dof": 2,
  "terms": [
    {
      "exponents": [
        [
          1,
          2
        ],
        [
          2,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "-4",
        "im": "-8/3"
      }
    },
    {
      "exponents": [
        [
          0,
          2
        ],
        [
          2,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "-2/3",
        "im": "1"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          2,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 2,
        "s_pow": 1,
        "re": "-4/3",
        "im": "2"
      }
    }
  ]
}"""

EVAL_STAR2_TEXT = (
    "(1/2-i)*q1*p1^2*q2 + (1/2+1/4*i)*p1*q2*p2 + (-1/2-1/4*i)*hbar*p1*q2"
    " + (-1/2-1/4*i)*hbar*s*p1*q2 + (-1/8+1/4*i)*hbar*p1"
    " + (1/8-1/4*i)*hbar*s*p1"
)

EVAL_STAR2_LATEX = (
    "(\\frac{1}{2} - i) q_{1} p_{1}^{2} q_{2} + (\\frac{1}{2}"
    " + \\frac{1}{4} i) p_{1} q_{2} p_{2} + (-\\frac{1}{2}"
    " - \\frac{1}{4} i) \\hbar p_{1} q_{2} + (-\\frac{1}{2}"
    " - \\frac{1}{4} i) \\hbar s p_{1} q_{2} + (-\\frac{1}{8}"
    " + \\frac{1}{4} i) \\hbar p_{1} + (\\frac{1}{8}"
    " - \\frac{1}{4} i) \\hbar s p_{1}"
)

EVAL_STAR2_JSON = """\
{
  "kind": "phase_poly",
  "dof": 2,
  "terms": [
    {
      "exponents": [
        [
          1,
          2
        ],
        [
          1,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "1/2",
        "im": "-1"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          1,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "1/2",
        "im": "1/4"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          1,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "-1/2",
        "im": "-1/4"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          1,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 1,
        "re": "-1/2",
        "im": "-1/4"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "-1/8",
        "im": "1/4"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 1,
        "re": "1/8",
        "im": "-1/4"
      }
    }
  ]
}"""

EVAL_PMB2_TEXT = (
    "(-2+2/3*i)*ph1*qh2*ph2 + (-1/3-i)*ph1*ph2^2 + (5/6+5/6*i)*hbar*ph1"
)

EVAL_PMB2_LATEX = (
    "(-2 + \\frac{2}{3} i) \\hat{p}_{1} \\hat{q}_{2} \\hat{p}_{2}"
    " + (-\\frac{1}{3} - i) \\hat{p}_{1} \\hat{p}_{2}^{2} + (\\frac{5}{6}"
    " + \\frac{5}{6} i) \\hbar \\hat{p}_{1}"
)

EVAL_PMB2_JSON = """\
{
  "kind": "op_poly",
  "dof": 2,
  "terms": [
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          1,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "-2",
        "im": "2/3"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          0,
          2
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "-1/3",
        "im": "-1"
      }
    },
    {
      "exponents": [
        [
          0,
          1
        ],
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "5/6",
        "im": "5/6"
      }
    }
  ]
}"""

EVAL_DAGGER2_TEXT = (
    "(2+1/3*i)*qh1^2*ph1*qh2*ph2 + (1/3-2*i)*hbar*qh1^2*ph1"
    " + (2/3-4*i)*hbar*qh1*qh2*ph2 + (-4-2/3*i)*hbar^2*qh1"
)

EVAL_DAGGER2_LATEX = (
    "(2 + \\frac{1}{3} i) \\hat{q}_{1}^{2} \\hat{p}_{1}"
    " \\hat{q}_{2} \\hat{p}_{2}"
    " + (\\frac{1}{3} - 2 i) \\hbar \\hat{q}_{1}^{2} \\hat{p}_{1}"
    " + (\\frac{2}{3} - 4 i) \\hbar \\hat{q}_{1} \\hat{q}_{2} \\hat{p}_{2}"
    " + (-4 - \\frac{2}{3} i) \\hbar^{2} \\hat{q}_{1}"
)

EVAL_DAGGER2_JSON = """\
{
  "kind": "op_poly",
  "dof": 2,
  "terms": [
    {
      "exponents": [
        [
          2,
          1
        ],
        [
          1,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 0,
        "s_pow": 0,
        "re": "2",
        "im": "1/3"
      }
    },
    {
      "exponents": [
        [
          2,
          1
        ],
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "1/3",
        "im": "-2"
      }
    },
    {
      "exponents": [
        [
          1,
          0
        ],
        [
          1,
          1
        ]
      ],
      "coeff": {
        "hbar_pow": 1,
        "s_pow": 0,
        "re": "2/3",
        "im": "-4"
      }
    },
    {
      "exponents": [
        [
          1,
          0
        ],
        [
          0,
          0
        ]
      ],
      "coeff": {
        "hbar_pow": 2,
        "s_pow": 0,
        "re": "-4",
        "im": "-2/3"
      }
    }
  ]
}"""


@pytest.mark.parametrize(
    "argv,fmt,expected",
    [
        (EVAL, "text", EVAL_TEXT),
        (EVAL, "latex", EVAL_LATEX),
        (EVAL, "json", EVAL_JSON),
        (T, "text", T_TEXT),
        (T, "latex", T_LATEX),
        (T, "json", T_JSON),
        (EVOLVE, "text", EVOLVE_TEXT),
        (EVOLVE, "latex", EVOLVE_LATEX),
        (EVOLVE, "json", EVOLVE_JSON),
        (EVAL_CUBE, "text", EVAL_CUBE_TEXT),
        (EVAL_CUBE, "latex", EVAL_CUBE_LATEX),
        (EVAL_CUBE, "json", EVAL_CUBE_JSON),
        (EVAL_MIXED, "text", EVAL_MIXED_TEXT),
        (EVAL_MIXED, "latex", EVAL_MIXED_LATEX),
        (EVAL_MIXED, "json", EVAL_MIXED_JSON),
        (T_HALF, "text", T_HALF_TEXT),
        (T_HALF, "latex", T_HALF_LATEX),
        (T_HALF, "json", T_HALF_JSON),
        (EVAL_MB2, "text", EVAL_MB2_TEXT),
        (EVAL_MB2, "latex", EVAL_MB2_LATEX),
        (EVAL_MB2, "json", EVAL_MB2_JSON),
        (EVAL_STAR2, "text", EVAL_STAR2_TEXT),
        (EVAL_STAR2, "latex", EVAL_STAR2_LATEX),
        (EVAL_STAR2, "json", EVAL_STAR2_JSON),
        (EVAL_PMB2, "text", EVAL_PMB2_TEXT),
        (EVAL_PMB2, "latex", EVAL_PMB2_LATEX),
        (EVAL_PMB2, "json", EVAL_PMB2_JSON),
        (EVAL_DAGGER2, "text", EVAL_DAGGER2_TEXT),
        (EVAL_DAGGER2, "latex", EVAL_DAGGER2_LATEX),
        (EVAL_DAGGER2, "json", EVAL_DAGGER2_JSON),
    ],
)
def test_cli_output_bytes(argv, fmt, expected):
    assert run_command(argv + ["--format", fmt]) == (0, expected)
