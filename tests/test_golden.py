"""Byte-exact output of the CLI for one small eval, t and evolve.

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
    ],
)
def test_cli_output_bytes(argv, fmt, expected):
    assert run_command(argv + ["--format", fmt]) == (0, expected)
