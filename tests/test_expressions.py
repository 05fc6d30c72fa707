"""Expression parsing, evaluation, and rendering, plus the CLI shell
around them."""

import json
import random

import pytest

from weylforge import (
    ExprError,
    ExprSyntaxError,
    ExprTypeError,
    OpPoly,
    PhasePoly,
    evaluate,
    max_dof_index,
    moyal_bracket,
    ms,
    parse,
    render,
    star_product,
    t_monomial,
)
from weylforge.cli import run_command
from weylforge.sampling import random_op_poly, random_phase_poly


def eval_text(text, dof_count=1):
    return evaluate(parse(text), dof_count)


class TestParsing:
    def test_precedence(self):
        kind, value = eval_text("1 + 2*3^2")
        assert kind == "scalar"
        assert value == 19

    def test_parentheses(self):
        _, value = eval_text("(1 + 2)*3")
        assert value == 9

    def test_leading_minus(self):
        _, value = eval_text("-q + q")
        assert value.is_zero()

    def test_fraction_postfix(self):
        _, value = eval_text("q^2/2 + q^2/2")
        assert value == PhasePoly.monomial([(2, 0)])

    def test_indexed_variables(self):
        node = parse("q2*p1 + qh3")
        assert max_dof_index(node) == 3  # reports the dof count needed

    def test_whitespace_immaterial(self):
        assert eval_text(" q * p ") == eval_text("q*p")

    @pytest.mark.parametrize(
        "text,column",
        [
            ("q +", 3),
            ("", 1),
            ("(q", 2),
            ("q ** p", 4),
            ("PB(q)", 1),  # arity errors point at the call name
            ("t(1)", 1),
            ("q @ p", 3),
            ("nosuchcall(1)", 1),
        ],
    )
    def test_syntax_error_columns(self, text, column):
        with pytest.raises(ExprSyntaxError) as info:
            eval_text(text)
        assert info.value.column == column
        assert f"(column {column})" in str(info.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            eval_text("q p")


class TestEvaluation:
    def test_kinds(self):
        assert eval_text("3/2")[0] == "scalar"
        assert eval_text("q*p")[0] == "phase"
        assert eval_text("qh*ph")[0] == "op"
        assert eval_text("evolve(q, q*p, 2)")[0] == "series"

    def test_scalar_promotes_into_phase(self):
        _, value = eval_text("2 + q")
        assert value == PhasePoly.generator("q") + 2

    def test_scalar_promotes_into_op(self):
        _, value = eval_text("qh + 1")
        assert value == OpPoly.generator("q") + 1

    def test_mixing_spaces_rejected(self):
        with pytest.raises(ExprTypeError):
            eval_text("q * ph")
        with pytest.raises(ExprTypeError):
            eval_text("q + qh")

    def test_noncommutative_order_respected(self):
        _, pq = eval_text("ph*qh")
        _, qp = eval_text("qh*ph")
        assert pq == qp - OpPoly.identity() * eval_text("i*hbar")[1]

    def test_symbol_atoms(self):
        kind, value = eval_text("i*hbar*s")
        assert kind == "scalar"

    def test_bracket_calls(self):
        _, mb = eval_text("MB(q^2, p^2)")
        f = PhasePoly.monomial([(2, 0)])
        g = PhasePoly.monomial([(0, 2)])
        assert mb == moyal_bracket(f, g)
        _, st = eval_text("star(q, p)")
        assert st == star_product(
            PhasePoly.generator("q"), PhasePoly.generator("p")
        )

    def test_operator_calls(self):
        _, out = eval_text("PMB(qh, ph)")
        assert out == -OpPoly.identity()
        _, c = eval_text("commutator(qh, ph)")
        assert c == OpPoly.identity() * eval_text("i*hbar")[1]

    def test_ms_and_inverse(self):
        _, out = eval_text("ms(q*p)")
        assert out == t_monomial(1, 1)
        _, back = eval_text("msinv(ms(q*p))")
        assert back == PhasePoly.monomial([(1, 1)])

    def test_t_call_with_ordering_argument(self):
        _, standard = eval_text("t(2, 1, 1)")
        assert standard == OpPoly.monomial([(2, 1)])
        _, formal = eval_text("t(2, 1, s)")
        assert formal == t_monomial(2, 1)
        _, plain = eval_text("t(2, 1)")
        assert plain == t_monomial(2, 1)

    def test_evolve_dispatches_on_observable_space(self):
        _, op_series = eval_text("evolve(qh, (q^2+p^2)/2, 1)")
        assert op_series.space == "operator"
        _, ph_series = eval_text("evolve(q, (q^2+p^2)/2, 1)")
        assert ph_series.space == "phase"
        assert list(ph_series) == [
            PhasePoly.generator("q"),
            PhasePoly.generator("p"),
        ]

    def test_evolve_rejects_operator_hamiltonian(self):
        with pytest.raises(ExprTypeError):
            eval_text("evolve(qh, qh*ph, 1)")

    def test_dagger(self):
        _, out = eval_text("dagger(qh*ph)")
        assert out == eval_text("ph*qh")[1]

    def test_dof_count_widens_variables(self):
        kind, value = eval_text("q1*p2", dof_count=2)
        assert value == PhasePoly.monomial([(1, 0), (0, 1)])

    def test_out_of_range_dof_rejected(self):
        with pytest.raises(ExprError):
            eval_text("q3", dof_count=2)


class TestRender:
    def test_text_goldens(self):
        assert render(t_monomial(1, 2, s_value=0)) == "qh*ph^2 - i*hbar*ph"
        assert (
            render(t_monomial(1, 1))
            == "qh*ph - 1/2*i*hbar + 1/2*i*hbar*s"
        )
        assert render(eval_text("MB(q,p)")[1]) == "-i*hbar"
        assert render(PhasePoly.zero()) == "0"
        assert render(eval_text("q^2 - q")[1]) == "q^2 - q"

    def test_text_numbered_variables(self):
        value = eval_text("q1*p2^2", dof_count=2)[1]
        assert render(value) == "q1*p2^2"

    def test_latex(self):
        assert render(eval_text("2*q^2")[1], "latex") == "2 q^{2}"
        out = render(t_monomial(1, 1), "latex")
        assert "\\hbar" in out
        assert "\\hat{q}" in out

    def test_json_schema(self):
        blob = json.loads(render(t_monomial(1, 1), "json"))
        assert blob["kind"] == "op_poly"
        assert blob["dof"] == 1
        coeffs = {
            (t["coeff"]["hbar_pow"], t["coeff"]["s_pow"]) for t in blob["terms"]
        }
        assert (1, 1) in coeffs  # the s-dependent correction survives
        for term in blob["terms"]:
            assert set(term) == {"exponents", "coeff"}
            assert set(term["coeff"]) == {"hbar_pow", "s_pow", "re", "im"}

    def test_json_series(self):
        series = eval_text("evolve(q, (q^2+p^2)/2, 2)")[1]
        blob = json.loads(render(series, "json"))
        assert blob["kind"] == "flow_series"
        assert blob["order"] == 2
        assert blob["space"] == "phase"
        assert len(blob["coefficients"]) == 3

    def test_round_trip_through_text(self):
        """Rendered text must parse back to the same polynomial."""
        rng = random.Random(191)
        for _ in range(100):
            value = random_phase_poly(rng, max_total=4, max_terms=3)
            kind, back = eval_text(render(value))
            assert kind in ("phase", "scalar")
            if kind == "scalar":
                back = PhasePoly.constant(back)
            assert back == value

    def test_round_trip_operators(self):
        rng = random.Random(192)
        for _ in range(100):
            value = random_op_poly(rng, max_total=4, max_terms=3)
            kind, back = eval_text(render(value))
            if kind == "scalar":
                back = OpPoly.identity() * back
            assert back == value

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(PhasePoly.one(), "html")


class TestCli:
    def test_eval(self):
        code, out = run_command(["eval", "MB(q,p)"])
        assert code == 0
        assert out == "-i*hbar"

    def test_t_command(self):
        code, out = run_command(["t", "1", "2", "--s-value", "0"])
        assert code == 0
        assert out == "qh*ph^2 - i*hbar*ph"

    def test_evolve_command(self):
        code, out = run_command(
            [
                "evolve",
                "--observable",
                "qh",
                "--hamiltonian",
                "(q^2+p^2)/2",
                "--order",
                "1",
            ]
        )
        assert code == 0
        assert out == "t^0: qh\nt^1: ph"

    def test_syntax_error_reporting(self):
        code, out = run_command(["eval", "q +"])
        assert code == 2
        assert out == "syntax error at column 3: expected a value"

    def test_type_error_reporting(self):
        code, out = run_command(["eval", "q*ph"])
        assert code == 2
        assert "cannot mix" in out

    def test_unknown_command(self):
        code, out = run_command(["badcmd"])
        assert code == 2
        assert "usage error" in out

    def test_eval_auto_widens_dof(self):
        code, out = run_command(["eval", "q2*p2"])
        assert code == 0
        assert out == "q2*p2"

    def test_s_value_flag(self):
        code, out = run_command(["eval", "t(1,1)", "--s-value", "1"])
        assert code == 0
        assert out == "qh*ph"
        code, out = run_command(["eval", "t(1,1)", "--s-value", "i/2"])
        assert code == 0
        assert "s" not in out

    def test_s_value_must_be_constant(self):
        code, out = run_command(["eval", "q", "--s-value", "q"])
        assert code == 2

    def test_check_suite_passes(self):
        code, out = run_command(
            ["check", "--suite", "weyl", "--seed", "42", "--format", "json"]
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["failed"] == 0
        assert blob["suite"] == "weyl"

    def test_check_unknown_suite(self):
        code, _ = run_command(["check", "--suite", "nope"])
        assert code == 2

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("WEYLFORGE_SEED", "7")
        code, out = run_command(
            ["check", "--suite", "weyl", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_seed_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("WEYLFORGE_SEED", "pi")
        code, _ = run_command(["check", "--suite", "weyl"])
        assert code == 2

    def test_evolve_rejects_operator_hamiltonian(self):
        code, out = run_command(
            [
                "evolve",
                "--observable",
                "qh",
                "--hamiltonian",
                "qh*ph",
                "--order",
                "1",
            ]
        )
        assert code == 2

    def test_json_format_flag(self):
        code, out = run_command(["eval", "q*p", "--format", "json"])
        assert code == 0
        assert json.loads(out)["kind"] == "phase_poly"

    def test_leading_minus_expression_is_a_value(self):
        assert run_command(["eval", "-q*p"]) == (0, "-q*p")
        assert run_command(["eval", "-hbar*q", "--format", "latex"]) == (
            run_command(["eval", "--format", "latex", "--", "-hbar*q"])
        )
        flow = ["--hamiltonian", "(p1^2+p2^2)/2", "--order", "2"]
        split = run_command(["evolve", "--observable", "-3*q2^3"] + flow)
        joined = run_command(["evolve", "--observable=-3*q2^3"] + flow)
        assert split == joined
        assert split[0] == 0

    def test_leading_minus_leaves_flags_alone(self, capsys):
        code, out = run_command(["eval", "q", "--bogus"])
        assert code == 2 and "unrecognized arguments: --bogus" in out
        code, out = run_command(["evolve", "--observable", "-h"])
        assert code == 2 and "expected one argument" in out
        assert run_command(["eval", "-h"]) == (0, "")
        assert "usage:" in capsys.readouterr().out
        code, out = run_command(["t", "-1", "2"])
        assert (code, out) == (2, "usage error: exponents must be nonnegative")
