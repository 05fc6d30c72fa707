"""Deterministic rendering of results in text, JSON, and LaTeX.

Ordering contract, shared by all three formats so outputs are stable
byte-for-byte: polynomial terms sort by descending total degree, then
descending exponent key, and coefficients are flattened so that each
rendered piece carries exactly one (hbar power, s power) pair, sorted
ascending.  Rational magnitudes print exactly ("3/2"), never as floats.
"""

import json
from fractions import Fraction

from .dynamics import FlowSeries
from .operators import OpPoly
from .phase import PhasePoly

__all__ = ["render"]


def _flat_terms(poly):
    """Flatten to (key, hbar_pow, s_pow, gaussian) in canonical order."""
    out = list(poly.flat_items())
    out.sort(
        key=lambda item: (
            -sum(n + m for n, m in item[0]),
            tuple(-x for block in item[0] for x in block),
            item[1],
            item[2],
        )
    )
    return out


class _TextSymbols:
    joiner = "*"

    @staticmethod
    def number(value):
        return str(value)

    i = "i"
    hbar = "hbar"
    s = "s"

    @staticmethod
    def var(kind, dof_index, dof_count, operator):
        name = kind + "h" if operator else kind
        if dof_count > 1:
            name += str(dof_index + 1)
        return name

    @classmethod
    def power(cls, base, exponent):
        return base if exponent == 1 else f"{base}^{exponent}"

    @classmethod
    def gaussian(cls, value):
        imag = "i" if abs(value.im) == 1 else f"{abs(value.im)}*i"
        link = "+" if value.im > 0 else "-"
        return f"({value.re}{link}{imag})"


class _LatexSymbols:
    joiner = " "

    @staticmethod
    def number(value):
        value = Fraction(value)
        if value.denominator == 1:
            return str(value)
        sign = "-" if value < 0 else ""
        return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"

    i = "i"
    hbar = "\\hbar"
    s = "s"

    @staticmethod
    def var(kind, dof_index, dof_count, operator):
        name = f"\\hat{{{kind}}}" if operator else kind
        if dof_count > 1:
            name += f"_{{{dof_index + 1}}}"
        return name

    @classmethod
    def power(cls, base, exponent):
        return base if exponent == 1 else f"{base}^{{{exponent}}}"

    @classmethod
    def gaussian(cls, value):
        imag = "i" if abs(value.im) == 1 else f"{cls.number(abs(value.im))} i"
        link = "+" if value.im > 0 else "-"
        return f"({cls.number(value.re)} {link} {imag})"


def _term_pieces(item, symbols, dof_count, operator):
    key, hbar_pow, s_pow, gaussian = item
    factors = []
    sign = 1
    if gaussian.im == 0:
        sign = -1 if gaussian.re < 0 else 1
        magnitude = abs(gaussian.re)
        if magnitude != 1:
            factors.append(symbols.number(magnitude))
    elif gaussian.re == 0:
        sign = -1 if gaussian.im < 0 else 1
        magnitude = abs(gaussian.im)
        if magnitude != 1:
            factors.append(symbols.number(magnitude))
        factors.append(symbols.i)
    else:
        factors.append(symbols.gaussian(gaussian))
    if hbar_pow:
        factors.append(symbols.power(symbols.hbar, hbar_pow))
    if s_pow:
        factors.append(symbols.power(symbols.s, s_pow))
    for dof_index, (n, m) in enumerate(key):
        if n:
            factors.append(
                symbols.power(symbols.var("q", dof_index, dof_count, operator), n)
            )
        if m:
            factors.append(
                symbols.power(symbols.var("p", dof_index, dof_count, operator), m)
            )
    if not factors:
        factors.append(symbols.number(1))
    return sign, symbols.joiner.join(factors)


def _render_poly(poly, symbols):
    operator = isinstance(poly, OpPoly)
    items = _flat_terms(poly)
    if not items:
        return symbols.number(0)
    chunks = []
    for position, item in enumerate(items):
        sign, body = _term_pieces(item, symbols, poly.dof_count, operator)
        if position == 0:
            chunks.append("-" + body if sign < 0 else body)
        else:
            chunks.append((" - " if sign < 0 else " + ") + body)
    return "".join(chunks)


def _poly_json_object(poly):
    kind = "op_poly" if isinstance(poly, OpPoly) else "phase_poly"
    terms = []
    for key, hbar_pow, s_pow, gaussian in _flat_terms(poly):
        terms.append(
            {
                "exponents": [[n, m] for n, m in key],
                "coeff": {
                    "hbar_pow": hbar_pow,
                    "s_pow": s_pow,
                    "re": str(gaussian.re),
                    "im": str(gaussian.im),
                },
            }
        )
    return {"kind": kind, "dof": poly.dof_count, "terms": terms}


def _series_json_object(series):
    return {
        "kind": "flow_series",
        "dof": series.dof_count,
        "order": series.order,
        "space": series.space,
        "coefficients": [_poly_json_object(c) for c in series.coefficients],
    }


def _render_report_text(report):
    lines = [
        "suite {suite}: {passed} passed, {failed} failed (seed {seed})".format(
            **report
        )
    ]
    for check in report["checks"]:
        lines.append(
            f"[{check['status'].upper()}] {check['id']} "
            f"(anchor {check['anchor']}) {check['note']}"
        )
        if check["witness"]:
            lines.append(f"    witness: {check['witness']}")
    return "\n".join(lines)


def _render_report_latex(report):
    lines = [
        "\\begin{tabular}{lll}",
        "check & anchor & status \\\\",
    ]
    for check in report["checks"]:
        identifier = check["id"].replace("_", "\\_")
        lines.append(f"{identifier} & {check['anchor']} & {check['status']} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def render(value, format="text"):
    """Render a PhasePoly, OpPoly, FlowSeries, or report dict."""
    if format not in ("text", "json", "latex"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(value, (PhasePoly, OpPoly)):
        if format == "json":
            return json.dumps(_poly_json_object(value), indent=2)
        symbols = _TextSymbols if format == "text" else _LatexSymbols
        return _render_poly(value, symbols)
    if isinstance(value, FlowSeries):
        if format == "json":
            return json.dumps(_series_json_object(value), indent=2)
        symbols = _TextSymbols if format == "text" else _LatexSymbols
        lines = []
        for k, coefficient in enumerate(value.coefficients):
            prefix = f"t^{k}: " if format == "text" else f"t^{{{k}}}: "
            lines.append(prefix + _render_poly(coefficient, symbols))
        separator = "\n" if format == "text" else " \\\\\n"
        return separator.join(lines)
    if isinstance(value, dict) and value.get("kind") == "conformance_report":
        if format == "json":
            return json.dumps(value, indent=2)
        if format == "text":
            return _render_report_text(value)
        return _render_report_latex(value)
    raise TypeError(f"cannot render {type(value).__name__}")
