"""Output checks for the two workloads.

Rendered CLI output (text, LaTeX or JSON) is parsed back into the
oracle's flat polynomial form and compared with what the oracle
computes from the same inputs.  Library results from the warm session
arrive already flat.  Where the oracle has no direct route, the check
uses a property the method must have (antisymmetry of a paired call,
hbar-divisibility with the Poisson bracket as classical limit).

Every check returns None when the output is right, else a short reason.
Nothing here compares against stored output.
"""

import json
import re
from fractions import Fraction

import gen
import oracle as O

# --- parsing rendered polynomials ---------------------------------------------


def _split_depth0(text, separators):
    """Split at separators that sit outside parentheses; keeps the sign."""
    pieces, depth, start, sign, i = [], 0, 0, 1, 0
    if text.startswith("-"):
        sign, start, i = -1, 1, 1
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep, sep_sign in separators:
                if text.startswith(sep, i):
                    pieces.append((sign, text[start:i]))
                    sign, start, i = sep_sign, i + len(sep), i + len(sep)
                    break
            else:
                i += 1
            continue
        i += 1
    pieces.append((sign, text[start:]))
    return pieces


_TERM_SEPARATORS = ((" + ", 1), (" - ", -1))

_TEXT_NUM = r"(\d+)(?:/(\d+))?"
_TEXT = {
    "num": re.compile(rf"^{_TEXT_NUM}$"),
    "gauss": re.compile(rf"^\((-?){_TEXT_NUM}([+-])(?:{_TEXT_NUM}\*)?i\)$"),
    "hbar": re.compile(r"^hbar(?:\^(-?\d+))?$"),
    "s": re.compile(r"^s(?:\^(\d+))?$"),
    "var": re.compile(r"^([qp])(h?)(\d*)(?:\^(\d+))?$"),
}
_LATEX_NUM = r"(?:(\d+)|\\frac\{(\d+)\}\{(\d+)\})"
_LATEX = {
    "num": re.compile(rf"^{_LATEX_NUM}$"),
    "gauss": re.compile(rf"^\((-?){_LATEX_NUM} ([+-]) (?:{_LATEX_NUM} )?i\)$"),
    "hbar": re.compile(r"^\\hbar(?:\^\{(-?\d+)\})?$"),
    "s": re.compile(r"^s(?:\^\{(\d+)\})?$"),
    "var": re.compile(r"^(?:\\hat\{([qp])\}|([qp]))(?:_\{(\d+)\})?(?:\^\{(\d+)\})?$"),
}


def _frac(whole, num, den):
    if whole is not None:
        return Fraction(int(whole))
    return Fraction(int(num), int(den))


def _text_frac(num, den):
    return Fraction(int(num), int(den) if den else 1)


class ParseError(ValueError):
    pass


def _parse_term(body, sign, fmt, dof):
    """One rendered term -> (mono, hbar_pow, s_pow, gaussian, is_operator)."""
    factors = _split_depth0(body, (("*", 1),) if fmt == "text" else ((" ", 1),))
    pats = _TEXT if fmt == "text" else _LATEX
    magnitude, unit_i, gauss = Fraction(1), False, None
    k = j = 0
    exps = [[0, 0] for _ in range(dof)]
    operator = None
    for _s, factor in factors:
        if factor == "i":
            unit_i = True
        elif match := pats["num"].match(factor):
            g = match.groups()
            magnitude = _text_frac(*g) if fmt == "text" else _frac(*g)
        elif match := pats["gauss"].match(factor):
            g = match.groups()
            if fmt == "text":
                re_part = _text_frac(g[1], g[2])
                im_part = _text_frac(g[4], g[5]) if g[4] else Fraction(1)
                link = g[3]
            else:
                re_part = _frac(*g[1:4])
                link = g[4]
                im_part = _frac(*g[5:8]) if any(g[5:8]) else Fraction(1)
            gauss = (-re_part if g[0] else re_part, im_part if link == "+" else -im_part)
        elif match := pats["hbar"].match(factor):
            k = int(match.group(1) or 1)
        elif match := pats["s"].match(factor):
            j = int(match.group(1) or 1)
        elif match := pats["var"].match(factor):
            if fmt == "text":
                kind, hat, index, power = match.groups()
                is_op = bool(hat)
            else:
                hat_kind, plain_kind, index, power = match.groups()
                kind, is_op = hat_kind or plain_kind, bool(hat_kind)
            if operator is not None and operator != is_op:
                raise ParseError(f"mixed variable kinds in {body!r}")
            operator = is_op
            slot = int(index) - 1 if index else 0
            if slot >= dof or (dof > 1) != bool(index):
                raise ParseError(f"bad dof index in {factor!r}")
            exps[slot][0 if kind == "q" else 1] += int(power or 1)
        else:
            raise ParseError(f"unknown factor {factor!r}")
    if gauss is not None:
        g = (gauss[0] * sign, gauss[1] * sign)
    elif unit_i:
        g = (Fraction(0), magnitude * sign)
    else:
        g = (magnitude * sign, Fraction(0))
    return tuple(map(tuple, exps)), k, j, g, operator


def parse_poly(text, fmt, dof):
    """Rendered text/LaTeX polynomial -> (flat dict, operator flag or None)."""
    text = text.strip()
    if text == "0":
        return {}, None
    out, operator = {}, None
    for sign, body in _split_depth0(text, _TERM_SEPARATORS):
        mono, k, j, g, is_op = _parse_term(body, sign, fmt, dof)
        if (mono, k, j) in out:
            raise ParseError(f"repeated term {body!r}")
        out[(mono, k, j)] = g
        if is_op is not None:
            if operator is not None and operator != is_op:
                raise ParseError("mixed operator and commutative terms")
            operator = is_op
    return out, operator


def flat_from_json_terms(terms):
    out = {}
    for term in terms:
        c = term["coeff"]
        mono = tuple((n, m) for n, m in term["exponents"])
        out[(mono, c["hbar_pow"], c["s_pow"])] = (Fraction(c["re"]), Fraction(c["im"]))
    return out


def parse_output(stdout, fmt, dof, series):
    """CLI stdout -> list of (flat poly, operator flag); one entry per poly."""
    stdout = stdout.rstrip("\n")
    if fmt == "json":
        obj = json.loads(stdout)
        if series:
            if obj.get("kind") != "flow_series" or obj.get("dof") != dof:
                raise ParseError("not a flow series of the right dof")
            polys = obj["coefficients"]
        else:
            polys = [obj]
        out = []
        for p in polys:
            if p.get("dof") != dof or p.get("kind") not in ("op_poly", "phase_poly"):
                raise ParseError("bad polynomial header")
            out.append((flat_from_json_terms(p["terms"]), p["kind"] == "op_poly"))
        return out
    if not series:
        return [parse_poly(stdout, fmt, dof)]
    out = []
    lines = stdout.split("\n")
    for k, line in enumerate(lines):
        prefix = f"t^{k}: " if fmt == "text" else f"t^{{{k}}}: "
        if fmt == "latex" and k < len(lines) - 1:
            if not line.endswith(" \\\\"):
                raise ParseError("missing LaTeX line break")
            line = line[:-3]
        if not line.startswith(prefix):
            raise ParseError(f"series line {k} lacks its prefix")
        out.append(parse_poly(line[len(prefix):], fmt, dof))
    return out


# --- expected values ------------------------------------------------------------


def cli_expected(op):
    """(list of flat polys, operator flag) the oracle predicts for a command."""
    spec, dof = op["spec"], op["dof"]
    kind = spec[0]
    if kind == "t":
        return [O.t_multi(((spec[1], spec[2]),) + ((0, 0),) * (dof - 1))], True
    if kind == "evolve":
        _, space, f0, h, order = spec
        if space == "op":
            start = O.ms_inverse(gen.word_normal(f0, dof))
            return [O.ms(c) for c in O.classical_flow(start, h, order, dof)], True
        return O.classical_flow(f0, h, order, dof), False
    if kind == "PB":
        return [O.poisson(spec[1], spec[2], dof)], False
    if kind == "star":
        return [O.star(spec[1], spec[2])], False
    if kind == "MB":
        return [O.sub(O.star(spec[1], spec[2]), O.star(spec[2], spec[1]))], False
    if kind == "PMB":
        return [O.ms(O.poisson(spec[1], spec[2], dof))], True
    if kind == "diamond":
        return [O.ms(O.phase_mul(spec[1], spec[2]))], True
    if kind == "ms":
        return [O.ms(spec[1])], True
    F = gen.word_normal(spec[1], dof)
    if kind == "msinv":
        return [O.ms_inverse(F)], False
    if kind == "dagger":
        return [O.dagger(F)], True
    return [O.commutator(F, gen.word_normal(spec[2], dof))], True


def perturb_flat(poly):
    """Add 1 to the real part of one coefficient (or insert a term)."""
    out = dict(poly)
    if out:
        key = min(out)
        re, im = out[key]
        out[key] = (re + 1, im)
    else:
        out[((), 0, 0)] = O.ONE_G
    return out


def check_cli(op, stdout, perturb=False):
    if op["argv"][0] == "check":
        return check_report(op, stdout, perturb)
    spec = op["spec"]
    try:
        got = parse_output(stdout, op["fmt"], op["dof"], spec[0] == "evolve")
    except (ParseError, ValueError, KeyError, TypeError) as error:
        return f"unparseable output: {error}"
    want, operator = cli_expected(op)
    if op["s"] is not None:
        want = [O.subs_s(w, gen.S_PARSED[op["s"]]) for w in want]
    if perturb:
        got[0] = (perturb_flat(got[0][0]), got[0][1])
    if len(got) != len(want):
        return f"{len(got)} polynomials, expected {len(want)}"
    for index, ((poly, is_op), expected) in enumerate(zip(got, want)):
        if is_op is not None and is_op != operator:
            return f"polynomial {index} has the wrong variable kind"
        if poly != expected:
            return f"polynomial {index} differs from the oracle"
    if spec[0] == "MB" and op["s"] is None:
        # Divisible by hbar, with the Poisson bracket as classical limit.
        limit = O.hbar_divided_limit(got[0][0])
        if limit != O.poisson(spec[1], spec[2], op["dof"]):
            return "Moyal bracket fails its classical limit"
    return None


def check_report(op, stdout, perturb=False):
    try:
        report = json.loads(stdout)
    except ValueError as error:
        return f"unparseable report: {error}"
    checks = report.get("checks")
    if perturb and checks:
        checks[0]["status"] = "fail"
    if report.get("kind") != "conformance_report" or report.get("suite") != op["suite"]:
        return f"not a report of the {op['suite']} suite"
    if report.get("seed") != op["seed"]:
        return "report names another seed"
    if not checks or report.get("failed") != 0 or report.get("passed") != len(checks):
        return f"verdict {report.get('passed')} passed / {report.get('failed')} failed"
    if any(check.get("status") != "pass" for check in checks):
        return "a listed check did not pass"
    if len({check.get("id") for check in checks}) != len(checks):
        return "check ids repeat"
    return None


# --- session results ------------------------------------------------------------


_MINUS_ONE = (Fraction(-1), Fraction(0))


def _at_plus_minus_one(poly):
    return O.subs_s(poly, O.ONE_G), O.subs_s(poly, _MINUS_ONE)


def _star_at_plus_minus_one(f, g):
    """f star g at s = 1 and s = -1 from the standard and antistandard
    products of the reversed factors (ms turns star into a reversed
    operator product)."""
    f1, fm = _at_plus_minus_one(f)
    g1, gm = _at_plus_minus_one(g)
    return O.standard_product(g1, f1), O.antistandard_product(gm, fm)


def check_session(ops, results, perturb=False):
    """Check one round of library results; returns the first failure or None.

    results[i] is the flat form the worker sent back (a list of flat
    polys for a flow series), or None for a failed call, which is
    counted elsewhere and not checked.  Paired requests sit next to each
    other.
    """
    if perturb:
        results = list(results)
        index = next(i for i, got in enumerate(results) if got is not None)
        got = results[index]
        results[index] = [perturb_flat(got[0])] + got[1:] if isinstance(got, list) else perturb_flat(got)
    for index, (req, got) in enumerate(zip(ops, results)):
        if got is None:
            continue
        op, src = req["op"], req["src"]
        dof = req["args"][0][2]
        if op == "pmb":
            want = O.ms(O.poisson(src[0], src[1], dof))
        elif op == "star_product":
            want = O.star(*src)
            if _at_plus_minus_one(got) != _star_at_plus_minus_one(*src):
                return f"call {index}: star product disagrees with the s = +-1 orderings"
        elif op == "moyal_bracket":
            want = None
            f, g = src
            one, minus = _star_at_plus_minus_one(f, g)
            one_r, minus_r = _star_at_plus_minus_one(g, f)
            if _at_plus_minus_one(got) != (O.sub(one, one_r), O.sub(minus, minus_r)):
                return f"call {index}: Moyal bracket disagrees with the s = +-1 orderings"
            if O.hbar_divided_limit(got) != O.poisson(f, g, dof):
                return f"call {index}: Moyal bracket is not hbar-divisible onto PB"
        elif op == "ms":
            want = O.ms(src[0])
        elif op in ("ms_inverse", "to_t_basis"):
            want = src[0]
        elif op == "diamond":
            want = O.ms(O.phase_mul(src[0], src[1]))
        else:
            flow = O.classical_flow(src[0], src[1], req["args"][2], dof)
            if got != [O.ms(c) for c in flow]:
                return f"call {index}: operator flow is not ms of the classical flow"
            continue
        if want is not None and got != want:
            return f"call {index}: {op} differs from the oracle"
        partner = results[index - 1] if index else None
        paired = index and ops[index - 1]["op"] == op and ops[index - 1]["src"] == src[::-1]
        if partner is not None and paired and op in ("pmb", "moyal_bracket"):
            if got != O.scale(partner, _MINUS_ONE):
                return f"call {index}: {op} is not antisymmetric"
    return None
