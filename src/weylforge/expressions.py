"""Expression language over both algebras.

Grammar (whitespace-insensitive):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' UINT)? ('/' UINT)?
    atom   := UINT | IDENT | call | '(' expr ')'
    call   := IDENT '(' expr (',' expr)* ')'

Identifiers: the keywords i, hbar, s; commutative variables q, p (an
optional 1-based dof suffix: q2, p3); operator variables qh, ph; and
the function names in _CALLS.  The '/' production only divides by an
integer literal, which together with UINT gives all rational scalars.

Parsing yields tuple-shaped AST nodes; evaluate interprets them as a
(kind, value) pair with kind one of "scalar", "phase", "op", "series".
Scalars promote silently into either algebra, but commutative and
operator variables never mix inside one expression except through the
explicit maps (ms, msinv, PB-type calls on one side, PMB-type on the
other).
"""

import re
from fractions import Fraction

from .dynamics import classical_flow_series, pmb_flow_series
from .operators import OpPoly, commutator, t_monomial
from .phase import PhasePoly, moyal_bracket, poisson_bracket, star_product
from .polynomial import HBAR, I, S, Scalar, _checked_dof_count
from .superops import diamond, pmb
from .wwgm import ms, ms_inverse

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprTypeError",
    "parse",
    "evaluate",
    "max_dof_index",
]

_CALLS = {
    "PB": 2,
    "MB": 2,
    "star": 2,
    "PMB": 2,
    "diamond": 2,
    "commutator": 2,
    "ms": 1,
    "msinv": 1,
    "dagger": 1,
    "t": (2, 3),
    "evolve": 3,
}

_VAR_RE = re.compile(r"(qh|ph|q|p)([0-9]+)?")

# Deepest parenthesis or call nesting parse accepts.  Parsing and
# evaluation recurse a few frames per level, so the limit keeps deep input
# well clear of the interpreter's recursion limit.
_MAX_NESTING = 100

_CHAINS = ("add", "sub", "mul")


class ExprError(ValueError):
    """Base for everything the expression layer can reject."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class ExprTypeError(ExprError):
    pass


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        column = i + 1
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("uint", int(text[i:j]), column))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], column))
            i = j
        elif ch in "+-*^(),/":
            tokens.append((ch, ch, column))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", column)
    # End-of-input errors report the last real token's position.
    tokens.append(("end", None, tokens[-1][2] if tokens else 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind, what):
        token = self.peek()
        if token[0] != kind:
            raise ExprSyntaxError(f"expected {what}", token[2])
        return self.advance()

    def enter(self, column):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(
                f"nesting deeper than {_MAX_NESTING} levels", column
            )

    def parse_expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = ("neg", node)
        while self.peek()[0] in ("+", "-"):
            operator = self.advance()[0]
            right = self.parse_term()
            node = ("add" if operator == "+" else "sub", node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            token = self.expect("uint", "an integer exponent")
            node = ("pow", node, token[1])
        if self.peek()[0] == "/":
            self.advance()
            token = self.expect("uint", "an integer divisor")
            if token[1] == 0:
                raise ExprSyntaxError("division by zero", token[2])
            node = ("div", node, token[1])
        return node

    def parse_atom(self):
        token = self.advance()
        kind, value, column = token
        if kind == "uint":
            return ("num", Fraction(value))
        if kind == "(":
            self.enter(column)
            node = self.parse_expr()
            self.expect(")", "a closing parenthesis")
            self.depth -= 1
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.parse_call(value, column)
            if value == "i":
                return ("i",)
            if value == "hbar":
                return ("hbar",)
            if value == "s":
                return ("s",)
            match = _VAR_RE.fullmatch(value)
            if match:
                index = int(match.group(2)) if match.group(2) else None
                if index is not None and index < 1:
                    raise ExprSyntaxError("dof indices start at 1", column)
                return ("var", match.group(1), index)
            if value in _CALLS:
                raise ExprSyntaxError(f"{value} needs call arguments", column)
            raise ExprSyntaxError(f"unknown identifier {value!r}", column)
        raise ExprSyntaxError("expected a value", column)

    def parse_call(self, name, column):
        if name not in _CALLS:
            raise ExprSyntaxError(f"unknown function {name!r}", column)
        self.enter(self.expect("(", "an opening parenthesis")[2])
        arguments = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.advance()
            arguments.append(self.parse_expr())
        self.expect(")", "a closing parenthesis")
        self.depth -= 1
        arity = _CALLS[name]
        allowed = arity if isinstance(arity, tuple) else (arity,)
        if len(arguments) not in allowed:
            wanted = " or ".join(str(a) for a in allowed)
            raise ExprSyntaxError(
                f"{name} takes {wanted} arguments, got {len(arguments)}", column
            )
        return ("call", name, tuple(arguments), column)


def parse(text):
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ExprSyntaxError("unexpected trailing input", trailing[2])
    return node


def _chain(node):
    """Unwind a left-deep +/-/* chain without recursion.

    Returns the leftmost operand and the (head, right operand) steps that
    fold onto it, innermost first.  parse builds flat sums and products
    as such chains, one level per operand.
    """
    steps = []
    while node[0] in _CHAINS:
        steps.append((node[0], node[2]))
        node = node[1]
    steps.reverse()
    return node, steps


def max_dof_index(node):
    """Largest explicit 1-based dof index in the tree (0 when none)."""
    node, steps = _chain(node)
    found = max((max_dof_index(right) for _head, right in steps), default=0)
    head = node[0]
    if head == "var":
        return max(found, node[2] or 1)
    if head in ("pow", "div", "neg"):
        return max(found, max_dof_index(node[1]))
    if head == "call":
        return max(found, max((max_dof_index(a) for a in node[2]), default=0))
    return found


def _to_phase(pair, dof_count, what):
    kind, value = pair
    if kind == "phase":
        return value
    if kind == "scalar":
        return PhasePoly.constant(value, dof_count)
    if kind == "op":
        raise ExprTypeError(f"{what} needs commutative arguments, got operators")
    raise ExprTypeError(f"{what} cannot take a flow series")


def _to_op(pair, dof_count, what):
    kind, value = pair
    if kind == "op":
        return value
    if kind == "scalar":
        return OpPoly.identity(dof_count) * value
    if kind == "phase":
        raise ExprTypeError(
            f"{what} needs operator arguments; wrap commutative ones in ms(...)"
        )
    raise ExprTypeError(f"{what} cannot take a flow series")


def _to_scalar(pair, what):
    kind, value = pair
    if kind != "scalar":
        raise ExprTypeError(f"{what} must be a scalar expression")
    return value


def _as_uint(pair, what):
    gaussian = _to_scalar(pair, what).as_constant()
    if (
        gaussian is not None
        and gaussian.im == 0
        and gaussian.re.denominator == 1
        and gaussian.re >= 0
    ):
        return int(gaussian.re)
    raise ExprTypeError(f"{what} must be a nonnegative integer")


def _combine(left, right, op, dof_count):
    lk, lv = left
    rk, rv = right
    if "series" in (lk, rk):
        raise ExprTypeError("flow series cannot be combined further")
    if lk == rk:
        kind = lk
    elif lk == "scalar":
        kind = rk
        lv = _to_phase(left, dof_count, op) if rk == "phase" else _to_op(left, dof_count, op)
    elif rk == "scalar":
        kind = lk
        rv = _to_phase(right, dof_count, op) if lk == "phase" else _to_op(right, dof_count, op)
    else:
        raise ExprTypeError("cannot mix commutative and operator variables")
    if op == "add":
        return kind, lv + rv
    if op == "sub":
        return kind, lv - rv
    return kind, lv * rv


def _eval_call(name, arguments, column, dof_count):
    values = [_eval(a, dof_count) for a in arguments]
    if name in ("PB", "MB", "star"):
        fn = {"PB": poisson_bracket, "MB": moyal_bracket, "star": star_product}[name]
        f = _to_phase(values[0], dof_count, name)
        g = _to_phase(values[1], dof_count, name)
        return "phase", fn(f, g)
    if name in ("PMB", "diamond", "commutator"):
        fn = {"PMB": pmb, "diamond": diamond, "commutator": commutator}[name]
        F = _to_op(values[0], dof_count, name)
        G = _to_op(values[1], dof_count, name)
        return "op", fn(F, G)
    if name == "dagger":
        return "op", _to_op(values[0], dof_count, name).dagger()
    if name == "ms":
        return "op", ms(_to_phase(values[0], dof_count, name))
    if name == "msinv":
        return "phase", ms_inverse(_to_op(values[0], dof_count, name))
    if name == "t":
        n = _as_uint(values[0], "t's first exponent")
        m = _as_uint(values[1], "t's second exponent")
        n_vector = (n,) + (0,) * (dof_count - 1)
        m_vector = (m,) + (0,) * (dof_count - 1)
        result = t_monomial(n_vector, m_vector)
        if len(values) == 3:
            result = result.subs_s(_to_scalar(values[2], "t's ordering argument"))
        return "op", result
    if name == "evolve":
        order = _as_uint(values[2], "evolve's order")
        return "series", evolve_series(values[0], values[1], order, dof_count)
    raise AssertionError(f"unhandled call {name}")


def evolve_series(observable, hamiltonian, order, dof_count):
    """Flow of an evaluated observable under an evaluated Hamiltonian.

    Both are (kind, value) pairs as evaluate returns them.  An operator
    observable flows by pmb with ms(H), a commutative or scalar one by
    the Poisson bracket with H; H itself must be commutative.
    """
    if hamiltonian[0] not in ("phase", "scalar"):
        raise ExprTypeError("the hamiltonian must be commutative")
    H = _to_phase(hamiltonian, dof_count, "evolve")
    kind, value = observable
    if kind == "series":
        raise ExprTypeError("the observable cannot be a flow series")
    if kind == "op":
        return pmb_flow_series(value, H, order)
    return classical_flow_series(_to_phase(observable, dof_count, "evolve"), H, order)


def _eval(node, dof_count):
    node, steps = _chain(node)
    out = _eval_operand(node, dof_count)
    for head, right in steps:
        out = _combine(out, _eval(right, dof_count), head, dof_count)
    return out


def _eval_operand(node, dof_count):
    """Evaluate a node that heads no +/-/* chain."""
    head = node[0]
    if head == "num":
        return "scalar", Scalar.constant(node[1])
    if head == "i":
        return "scalar", I
    if head == "hbar":
        return "scalar", HBAR
    if head == "s":
        return "scalar", S
    if head == "var":
        index = (node[2] or 1) - 1
        if index >= dof_count:
            raise ExprError(
                f"variable {node[1]}{node[2]} needs {index + 1} dofs, "
                f"evaluating with {dof_count}"
            )
        if node[1] in ("q", "p"):
            return "phase", PhasePoly.generator(node[1], index, dof_count)
        return "op", OpPoly.generator(node[1][0], index, dof_count)
    if head in ("pow", "div", "neg"):
        kind, value = _eval(node[1], dof_count)
        if kind == "series":
            raise ExprTypeError("flow series cannot be combined further")
        if head == "pow":
            return kind, value ** node[2]
        if head == "div":
            return kind, value * Fraction(1, node[2])
        return kind, -value
    if head == "call":
        return _eval_call(node[1], node[2], node[3], dof_count)
    raise AssertionError(f"unhandled node {head}")


def evaluate(node, dof_count=1):
    """Interpret a parsed tree; returns (kind, value)."""
    return _eval(node, _checked_dof_count(dof_count))
