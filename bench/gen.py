"""Seeded input generators for the two workloads.

Every draw comes from a random.Random built from the benchmark seed, so
one seed fixes every input.  Each workload is built from rounds of a
fixed make-up (the same operation kinds in the same numbers); the seed
picks the polynomials, degrees, formats and ordering values inside
them.  A run does whole rounds, so the share of each kind -- and of
the two fixed fault probes -- is the same in every run.

No request repeats exactly within a run: every request is keyed by its
full text and a collision is drawn again.  Monomials do recur, which is
what the package's reorder caches feed on.
"""

import random
from fractions import Fraction

import oracle as O

# --- polynomials and their expression-language spelling ----------------------


def rand_gaussian(rng, im_share=0.3):
    re = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
    im = Fraction(0)
    if rng.random() < im_share:
        im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        if rng.random() < 0.3:
            re = Fraction(0)
    return (re, im)


def rand_mono(rng, dof, max_total):
    """Exponents of total degree 1..max_total (constants add nothing)."""
    while True:
        mono = tuple(
            (rng.randint(0, max_total), rng.randint(0, max_total)) for _ in range(dof)
        )
        if 1 <= sum(n + m for n, m in mono) <= max_total:
            return mono


def rand_phase(rng, dof, max_total, terms):
    """A polynomial with exactly `terms` distinct monomials."""
    out = {}
    while len(out) < terms:
        out[(rand_mono(rng, dof, max_total), 0, 0)] = rand_gaussian(rng)
    return out


def rand_shaped(rng, dof, degrees):
    """One term per entry of `degrees`, of exactly that total degree.

    Fixing the degrees keeps the cost of a call within a narrow range,
    so the seed moves the coefficients and exponent splits, not the mix.
    """
    out = {}
    for degree in degrees:
        while True:
            slots = [0] * (2 * dof)
            for _ in range(degree):
                slots[rng.randrange(2 * dof)] += 1
            mono = tuple(zip(slots[0::2], slots[1::2]))
            if (mono, 0, 0) not in out:
                out[(mono, 0, 0)] = rand_gaussian(rng)
                break
    return out


def _num(value):
    value = abs(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _coeff_text(g):
    """(sign, text or '' for unit magnitude) of a Gaussian coefficient."""
    re, im = g
    if im == 0:
        return (-1 if re < 0 else 1), ("" if abs(re) == 1 else _num(re))
    if re == 0:
        body = "i" if abs(im) == 1 else f"{_num(im)}*i"
        return (-1 if im < 0 else 1), body
    sign = "-" if re < 0 else ""
    link = "+" if im > 0 else "-"
    imag = "i" if abs(im) == 1 else f"{_num(im)}*i"
    return 1, f"({sign}{_num(re)}{link}{imag})"


def _var(kind, index, dof, operator):
    name = kind + ("h" if operator else "")
    return name + (str(index + 1) if dof > 1 else "")


def _power(base, e):
    return base if e == 1 else f"{base}^{e}"


def _join_terms(pieces):
    text = ""
    for sign, body in pieces:
        if not text:
            text = ("-" if sign < 0 else "") + body
        else:
            text += (" - " if sign < 0 else " + ") + body
    return text or "0"


def _term_text(g, factors):
    sign, coeff = _coeff_text(g)
    parts = ([coeff] if coeff else []) + factors
    return sign, "*".join(parts) if parts else "1"


def phase_expr(f, dof):
    """Spell a commutative polynomial (Gaussian coefficients) for the parser."""
    pieces = []
    for (mono, _k, _j), g in sorted(f.items()):
        factors = []
        for i, (n, m) in enumerate(mono):
            if n:
                factors.append(_power(_var("q", i, dof, False), n))
            if m:
                factors.append(_power(_var("p", i, dof, False), m))
        pieces.append(_term_text(g, factors))
    return _join_terms(pieces)


def rand_word_poly(rng, dof, terms, max_letters):
    """Operator input written as products of generator powers in any order.

    Returns [(gaussian, [(kind, dof_index, exponent), ...])]; the oracle
    normal-orders it by multiplying the factors left to right.
    """
    out = []
    while len(out) < terms:
        word = []
        for _ in range(rng.randint(1, 3)):
            word.append((rng.choice("qp"), rng.randrange(dof), rng.randint(1, max_letters)))
        out.append((rand_gaussian(rng), word))
    return out


def word_expr(poly, dof):
    pieces = []
    for g, word in poly:
        factors = [_power(_var(kind, i, dof, True), e) for kind, i, e in word]
        pieces.append(_term_text(g, factors))
    return _join_terms(pieces)


def word_normal(poly, dof):
    """Normal form of a word polynomial, computed by the oracle."""
    out = {}
    for g, word in poly:
        term = O.constant(g, dof)
        for kind, i, e in word:
            block = (e, 0) if kind == "q" else (0, e)
            mono = tuple(block if d == i else (0, 0) for d in range(dof))
            term = O.op_mul(term, {(mono, 0, 0): O.ONE_G})
        out = O.add(out, term)
    return out


# --- cli-cold -----------------------------------------------------------------

FORMATS = ("text", "json", "latex")
# Ordering values: formal twice as often as each numeric value.
S_VALUES = (None, None, "0", "1", "-1", "1/2", "i/2")
S_PARSED = {
    "0": (Fraction(0), Fraction(0)),
    "1": (Fraction(1), Fraction(0)),
    "-1": (Fraction(-1), Fraction(0)),
    "1/2": (Fraction(1, 2), Fraction(0)),
    "i/2": (Fraction(0), Fraction(1, 2)),
}

# Every round holds the same t-command mix: three cheap commands, five
# in a narrow middle band and one heavy one.  The middle band carries the
# 90th and 95th percentiles of a 100-command run, the heavy command sits
# above them, and the bands are narrow so the seed barely moves the cost.
# Bands are (lowest exponent, highest exponent, lowest n*m, highest n*m).
T_CHEAP = ((0, 5, 0, 25), (4, 8, 0, 64), (7, 11, 0, 121))
T_MIDDLE = (12, 18, 200, 240)
# t(n, m) recurses about n*m deep in today's normal ordering.  t(22, 22)
# passes with under twenty frames to spare, so a few tracer frames could
# turn it into a failure; n*m <= 462 keeps a margin while degrees still
# reach 22.  The fault itself is kept visible by the fixed probes below.
T_HEAVY = (18, 22, 400, 462)
FAULT_PROBES = ((23, 23), (24, 24))

EVAL_KINDS = ("PB", "MB", "star", "PMB", "diamond", "ms", "msinv", "commutator", "dagger")
EVOLVE_KINDS = ("op", "op", "op", "phase", "phase")
# The conformance suite a round checks: the eight ordering identities,
# about 0.3 s of checks whatever the seed.
CHECK_SUITE = "weyl"


def _flags(fmt, dof, s_value):
    flags = ["--format", fmt]
    if dof > 1:
        flags += ["--dof", str(dof)]
    if s_value is not None:
        flags.append(f"--s-value={s_value}")
    return flags


def _probe(r, n, m):
    # Cycled by round index, not drawn from the seed: 24 distinct variants.
    fmt = FORMATS[r % 3]
    dof = 1 + (r // 3) % 2
    s_value = (None, "0", "1", "-1")[(r // 6) % 4]
    argv = ["t", str(n), str(m)] + _flags(fmt, dof, s_value)
    return {"argv": argv, "spec": ("t", n, m), "dof": dof, "fmt": fmt, "s": s_value}


def _t_command(rng, band):
    low, high, low_product, high_product = band
    while True:
        n = rng.randint(low, high)
        m = rng.randint(low, high)
        if low_product <= n * m <= high_product:
            break
    fmt = rng.choice(FORMATS)
    dof = rng.randint(1, 2)
    s_value = rng.choice(S_VALUES)
    argv = ["t", str(n), str(m)] + _flags(fmt, dof, s_value)
    return {"argv": argv, "spec": ("t", n, m), "dof": dof, "fmt": fmt, "s": s_value}


def _eval_command(rng, kind):
    dof = rng.randint(1, 2)
    fmt = rng.choice(FORMATS)
    s_value = rng.choice(S_VALUES)
    if kind in ("PB", "MB", "star", "PMB", "diamond"):
        f = rand_phase(rng, dof, 4, rng.randint(1, 3))
        g = rand_phase(rng, dof, 4, rng.randint(1, 3))
        if kind in ("PMB", "diamond"):
            text = f"{kind}(ms({phase_expr(f, dof)}), ms({phase_expr(g, dof)}))"
        else:
            text = f"{kind}({phase_expr(f, dof)}, {phase_expr(g, dof)})"
        spec = (kind, f, g)
    elif kind == "ms":
        f = rand_phase(rng, dof, 5, rng.randint(1, 4))
        text, spec = f"ms({phase_expr(f, dof)})", (kind, f)
    else:
        F = rand_word_poly(rng, dof, rng.randint(1, 3), 4)
        if kind == "commutator":
            G = rand_word_poly(rng, dof, rng.randint(1, 2), 3)
            text = f"commutator({word_expr(F, dof)}, {word_expr(G, dof)})"
            spec = (kind, F, G)
        else:
            text = f"{kind}({word_expr(F, dof)})"
            spec = (kind, F)
    argv = ["eval", text] + _flags(fmt, dof, s_value)
    return {"argv": argv, "spec": spec, "dof": dof, "fmt": fmt, "s": s_value}


def _evolve_command(rng, space):
    dof = rng.randint(1, 2)
    fmt = rng.choice(FORMATS)
    s_value = rng.choice(S_VALUES)
    order = rng.randint(1, 5)
    h = rand_phase(rng, dof, 3, rng.randint(1, 3))
    if space == "op":
        F0 = rand_word_poly(rng, dof, rng.randint(1, 2), 2)
        observable = word_expr(F0, dof)
    else:
        F0 = rand_phase(rng, dof, 3, rng.randint(1, 2))
        observable = phase_expr(F0, dof)
    argv = [
        # --flag=value: an expression may start with '-'.
        "evolve", f"--observable={observable}", f"--hamiltonian={phase_expr(h, dof)}",
        "--order", str(order),
    ] + _flags(fmt, dof, s_value)
    return {"argv": argv, "spec": ("evolve", space, F0, h, order), "dof": dof, "fmt": fmt, "s": s_value}


def _check_command(rng):
    seed = rng.randrange(2**31)
    argv = ["check", "--suite", CHECK_SUITE, "--format", "json", "--seed", str(seed)]
    return {"argv": argv, "suite": CHECK_SUITE, "seed": seed}


def cli_round(rng, r, seen):
    """One round of 26 commands: 2 fault probes, 9 t, 9 eval, 5 evolve, 1 check."""
    ops = [_probe(r, n, m) for n, m in FAULT_PROBES]
    bands = T_CHEAP + (T_MIDDLE,) * 5 + (T_HEAVY,)
    makers = (
        [lambda b=b: _t_command(rng, b) for b in bands]
        + [lambda k=k: _eval_command(rng, k) for k in EVAL_KINDS]
        + [lambda k=k: _evolve_command(rng, k) for k in EVOLVE_KINDS]
        + [lambda: _check_command(rng)]
    )
    for make in makers:
        while True:
            op = make()
            key = tuple(op["argv"])
            if key not in seen:
                seen.add(key)
                ops.append(op)
                break
    rng.shuffle(ops)
    return ops


# --- session-warm -------------------------------------------------------------

# (operation, dof) per slot; a round is one pass over SESSION_SLOTS.  The
# pmb and moyal_bracket slots each make two calls on swapped arguments,
# side by side, so that antisymmetry is checked without extra calls.
SESSION_SLOTS = (
    ("pmb", 1), ("pmb", 2),
    ("star_product", 2), ("star_product", 3),
    ("moyal_bracket", 2), ("moyal_bracket", 3),
    ("ms", 1), ("ms", 3),
    ("ms_inverse", 2), ("ms_inverse", 3),
    ("diamond", 1), ("diamond", 2),
    ("pmb_flow_series", 1), ("pmb_flow_series", 2),
    ("to_t_basis", 1), ("to_t_basis", 2),
)

# Exact term degrees per (operation, dof).
_SESSION_SHAPE = {
    ("pmb", 1): (2, 3, 4), ("pmb", 2): (2, 3, 4),
    ("star_product", 2): (3, 4, 5), ("star_product", 3): (3, 4, 5, 5),
    ("moyal_bracket", 2): (3, 4, 5), ("moyal_bracket", 3): (4, 5, 5, 6, 6),
    ("ms", 1): (3, 4, 5, 6), ("ms", 3): (3, 4, 5, 5),
    ("ms_inverse", 2): (3, 4, 5, 6), ("ms_inverse", 3): (3, 4, 5, 5),
    ("diamond", 1): (3, 4), ("diamond", 2): (2, 3, 3),
    ("to_t_basis", 1): (3, 4, 5, 6), ("to_t_basis", 2): (3, 4, 5, 5),
}
_FLOW_ORDER = {1: 4, 2: 3}


def _session_request(rng, op, dof, variants):
    if op == "pmb_flow_series":
        f0 = rand_shaped(rng, dof, (2,))
        h = rand_shaped(rng, dof, (2, 3))
        return [{"op": op, "args": [("op", O.ms(f0), dof), ("phase", h, dof), _FLOW_ORDER[dof]],
                 "src": (f0, h)}]
    shape = _SESSION_SHAPE[(op, dof)]
    f = rand_shaped(rng, dof, shape)
    if op == "ms":
        return [{"op": op, "args": [("phase", f, dof)], "src": (f,)}]
    if op in ("ms_inverse", "to_t_basis"):
        return [{"op": op, "args": [("op", O.ms(f), dof)], "src": (f,)}]
    g = rand_shaped(rng, dof, shape)
    if op == "star_product":
        return [{"op": op, "args": [("phase", f, dof), ("phase", g, dof)], "src": (f, g)}]
    if op == "moyal_bracket":
        return [
            {"op": op, "args": [("phase", f, dof), ("phase", g, dof)], "src": (f, g)},
            {"op": op, "args": [("phase", g, dof), ("phase", f, dof)], "src": (g, f)},
        ]
    F, G = O.ms(f), O.ms(g)
    if op == "diamond":
        return [{"op": op, "args": [("op", F, dof), ("op", G, dof)], "src": (f, g)}]
    v1, v2 = variants
    return [
        {"op": op, "args": [("op", F, dof), ("op", G, dof), v1], "src": (f, g)},
        {"op": op, "args": [("op", G, dof), ("op", F, dof), v2], "src": (g, f)},
    ]


def request_key(req):
    def enc(a):
        if isinstance(a, tuple):
            return (a[0], a[2], tuple(sorted(a[1].items())))
        return a
    return (req["op"],) + tuple(enc(a) for a in req["args"])


SESSION_ROUND = 20  # calls per round: 16 slots, 4 of them make a pair


def session_round(rng, seen):
    """One round of SESSION_ROUND library calls."""
    variants = [1, 2, 3, 4]
    rng.shuffle(variants)
    pairs = iter((variants[0:2], variants[2:4]))
    ops = []
    for op, dof in SESSION_SLOTS:
        pair = next(pairs) if op == "pmb" else None
        while True:
            batch = _session_request(rng, op, dof, pair)
            keys = [request_key(req) for req in batch]
            if not any(k in seen for k in keys) and len(set(keys)) == len(keys):
                seen.update(keys)
                ops.extend(batch)
                break
    return ops


def make_rng(seed, stream):
    """Independent, reproducible streams per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")
