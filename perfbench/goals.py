"""Seeded goal pools for the three workloads.

Goals are produced as text only, by this module's own code: no lcer function
builds, rewrites or searches them, so every commit under test receives the
same inputs for the same seed.  Each goal carries the answer its construction
implies (or the answer stated for the fixture it renames), which the runner
checks outside the timed region.

A run issues one pool of goals, over and over (see run.py).  Every pool of a
workload has the same shape: the same families in the same numbers, and the
same operators, context depths, list lengths and bounds, so every seed's pool
asks for about the same work.  The seed picks what a goal's cost does not
depend on: variable names, integer constants of value-independent goals, the
element names of lists, and the order in which the pool is issued.  The
pools are laid out so that the run's median and 90th-percentile verdict
times fall inside blocks of goals of equal cost, or at a fixed place among
goals of fixed cost (listed per workload below); a percentile that fell where
the pool changes from one kind of goal to another would jump with the seed.
Goals within a pool are distinct texts, so a cache of answers across goals
has nothing to reuse.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# bounds and budgets pinned by the acceptance criteria they copy
CONVERT_EXPINV_BOUND = 12
DECIDE_FIXTURE_BUDGETS = {"bound": 8, "box": 5}
DECIDE_RANDOM_BUDGETS = {"bound": 8, "box": 4, "rewrite_depth": 2, "rewrite_width": 60}
COUNTER_MODEL = {"extra": 1, "term_sort_size": 2, "max_nodes": 30_000}
CERTIFY_CALC_BOX = 8
CERTIFY_NNEG_BOUND = 26


@dataclass(frozen=True)
class Goal:
    """One goal as text.  `spec` holds the texts the runner parses; `expect`
    holds the answer implied by the construction."""

    gid: str
    family: str
    theory: str  # an input file name, or "inline" when spec["theory_text"] is set
    spec: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def input_text(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


def digest(goals: list[Goal]) -> str:
    h = hashlib.sha256()
    for g in goals:
        h.update(json.dumps(asdict(g), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _tag(rng: random.Random) -> str:
    """A seed-chosen suffix for variable names, the same length for every
    seed, so renaming never changes the order of two names."""
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def _finish(workload: str, rng: random.Random, items: list[tuple]) -> list[Goal]:
    """Shuffle the pool into the seed's issue order and number its goals."""
    order = sorted(range(len(items)), key=lambda i: (rng.random(), i))
    goals = [Goal(f"{workload}/{k}-{items[i][0]}", *items[i]) for k, i in enumerate(order)]
    texts = [json.dumps(g.spec, sort_keys=True) for g in goals]
    assert len(set(texts)) == len(texts), "a pool repeats a goal"
    return goals


# -- convert ----------------------------------------------------------------
#
# Closed conversion_search goals.  A convertible pair is built a known number
# of steps apart, counting calc steps as the trace does, and is searched with
# that number as the bound, so the search must meet and its trace has exactly
# that length.  A non-convertible pair is separated by a model of the theory
# (the integers for group.th, free lists for lists.th, residues mod 12 for
# mod12.th), so the search must exhaust its bound.
#
# Layout of the 102 goals, by cost on the reference machine:
#   30 below 6 ms      length, nth, nth-other, length-off, exp-merge, and
#                      units and cancel without a context or under inv
#   36 at 8-10 ms      cong and cong-sum (one mod12 rule step): the median
#   16 at 9-13 ms      cancel under one op or two inv, units of (op x y)
#   14 at ~15 ms       exp-annihilate, whose cost does not depend on the
#                      exponent: the 90th percentile
#    6 from 60 ms      expinv (2 s), comm, exp-distinct, inv-self, cong-far,
#                      double-cancel

# wrappers of the cancel goals, from the inside out, and how often each occurs
CANCEL_CONTEXTS = [[]] * 2 + [["(inv {t})"]] * 2 + [["(op {z} {t})"]] * 4 \
    + [["(op {t} {z})"]] * 4 + [["(inv {t})", "(inv {t})"]] * 4


def _plug(ctx: list[str], t: str, z: str) -> str:
    for wrapper in ctx:
        t = wrapper.format(t=t, z=z)
    return t


def convert_pool(rng: random.Random) -> list[Goal]:
    tag = _tag(rng)
    items: list[tuple] = []
    counter = itertools.count()

    def names(*bases):
        i = next(counter)
        return [f"{b}{tag}{i}" for b in bases]

    def meet(family, theory, lhs, rhs, steps, env):
        items.append((family, theory, {"lhs": lhs, "rhs": rhs, "bound": steps, "env": env},
                      {"found": True, "steps": steps}))

    def apart(family, theory, lhs, rhs, bound, env):
        items.append((family, theory, {"lhs": lhs, "rhs": rhs, "bound": bound, "env": env},
                      {"found": False}))

    def lst(elems):
        out = "nil"
        for e in reversed(elems):
            out = f"(cons {e} {out})"
        return out

    # lists.th: length and nth unfold one cons per rule step, each followed by
    # the calc steps that the integer argument needs
    for n in (1, 1, 2, 2, 3, 3):
        es = names("a", "b", "c")
        elems = [rng.choice(es) for _ in range(n)]
        meet("length", "lists.th", f"(length {lst(elems)})", str(n), 2 * n + 1,
             {e: "Elem" for e in es})
    for i in (0, 0, 1, 1, 2, 2):
        es = names("a", "b", "c")
        elems = [rng.choice(es) for _ in range(3)]
        meet("nth", "lists.th", f"(nth {lst(elems)} {i})", f"(some {elems[i]})", 2 * i + 1,
             {e: "Elem" for e in es})
    for _ in range(4):
        u, v = names("a", "b")
        apart("nth-other", "lists.th", f"(nth {lst([u, v])} 0)", f"(some {v})", 3,
              {u: "Elem", v: "Elem"})
    for n in (1, 2):
        (u,) = names("a")
        apart("length-off", "lists.th", f"(length {lst([u] * n)})", str(n + 1), 2 * n + 1,
              {u: "Elem"})

    # group.th
    for _ in range(4):
        # op(x^a, x^b) -> x^(a+b): one rule step and one calc step
        (x,) = names("x")
        a, b = rng.randrange(-6, 7), rng.randrange(-6, 7)
        meet("exp-merge", "group.th", f"(op (exp {x} {a}) (exp {x} {b}))",
             f"(exp {x} {a + b})", 2, {x: "G"})
    for inner, k in [("{x}", 3)] * 2 + [("(inv {x})", 2)] * 2 + [("(op {x} {y})", 3)] * 4:
        # e * (e * t) -> e * t -> t: one step per unit
        x, y = names("x", "y")
        t = inner.format(x=x, y=y)
        meet("units", "group.th", "(op e " * k + t + ")" * k, t, k, {x: "G", y: "G"})
    for ctx in CANCEL_CONTEXTS:
        # inv(x) * (x * y) -> (inv(x) * x) * y -> e * y -> y, under a context
        x, y, z = names("x", "y", "z")
        meet("cancel", "group.th", _plug(ctx, f"(op (inv {x}) (op {x} {y}))", z),
             _plug(ctx, y, z), 3, {x: "G", y: "G", z: "G"})
    for _ in range(14):
        # x^a * (x^-a * y) -> (x^a * x^-a) * y -> x^0 * y -> e * y -> y
        x, y = names("x", "y")
        a = rng.choice([2, 3, 4, 5, 6]) * rng.choice([1, -1])
        meet("exp-annihilate", "group.th", f"(op (exp {x} {a}) (op (exp {x} {-a}) {y}))",
             y, 5, {x: "G", y: "G"})
    # the README's deepest conversion: 12 steps, with its own fixed bound
    (x,) = names("x")
    meet("expinv", "group.th", f"(exp {x} -1)", f"(inv {x})", CONVERT_EXPINV_BOUND, {x: "G"})
    # two cancellations in sequence, 3 steps each
    x, y, z = names("x", "y", "z")
    meet("double-cancel", "group.th",
         f"(op (inv {x}) (op {x} (op (inv {y}) (op {y} {z}))))", z, 6,
         {x: "G", y: "G", z: "G"})
    x, y = names("x", "y")
    apart("comm", "group.th", f"(op {x} {y})", f"(op {y} {x})", 3, {x: "G", y: "G"})
    (x,) = names("x")
    apart("inv-self", "group.th", f"(inv {x})", x, 3, {x: "G"})
    (x,) = names("x")
    a = rng.randrange(-5, 6)
    b = rng.choice([v for v in range(-5, 6) if v != a])
    apart("exp-distinct", "group.th", f"(exp {x} {a})", f"(exp {x} {b})", 3, {x: "G"})

    # mod12.th: cong(a) ~ cong(b) is one rule step when a = b (mod 12),
    # preceded by one calc step when a is a sum
    seen = set()
    while len(seen) < 28:
        a = rng.randrange(-30, 31)
        b = rng.choice([v for v in range(-30, 31) if v % 12 == a % 12 and v != a])
        if (a, b) not in seen:
            seen.add((a, b))
            meet("cong", "mod12.th", f"(cong {a})", f"(cong {b})", 1, {})
    seen = set()
    while len(seen) < 8:
        p, q = rng.randrange(0, 40), rng.randrange(0, 40)
        b = rng.choice([v for v in range(-30, 31) if v % 12 == (p + q) % 12 and v != p + q])
        if (p, q, b) not in seen:
            seen.add((p, q, b))
            meet("cong-sum", "mod12.th", f"(cong (+ {p} {q}))", f"(cong {b})", 2, {})
    a = rng.randrange(-30, 31)
    b = rng.choice([v for v in range(-30, 31) if v % 12 != a % 12])
    apart("cong-far", "mod12.th", f"(cong {a})", f"(cong {b})", 2, {})

    return _finish("convert", rng, items)


# -- decide -------------------------------------------------------------------
#
# Non-ground goals for check_ce_validity.  The fixture goals of absmax.th and
# refute_bool.th keep their stated answers under renaming.  Generated goals
# live in small random theories over intmod 3 or bool, in the style of
# acceptance criterion 11: a term sort U with h(D), k(U), c0 and pairf(U, D).
# An "instance" goal is a theory equation with its term variables instantiated
# and both sides put under one context, so it holds in every model and must
# never be refuted.  A "random" goal has no known answer; for both kinds the
# number of satisfying valuations, which a confirmed-on-samples verdict must
# report as its sample count, is computed here.
#
# The cost of a random theory varies by two orders of magnitude, so a pool of
# theories drawn afresh per seed would move the run's percentiles by a fifth
# to a third from seed to seed.  The theories are therefore drawn once, from a fixed
# stream (DECIDE_CATALOGUE), and the seed renames their variables and picks
# the issue order.  Layout of the 100 goals:
#   80 generated       1-50 ms, a few beyond: the median
#    3 absneg0         ~1 ms (no conversion within the bound)
#   12 gf              ~100 ms each (a counter-model refutes it): the 90th
#                      percentile, with room for four generated goals above
#    4 absneg          ~230 ms (11 sampled searches)
#    1 maxcomm         ~3 s (121 sampled searches)
# absmax.th's absmax (36 samples, ~5 s) is left to test_perfbench.py: it
# alone would double the length of a pass.

DECIDE_CATALOGUE = "lcer decide catalogue"
DECIDE_GENERATED = 80


_DATA = {"intmod": ("Int", ["0", "1", "2"]), "bool": ("Bool", ["true", "false"])}


def _value(text: str):
    return text == "true" if text in ("true", "false") else int(text)


def _rand_data(rng, kind, xs):
    _, values = _DATA[kind]
    if xs and rng.random() < 0.5:
        return rng.choice(xs)
    return rng.choice(values)


def _rand_u(rng, kind, xs, us, depth=2):
    if depth == 0 or rng.random() < 0.25:
        if us and rng.random() < 0.5:
            return rng.choice(us)
        return "c0"
    choice = rng.random()
    if choice < 0.4:
        return f"(h {_rand_data(rng, kind, xs)})"
    if choice < 0.7:
        return f"(k {_rand_u(rng, kind, xs, us, depth - 1)})"
    return f"(pairf {_rand_u(rng, kind, xs, us, depth - 1)} {_rand_data(rng, kind, xs)})"


def _rand_atom(rng, kind, xs):
    _, values = _DATA[kind]
    x = rng.choice(xs)
    other = rng.choice(xs + [rng.choice(values)])
    op = rng.choice(["=", "<", "<=", ">", ">="]) if kind == "intmod" else "="
    return (op, x, other)


def _rand_constraint(rng, kind, xs):
    if rng.random() < 0.4 or not xs:
        return ("true",)
    atom = _rand_atom(rng, kind, xs)
    if rng.random() < 0.3:
        return ("or", atom, _rand_atom(rng, kind, xs))
    return atom


def _constraint_text(phi) -> str:
    if phi[0] == "true":
        return "true"
    if phi[0] == "or":
        return f"(or {_constraint_text(phi[1])} {_constraint_text(phi[2])})"
    return f"({phi[0]} {phi[1]} {phi[2]})"


def _holds(phi, kind, rho) -> bool:
    if phi[0] == "true":
        return True
    if phi[0] == "or":
        return _holds(phi[1], kind, rho) or _holds(phi[2], kind, rho)
    op, a, b = phi
    va = rho[a] if a in rho else _value(a)
    vb = rho[b] if b in rho else _value(b)
    return {"=": va == vb, "<": va < vb, "<=": va <= vb,
            ">": va > vb, ">=": va >= vb}[op]


def _satisfying_count(phi, kind, logical: list[str]) -> int:
    _, values = _DATA[kind]
    count = 0
    for combo in itertools.product([_value(v) for v in values], repeat=len(logical)):
        count += _holds(phi, kind, dict(zip(logical, combo)))
    return count


def _words(text: str) -> set[str]:
    return set(text.replace("(", " ").replace(")", " ").split())


def _rand_equation(rng, kind, xs, us):
    """Sides keep data arguments flat, as criterion 11's generator does.

    Both sides have the same term variables and neither is a bare variable.
    Without that, a step may rewrite every term of a sort, or draw a fresh
    term for a variable from the goal's subterms; one such equation makes a
    bounded search blow up by orders of magnitude, and a few rare goals would
    then set the cost of a whole run.
    """
    while True:
        lhs = _rand_u(rng, kind, xs, us)
        rhs = _rand_u(rng, kind, xs, us)
        if lhs not in us and rhs not in us and \
                _words(lhs) & set(us) == _words(rhs) & set(us):
            break
    used = sorted((_words(lhs) | _words(rhs)) & set(xs))
    logical = sorted(set(used) | {x for x in xs if rng.random() < 0.3})
    return logical, _rand_constraint(rng, kind, logical), lhs, rhs


def _eq_text(form, logical, phi, lhs, rhs, sort, us, name=""):
    # a bare variable side has no position to infer its sort from
    term_vars = sorted((_words(lhs) | _words(rhs)) & set(us))
    var_block = " ".join([f"({x} {sort})" for x in logical]
                         + [f"({u} U)" for u in term_vars])
    label = f" {name}" if name else ""
    return (f"({form}{label} (vars {var_block}) (pi {' '.join(logical)}) "
            f"(constraint {_constraint_text(phi)}) {lhs} {rhs})")


def _finite_goal(rng, kind, instance: bool) -> tuple[str, dict]:
    """A theory and goal over the variables a, b (data) and u, v (term)."""
    sort, values = _DATA[kind]
    xs, us = ["a", "b"], ["u", "v"]
    eqs = [_rand_equation(rng, kind, xs, us) for _ in range(2)]
    if instance:
        logical, phi, lhs, rhs = rng.choice(eqs)
        ground = ["c0", "(k c0)", f"(h {rng.choice(values)})",
                  f"(pairf c0 {rng.choice(values)})"]
        for u in us:
            image = rng.choice(ground)
            lhs = re.sub(rf"\b{u}\b", image, lhs)
            rhs = re.sub(rf"\b{u}\b", image, rhs)
        wrapper = rng.choice(["{}", "(k {})", f"(pairf {{}} {rng.choice(values)})"])
        lhs, rhs = wrapper.format(lhs), wrapper.format(rhs)
    else:
        logical, phi, lhs, rhs = _rand_equation(rng, kind, xs, us)
    model = "(model intmod 3)" if kind == "intmod" else "(model bool)"
    text = "\n".join(
        [f"(theory {model} (sorts U)",
         f"  (fun h ({sort}) U) (fun k (U) U) (fun c0 () U) (fun pairf (U {sort}) U)"]
        + ["  " + _eq_text("eq", *e, sort, us) for e in eqs]
        + ["  " + _eq_text("goal", logical, phi, lhs, rhs, sort, us, "g"), ")"])
    expect = {"samples_if_confirmed": _satisfying_count(phi, kind, logical)}
    if instance:
        expect["valid"] = True
    return text, expect


def _catalogue() -> list[tuple[str, str, dict]]:
    rng = random.Random(DECIDE_CATALOGUE)
    out = []
    for i in range(DECIDE_GENERATED):
        instance = i % 4 >= 2
        text, expect = _finite_goal(rng, ("intmod", "bool")[i % 2], instance)
        out.append(("instance" if instance else "random", text, expect))
    return out


def _rename(text: str, names: dict[str, str]) -> str:
    return re.sub(r"\b(" + "|".join(names) + r")\b", lambda m: names[m.group(1)], text)


# fixture goals of absmax.th with the answers of acceptance criterion 3, and
# how many renamings of each a pool holds
_ABSMAX = [
    ("absneg", "abs({x})", "abs(-({x}))", "{x}",
     {"kind": "confirmed-on-samples", "samples": 11}, 4),
    ("maxcomm", "max({x},{y})", "max({y},{x})", "{x} {y}",
     {"kind": "confirmed-on-samples", "samples": 121}, 1),
    ("absneg0", "abs({x})", "abs(-({x}))", "",
     {"kind": "no-conversion-within-bound"}, 3),
]
DECIDE_GF = 12


def decide_pool(rng: random.Random) -> list[Goal]:
    tag = _tag(rng)
    items = []
    for i, (family, text, expect) in enumerate(_catalogue()):
        text = _rename(text, {v: f"{v}{tag}{i}" for v in ("a", "b", "u", "v")})
        items.append((family, "inline",
                      {"theory_text": text, "budgets": DECIDE_RANDOM_BUDGETS}, expect))
    for name, lhs, rhs, pi, expect, copies in _ABSMAX:
        for i in range(copies):
            sub = {"x": f"x{tag}{i}", "y": f"y{tag}{i}"}
            items.append((name, "absmax.th",
                          {"lhs": lhs.format(**sub), "rhs": rhs.format(**sub),
                           "constraint": None, "pi": pi.format(**sub),
                           "budgets": DECIDE_FIXTURE_BUDGETS}, expect))
    # refute_bool.th's gf: refuted by a counter-model with one extra element
    for i in range(DECIDE_GF):
        x = f"x{tag}{i}"
        items.append(("gf", "refute_bool.th",
                      {"lhs": f"g({x})", "rhs": f"f({x})", "constraint": None, "pi": "",
                       "budgets": DECIDE_RANDOM_BUDGETS},
                      {"refuted": True, "valid": False}))
    return _finish("decide", rng, items)


# -- certify -----------------------------------------------------------------
#
# Integer proof obligations.  nneg(n) over nneg.th needs n Trans joins and
# n + 1 TheoryInstance nodes (acceptance criterion 4).  A calc goal in the
# style of acceptance criterion 6 differs by one calculation under a context,
# with every variable pinned by the constraint; its derivation is one Cong per
# context level, a Refl for each sibling, and one Axiom.  An invalid calc goal
# has a wrong contractum, so generate_calc_proof must reject it.  The shipped
# proof files are checked as they are.
#
# A calc goal with at most one pinned variable costs the same whatever its
# values, so the seed draws those.  With two or three pinned variables the
# cost depends on where the values fall in the box's enumeration order (6 ms
# to 2 s), so those goals have fixed values (CALC_FIXED) and only their names
# vary.  Layout of the 101 goals:
#   33 below 1 ms      the shipped proofs, literal-only calcs, and invalid
#                      calcs with one pinned variable
#   36 at 1-1.5 ms     valid calcs with one pinned variable: the median
#   10 at 1-80 ms      CALC_FIXED with two pinned variables
#   21 up to 350 ms    nneg(0) .. nneg(20), about n * 17 ms: the 90th
#                      percentile is nneg(11), the tenth goal from the top
#    1 at ~0.7 s       CALC_FIXED's three-variable goal

CALC_THEORY = ("(theory (model lia) (sorts U) "
               "(fun w (Int) U) (fun pairf (U Int) U) (fun c0 () U))")
PROOFS = [("expinv.prf", "group.th"), ("nth2.prf", "lists.th"),
          ("splitabst.prf", "splitabst.th")]
CALC_OPS = ["+", "-", "*", "div", "mod", "neg"]
# (operator, argument values, indices of the pinned arguments, pinned
# contractum, valid)
CALC_FIXED = [
    ("mod", (-4, 2), (0, 1), False, True), ("div", (1, 7), (0, 1), False, True),
    ("*", (1, 8), (0, 1), False, True), ("+", (1, -8), (0, 1), False, False),
    ("-", (1, 6), (0, 1), False, False), ("*", (2, 3), (1,), True, True),
    ("div", (7, 1), (1,), True, True), ("neg", (4,), (0,), True, True),
    ("-", (1, -1), (0,), True, False), ("+", (-7, 0), (1,), True, False),
    ("+", (-2, 1), (0, 1), True, True),
]


def _ediv(a: int, b: int) -> int:
    """Euclidean division, totalized by div(a, 0) = 0 as in the README."""
    return 0 if b == 0 else (a - _emod(a, b)) // b


def _emod(a: int, b: int) -> int:
    return a if b == 0 else a % abs(b)


def _calc_goal(fname: str, vals: tuple, pinned: tuple, y_var: bool, valid: bool,
               ctx: list[tuple[str, int]], names: list[str]) -> tuple[dict, dict]:
    """The redex fname(vals) with the arguments at `pinned` (and, when y_var,
    the contractum) as variables pinned by the constraint, under the context
    ctx, a list of (wrapper, filler) from the inside out."""
    pins, args, pi = [], [], []
    for i, val in enumerate(vals):
        if i in pinned:
            x = names[i]
            pi.append(x)
            pins.append(f"(= {x} {val})")
            args.append(x)
        else:
            args.append(str(val))
    a, b = vals[0], vals[-1]
    result = {"+": a + b, "-": a - b, "*": a * b, "div": _ediv(a, b),
              "mod": _emod(a, b), "neg": -a}[fname]
    if not valid:
        result += 1
    lhs = f"(- {args[0]})" if fname == "neg" else f"({fname} {' '.join(args)})"
    if y_var:
        y = names[2]
        pi.append(y)
        pins.append(f"(= {y} {result})")
        rhs = y
    else:
        rhs = str(result)
    nodes = 1  # the Axiom closing the calculation
    for wrapper, filler in ctx:
        if wrapper == "w":
            lhs, rhs = f"(w {lhs})", f"(w {rhs})"
            nodes += 1
        elif wrapper == "pairf-c0":
            lhs, rhs = f"(pairf c0 {lhs})", f"(pairf c0 {rhs})"
            nodes += 2
        else:
            lhs, rhs = f"(pairf {lhs} {filler})", f"(pairf {rhs} {filler})"
            nodes += 2
    phi = "true"
    for pin in pins:
        phi = pin if phi == "true" else f"(and {phi} {pin})"
    spec = {"theory_text": CALC_THEORY, "lhs": lhs, "rhs": rhs, "constraint": phi,
            "pi": " ".join(pi) or None}
    expect = {"valid": valid}
    if valid:
        expect["nodes"] = nodes
    return spec, expect


def _calc_context(rng: random.Random, depth: int) -> list[tuple[str, int]]:
    """An Int-sorted redex takes w or pairf c0 first; a U-sorted one only
    pairf with an integer filler."""
    ctx = []
    for level in range(depth):
        kind = rng.choice(["w", "pairf-c0"]) if level == 0 else "pairf"
        ctx.append((kind, rng.randrange(-3, 4)))
    return ctx


def certify_pool(rng: random.Random) -> list[Goal]:
    tag = _tag(rng)
    items = []
    counter = itertools.count()

    def names():
        i = next(counter)
        return [f"x0{tag}{i}", f"x1{tag}{i}", f"y{tag}{i}"]

    for n in range(21):
        items.append(("nneg", "nneg.th", {"lhs": f"nneg({n})", "rhs": "true"},
                      {"valid": True, "rule_counts": {"Trans": n, "TheoryInstance": n + 1}}))
    for proof, theory in PROOFS:
        items.append(("prf", theory, {"proof": proof}, {"valid": True}))
    # (pinned argument, pinned contractum, valid, how many): every operator
    # and context depth equally often within each shape
    shapes = [(False, False, True, 6), (True, False, False, 12), (False, True, False, 12),
              (True, False, True, 18), (False, True, True, 18)]
    for pinned_arg, y_var, valid, count in shapes:
        for i in range(count):
            fname = CALC_OPS[i % len(CALC_OPS)]
            vals = tuple(rng.randrange(-8, 9) for _ in range(1 if fname == "neg" else 2))
            if fname in ("div", "mod") and vals[1] == 0:
                vals = (vals[0], rng.choice([v for v in range(-8, 9) if v]))
            pinned = (rng.randrange(len(vals)),) if pinned_arg else ()
            spec, expect = _calc_goal(fname, vals, pinned, y_var, valid,
                                      _calc_context(rng, i % 3), names())
            items.append(("calc", "inline", spec, expect))
    for fname, vals, pinned, y_var, valid in CALC_FIXED:
        spec, expect = _calc_goal(fname, vals, pinned, y_var, valid, [], names())
        items.append(("calc", "inline", spec, expect))
    return _finish("certify", rng, items)
