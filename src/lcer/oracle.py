"""Constraint-validity oracle with layered backends.

Strategy, in order: ground evaluation; exhaustive enumeration when every free
variable ranges over a finite carrier; simplification to a canonical formula
(polynomial normalization of arithmetic atoms); equality propagation through
implications; a propositional tautology check over canonical atoms; a complete
decision for single-variable linear integer formulas; bounded refutation over
an integer box; and finally an external solver when one is configured.

Every backend is sound.  Only the finite, univariate-linear, and solver
backends are complete, so the oracle may answer Unknown.

A model remembers each verdict, Unknown included, for as long as it lives
(`UnderlyingModel.verdicts`; no option), keyed by everything it depends on:
the formula, the budget's bounds and its solver session by identity.  A query
that raises is not remembered; each answer has a witness of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

from .models import BOOL, UnderlyingModel, int_domain, satisfying
from .terms import (
    App,
    Term,
    Variable,
    apply_subst,
    is_ground,
    sort_of,
    vars_of,
)

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


class OracleFailure(Exception):
    """External solver crashed or produced garbage."""


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[dict[Variable, Term]] = None
    reason: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        return self.status == VALID

    @property
    def is_invalid(self) -> bool:
        return self.status == INVALID

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


def valid() -> Verdict:
    return Verdict(VALID)


def unknown(reason: str) -> Verdict:
    return Verdict(UNKNOWN, reason=reason)


@dataclass
class OracleBudget:
    box: int = 64
    max_points: int = 200_000
    max_finite: int = 500_000
    max_atoms: int = 12
    solver: object = None  # SmtSolverSession, optional


DEFAULT_BUDGET = OracleBudget()


def check_validity(model: UnderlyingModel, phi: Term, budget: OracleBudget | None = None) -> Verdict:
    """Decide whether phi holds under every valuation, as far as the backends can."""
    budget = budget or DEFAULT_BUDGET
    key = (phi, budget.box, budget.max_points, budget.max_finite, budget.max_atoms, budget.solver)
    verdict = model.verdicts.get(key)
    if verdict is None:
        verdict = model.verdicts[key] = _decide(model, phi, budget)
    return verdict if verdict.witness is None else replace(verdict, witness=dict(verdict.witness))


def _decide(model: UnderlyingModel, phi: Term, budget: OracleBudget) -> Verdict:
    if sort_of(phi) != BOOL:
        raise ValueError("validity queries take Bool-sorted constraints")
    fv = sorted(vars_of(phi), key=lambda v: v.name)
    for v in fv:
        if v.sort.kind != "theory":
            raise ValueError(f"constraint mentions term variable {v.name}")

    if not fv:
        return valid() if model.eval_constraint(phi) else _invalid(model, phi, {})

    finite_vars = [v for v in fv if model.carriers[v.sort].finite]
    int_vars = [v for v in fv if not model.carriers[v.sort].finite]

    if not int_vars:
        return _exhaustive(model, phi, finite_vars, budget)

    if finite_vars:
        return _split_finite(model, phi, finite_vars, budget)

    return _integer_pipeline(model, phi, int_vars, budget)


def _invalid(model: UnderlyingModel, phi: Term, sigma: dict[Variable, Term]) -> Verdict:
    assert model.eval_constraint(apply_subst(sigma, phi)) is False
    return Verdict(INVALID, witness=dict(sigma))


def _refute(model, phi, order, domains, limit=None) -> Optional[Verdict]:
    """Invalid at the first point of the product where phi fails, else None."""
    not_phi = App(model.symbols["not"], (phi,))
    for combo in satisfying(model, order, domains, not_phi, limit):
        return _invalid(model, phi, model.value_subst(order, combo))
    return None


def _exhaustive(model, phi, fv, budget) -> Verdict:
    domains = [model.carrier_elements(v.sort) for v in fv]
    count = math.prod(map(len, domains))
    if count > budget.max_finite:
        return unknown(f"finite enumeration of {count} valuations exceeds budget")
    return _refute(model, phi, fv, domains) or valid()


def _split_finite(model, phi, finite_vars, budget) -> Verdict:
    domains = [model.carrier_elements(v.sort) for v in finite_vars]
    if math.prod(map(len, domains)) > 4096:
        return unknown("too many finite-sort cases to split on")
    saw_unknown = None
    for combo in itertools.product(*domains):
        sigma = model.value_subst(finite_vars, combo)
        sub = check_validity(model, apply_subst(sigma, phi), budget)
        if sub.is_invalid:
            full = dict(sigma)
            full.update(sub.witness or {})
            return _invalid(model, phi, full)
        if sub.is_unknown:
            saw_unknown = sub
    return saw_unknown or valid()


# -- canonical formulas ----------------------------------------------------
#
# A formula is ('true',), ('false',), ('atom', key, term), or a connective
# ('not', f) / ('and', f, g) / ('or', f, g) / ('imp', f, g) / ('iff', f, g).
# Atom keys canonicalize arithmetic comparisons as sign-normalized polynomials
# so that e.g. n > 0 and n >= 1 collapse to the same atom; any other atom is
# keyed by its term (cached hash, structural equality).

TRUE = ("true",)
FALSE = ("false",)

Mono = tuple  # sorted ((generator, power), ...)
Poly = dict  # Mono -> coefficient


def _padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def _pneg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _pconst(c: int) -> Poly:
    return {(): c} if c else {}


def _pgen(gen: object) -> Poly:
    return {((gen, 1),): 1}


def _pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            powers: dict[object, int] = {}
            for g, e in m1 + m2:
                powers[g] = powers.get(g, 0) + e
            mono = tuple(sorted(powers.items(), key=lambda ge: repr(ge[0])))
            c = out.get(mono, 0) + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _pkey(p: Poly):
    return tuple(sorted(p.items(), key=lambda mc: repr(mc[0])))


def _poly_of(model: UnderlyingModel, t: Term) -> Poly:
    if is_ground(t):
        return _pconst(int(model.interpret(t)))  # type: ignore[arg-type]
    if isinstance(t, Variable):
        return _pgen(("var", t.name, t.sort.name))
    name = t.fun.name
    if name == "+":
        return _padd(_poly_of(model, t.args[0]), _poly_of(model, t.args[1]))
    if name == "-":
        return _padd(_poly_of(model, t.args[0]), _pneg(_poly_of(model, t.args[1])))
    if name == "neg":
        return _pneg(_poly_of(model, t.args[0]))
    if name == "*":
        return _pmul(_poly_of(model, t.args[0]), _poly_of(model, t.args[1]))
    # div/mod and anything else stay opaque generators
    subkeys = tuple(_pkey(_poly_of(model, a)) for a in t.args)
    return _pgen(("op", name, subkeys))


def _mk_not(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "not":
        return f[1]
    return ("not", f)


def _mk_and(f, g):
    if f == FALSE or g == FALSE:
        return FALSE
    if f == TRUE:
        return g
    if g == TRUE:
        return f
    return ("and", f, g)


def _mk_or(f, g):
    if f == TRUE or g == TRUE:
        return TRUE
    if f == FALSE:
        return g
    if g == FALSE:
        return f
    return ("or", f, g)


def _mk_imp(f, g):
    if f == FALSE or g == TRUE:
        return TRUE
    if f == TRUE:
        return g
    return ("imp", f, g)


def _mk_iff(f, g):
    if f == TRUE:
        return g
    if g == TRUE:
        return f
    if f == FALSE:
        return _mk_not(g)
    if g == FALSE:
        return _mk_not(f)
    if f == g:
        return TRUE
    return ("iff", f, g)


_CMP = {"<", "<=", ">", ">="}


def _formula_of(model: UnderlyingModel, t: Term):
    if is_ground(t):
        return TRUE if model.eval_constraint(t) else FALSE
    if isinstance(t, Variable):
        return ("atom", ("bvar", t.name), t)
    name = t.fun.name
    if name == "not":
        return _mk_not(_formula_of(model, t.args[0]))
    if name == "and":
        return _mk_and(_formula_of(model, t.args[0]), _formula_of(model, t.args[1]))
    if name == "or":
        return _mk_or(_formula_of(model, t.args[0]), _formula_of(model, t.args[1]))
    if name == "=>":
        return _mk_imp(_formula_of(model, t.args[0]), _formula_of(model, t.args[1]))
    if name == "<=>":
        return _mk_iff(_formula_of(model, t.args[0]), _formula_of(model, t.args[1]))
    if name == "=Bool":
        return _mk_iff(_formula_of(model, t.args[0]), _formula_of(model, t.args[1]))
    int_sort = model.int_sort()
    if int_sort is not None and not model.carriers[int_sort].finite:
        if name == f"={int_sort.name}":
            p = _padd(_poly_of(model, t.args[0]), _pneg(_poly_of(model, t.args[1])))
            if not p:
                return TRUE
            if set(p) == {()}:
                return FALSE
            key = _pkey(p)
            if key > _pkey(_pneg(p)):
                key = _pkey(_pneg(p))
            return ("atom", ("eq0", key), t)
        if name in _CMP:
            a = _poly_of(model, t.args[0])
            b = _poly_of(model, t.args[1])
            # normalize to  p >= 0
            if name == ">=":
                p = _padd(a, _pneg(b))
            elif name == "<=":
                p = _padd(b, _pneg(a))
            elif name == ">":
                p = _padd(_padd(a, _pneg(b)), _pconst(-1))
            else:  # <
                p = _padd(_padd(b, _pneg(a)), _pconst(-1))
            if not p:
                return TRUE
            if set(p) == {()}:
                return TRUE if p[()] >= 0 else FALSE
            # over the integers p >= 0 is the negation of -p - 1 >= 0: one atom
            key, other = _pkey(p), _pkey(_padd(_pneg(p), _pconst(-1)))
            if key > other:
                return _mk_not(("atom", ("ge0", other), t))
            return ("atom", ("ge0", key), t)
    return ("atom", ("term", t), t)


def _atoms_of(f, acc: dict):
    if f[0] == "atom":
        acc.setdefault(f[1], f[2])
    elif f[0] == "not":
        _atoms_of(f[1], acc)
    elif f[0] in ("and", "or", "imp", "iff"):
        _atoms_of(f[1], acc)
        _atoms_of(f[2], acc)


def _eval_formula(f, assign: dict) -> bool:
    op = f[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "atom":
        return assign[f[1]]
    if op == "not":
        return not _eval_formula(f[1], assign)
    a = _eval_formula(f[1], assign)
    b = _eval_formula(f[2], assign)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "imp":
        return (not a) or b
    return a == b


def _propositionally_valid(f, budget: OracleBudget) -> bool:
    atoms: dict = {}
    _atoms_of(f, atoms)
    keys = list(atoms)
    if len(keys) > budget.max_atoms:
        return False
    bounds = [k for k in keys if k[0] in ("ge0", "eq0")]
    if len(bounds) < 2:  # one atom alone contradicts no value of itself
        bounds = []
    for bits in itertools.product((False, True), repeat=len(keys)):
        assign = dict(zip(keys, bits))
        if not _eval_formula(f, assign) and not (bounds and _bounds_clash(bounds, assign)):
            return False
    return True


def _bounds_clash(bounds: list, assign: dict) -> bool:
    """Whether two of the ge0 and eq0 atoms cannot take their values in assign
    together over the integers.  Atom p >= 0 set true is p >= 0, set false
    -p - 1 >= 0; atom p = 0 set true is p >= 0 and -p >= 0.  No p >= 0 and
    q >= 0 both hold where p + q is a negative constant."""
    polys = []
    for key in bounds:
        p = dict(key[1])
        if key[0] == "ge0":
            polys.append(p if assign[key] else _padd(_pneg(p), _pconst(-1)))
        elif assign[key]:
            polys += [p, _pneg(p)]
    for p, q in itertools.combinations(polys, 2):
        total = _padd(p, q)
        if total.keys() <= {()} and total.get((), 0) < 0:
            return True
    return False


# -- equality propagation ---------------------------------------------------

def _conjuncts(t: Term) -> list[Term]:
    if isinstance(t, App) and t.fun.name == "and":
        return _conjuncts(t.args[0]) + _conjuncts(t.args[1])
    return [t]


def _find_binding(model: UnderlyingModel, conj: list[Term]) -> Optional[tuple[Variable, Term]]:
    int_sort = model.int_sort()
    eq_name = None if int_sort is None else f"={int_sort.name}"
    for c in conj:
        if not isinstance(c, App):
            continue
        if c.fun.name == eq_name or c.fun.name == "=Bool":
            a, b = c.args
            for x, u in ((a, b), (b, a)):
                if isinstance(x, Variable) and is_ground(u):
                    return x, model.value_term(sort_of(u), model.interpret(u))
            if isinstance(a, Variable) and isinstance(b, Variable) and a != b:
                lo, hi = sorted((a, b), key=lambda v: v.name)
                return hi, lo
    return None


def _propagate_equalities(model: UnderlyingModel, phi: Term,
                          budget: OracleBudget) -> Optional[Verdict]:
    """Decide phi = (A => B) by substituting variables that A pins down."""
    if not isinstance(phi, App) or phi.fun.name != "=>":
        return None
    ante, _ = phi.args
    found = _find_binding(model, _conjuncts(ante))
    if found is None:
        return None
    x, u = found
    sub = check_validity(model, apply_subst({x: u}, phi), budget)
    if sub.is_valid:
        return sub
    if sub.is_invalid:
        w = dict(sub.witness or {})
        w[x] = apply_subst(w, u) if not is_ground(u) else u
        if all(is_ground(t) for t in w.values()) and not (vars_of(phi) - set(w)):
            return _invalid(model, phi, w)
        return None  # partial witness; let other backends find a concrete one
    return None


# -- univariate linear decision ---------------------------------------------

def _linear_in(polykey, var_gen) -> Optional[tuple[int, int]]:
    a = b = 0
    for mono, c in polykey:
        if mono == ():
            b = c
        elif len(mono) == 1 and mono[0] == (var_gen, 1):
            a = c
        else:
            return None
    if a == 0:
        return None
    return a, b


def _univariate_decision(model, phi, f, x: Variable) -> Optional[Verdict]:
    """Decide phi, whose canonical formula is f, in its one integer
    variable x, or None when an atom is not linear in x."""
    atoms: dict = {}
    _atoms_of(f, atoms)
    gen = ("var", x.name, x.sort.name)
    bounds: list[int] = []
    for key in atoms:
        if key[0] not in ("eq0", "ge0"):
            return None
        lin = _linear_in(key[1], gen)
        if lin is None:
            return None
        a, b = lin
        # integer boundary of a*x + b near the real root -b/a
        root = -b // a
        bounds.extend([root - 1, root, root + 1])
    if not bounds:
        bounds = [0]
    lo, hi = min(bounds) - 1, max(bounds) + 1
    points = sorted(set(bounds) | {lo, hi}, key=lambda p: (abs(p), p < 0))
    return _refute(model, phi, [x], [points]) or valid()


def _bounded_refutation(model, phi, int_vars, budget) -> Optional[Verdict]:
    k = len(int_vars)
    box = budget.box
    while k > 1 and (2 * box + 1) ** k > budget.max_points:
        box = box // 2
        if box < 2:
            box = 2
            break
    return _refute(model, phi, int_vars, [int_domain(box)] * k, budget.max_points)


def _integer_pipeline(model, phi, int_vars, budget) -> Verdict:
    f = _formula_of(model, phi)
    if f == TRUE:
        return valid()
    if f == FALSE:
        return _invalid(model, phi, model.value_subst(int_vars, (0,) * len(int_vars)))

    prop = _propagate_equalities(model, phi, budget)
    if prop is not None:
        return prop

    if _propositionally_valid(f, budget):
        return valid()

    if len(int_vars) == 1:
        uni = _univariate_decision(model, phi, f, int_vars[0])
        if uni is not None:
            return uni

    ref = _bounded_refutation(model, phi, int_vars, budget)
    if ref is not None:
        return ref

    if budget.solver is not None:
        return budget.solver.check_validity(model, phi)

    return unknown("no backend decided the constraint (no counterexample in the box)")
