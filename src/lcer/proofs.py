"""Derivation objects, the twelve-rule checker, and proof construction.

The checker re-establishes well-formedness of every node's conclusion, then
enforces each rule's shape and side conditions exactly as declared; rejection
reports the first failing node in pre-order.  Side conditions that need
constraint validity go through the oracle, and an undecided oracle query is
surfaced as its own verdict rather than being treated as pass or fail.

`Derivation` and `RULES` are `validity`'s, re-exported.  Proofs are built by
`generate_calc_proof`, for goals whose sides differ only in theory subterms
the constraint proves equal, and by `prove_heuristic`.  The rewriting stage
of the latter is validate's own: it takes the proof verdicts of
`validity.proof_search` in order, simulates a conversion trace step by step,
or joins a trivial gap's derivation to the simulated gap traces.  Both close
a gap with the one Refl/Axiom/Cong closure, `validity.close_trivial`, and
every derivation they return is re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .equations import (
    CEError,
    CETheory,
    ConstrainedEquation,
    ConversionTrace,
    TraceStep,
)
from .models import enumerate_satisfying  # noqa: F401  (the benchmark's tracer rebinds it)
from .oracle import OracleBudget, check_validity
from .terms import (
    App,
    Subst,
    Term,
    Variable,
    apply_subst,
    replace_at,
    subterm_at,
    theory_over,
    vars_of,
)
from .validity import RULES  # noqa: F401  (re-exported with Derivation)
from .validity import Derivation, ValidityBudgets, close_trivial, proof_search

_ARITY = {
    "Refl": 0, "Rule": 0, "Axiom": 0,
    "Sym": 1, "TheoryInstance": 1, "GeneralInstance": 1, "Weakening": 1,
    "Abst": 1, "Enlarge": 1,
    "Trans": 2, "Split": 2,
    "Cong": None,  # matches the symbol's arity
}

_NEEDS_WITNESS = {"TheoryInstance", "GeneralInstance", "Abst"}


@dataclass
class CheckReport:
    verdict: str  # accepted | rejected | oracle-unknown
    path: Optional[tuple[int, ...]] = None
    rule: Optional[str] = None
    code: Optional[str] = None
    detail: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


class _Fail(Exception):
    def __init__(self, path, rule, code, detail):
        self.report = CheckReport("rejected", tuple(path), rule, code, detail)


class _Undecided(Exception):
    def __init__(self, path, rule, detail):
        self.report = CheckReport("oracle-unknown", tuple(path), rule,
                                  "oracle-unknown", detail)


def check_proof(theory: CETheory, d: Derivation,
                budget: OracleBudget | None = None) -> CheckReport:
    budget = budget or OracleBudget()
    try:
        _check(theory, d, (), budget)
    except _Fail as f:
        return f.report
    except _Undecided as u:
        return u.report
    return CheckReport("accepted")


def _oracle_valid(theory, phi, path, rule, what, budget) -> None:
    v = check_validity(theory.model, phi, budget)
    if v.is_valid:
        return
    if v.is_invalid:
        raise _Fail(path, rule, "side-condition-failed",
                    f"{what} is not valid (witness {_fmt_subst(v.witness)})")
    raise _Undecided(path, rule, f"oracle could not decide {what}")


def _fmt_subst(sigma) -> str:
    if not sigma:
        return "{}"
    items = sorted(sigma.items(), key=lambda kv: kv[0].name)
    return "{" + ", ".join(f"{x.name} -> {t!r}" for x, t in items) + "}"


def _check(theory: CETheory, d: Derivation, path: tuple[int, ...],
           budget: OracleBudget) -> None:
    ce = d.conclusion
    try:
        ConstrainedEquation(ce.logical_vars, ce.lhs, ce.rhs, ce.constraint)
    except CEError as e:
        raise _Fail(path, d.rule, "malformed-ce", str(e))

    arity = _ARITY[d.rule]
    if arity is not None and len(d.premises) != arity:
        raise _Fail(path, d.rule, "shape-mismatch",
                    f"{d.rule} takes {arity} premises, found {len(d.premises)}")
    if d.rule in _NEEDS_WITNESS and d.witness is None:
        raise _Fail(path, d.rule, "shape-mismatch", f"{d.rule} needs a substitution witness")

    X, s, t, phi = ce.logical_vars, ce.lhs, ce.rhs, ce.constraint

    if d.rule == "Refl":
        if s != t:
            raise _Fail(path, d.rule, "side-condition-failed", "sides are not identical")

    elif d.rule == "Trans":
        p, q = d.premises[0].conclusion, d.premises[1].conclusion
        if p.logical_vars != X or q.logical_vars != X or p.constraint != phi \
                or q.constraint != phi:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premises must share the conclusion's variables and constraint")
        if p.lhs != s or q.rhs != t or p.rhs != q.lhs:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premise sides do not chain through a shared middle term")

    elif d.rule == "Sym":
        p = d.premises[0].conclusion
        if p.logical_vars != X or p.constraint != phi or p.lhs != t or p.rhs != s:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premise must be the mirrored conclusion")

    elif d.rule == "Cong":
        if not isinstance(s, App) or not isinstance(t, App) or s.fun != t.fun:
            raise _Fail(path, d.rule, "shape-mismatch",
                        "conclusion sides must share their root symbol")
        if len(d.premises) != len(s.args):
            raise _Fail(path, d.rule, "shape-mismatch",
                        f"need {len(s.args)} premises for {s.fun.name}")
        for i, p in enumerate(d.premises):
            pc = p.conclusion
            if pc.logical_vars != X or pc.constraint != phi \
                    or pc.lhs != s.args[i] or pc.rhs != t.args[i]:
                raise _Fail(path, d.rule, "side-condition-failed",
                            f"premise {i + 1} does not prove the argument pair")

    elif d.rule == "Rule":
        if not any(eq.logical_vars == X and eq.lhs == s and eq.rhs == t
                   and eq.constraint == phi for eq in theory.equations):
            raise _Fail(path, d.rule, "not-in-theory",
                        "conclusion is not literally an equation of the theory")

    elif d.rule == "TheoryInstance":
        p = d.premises[0].conclusion
        sigma = d.witness_subst()
        for y in sorted(p.logical_vars, key=lambda v: v.name):
            img = apply_subst(sigma, y)
            if not theory_over(img, X):
                raise _Fail(path, d.rule, "side-condition-failed",
                            f"{y.name} maps to {img!r}, not a theory term over the "
                            "conclusion's variables")
        if apply_subst(sigma, p.lhs) != s or apply_subst(sigma, p.rhs) != t \
                or apply_subst(sigma, p.constraint) != phi:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "conclusion is not the premise instantiated by the witness")

    elif d.rule == "GeneralInstance":
        p = d.premises[0].conclusion
        sigma = d.witness_subst()
        if p.logical_vars != X:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premise and conclusion must share logical variables")
        touched = {x for x, u in sigma.items() if u != x}
        if touched & X:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "witness must not move logical variables")
        if p.constraint != phi:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "constraint must be unchanged")
        if apply_subst(sigma, p.lhs) != s or apply_subst(sigma, p.rhs) != t:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "conclusion is not the premise instantiated by the witness")

    elif d.rule == "Weakening":
        p = d.premises[0].conclusion
        if p.logical_vars != X or p.lhs != s or p.rhs != t:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "only the constraint may change")
        _oracle_valid(theory, theory.model.implies(phi, p.constraint), path, d.rule,
                      "the conclusion constraint entailing the premise constraint",
                      budget)

    elif d.rule == "Split":
        p, q = d.premises[0].conclusion, d.premises[1].conclusion
        if p.logical_vars != X or q.logical_vars != X or p.lhs != s or q.lhs != s \
                or p.rhs != t or q.rhs != t:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premises must prove the same equation")
        want = App(theory.model.symbols["or"], (p.constraint, q.constraint))
        if phi != want:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "conclusion constraint must be the premise constraints "
                        "joined by a single disjunction, in order")

    elif d.rule == "Axiom":
        if not theory_over(s, X) or not theory_over(t, X):
            raise _Fail(path, d.rule, "side-condition-failed",
                        "both sides must be theory terms over the logical variables")
        _oracle_valid(theory, theory.model.implies(phi, theory.model.equality(s, t)),
                      path, d.rule, "the constraint entailing the equation", budget)

    elif d.rule == "Abst":
        p = d.premises[0].conclusion
        sigma = d.witness_subst()
        if p.logical_vars != X:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premise and conclusion must share logical variables")
        if not (vars_of(s) | vars_of(t)) <= X:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "conclusion sides may only use logical variables")
        moved = sorted((x for x in X if apply_subst(sigma, x) != x),
                       key=lambda v: v.name)
        for x in moved:
            if not vars_of(apply_subst(sigma, x)) <= X:
                raise _Fail(path, d.rule, "side-condition-failed",
                            f"witness image of {x.name} leaves the logical variables")
        if apply_subst(sigma, s) != p.lhs or apply_subst(sigma, t) != p.rhs \
                or apply_subst(sigma, phi) != p.constraint:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "premise is not the conclusion instantiated by the witness")
        if moved:
            eqs = [theory.model.equality(x, apply_subst(sigma, x)) for x in moved]
            conj = eqs[0]
            for e in eqs[1:]:
                conj = App(theory.model.symbols["and"], (conj, e))
            _oracle_valid(theory, theory.model.implies(phi, conj), path, d.rule,
                          "the constraint pinning the witness values", budget)

    elif d.rule == "Enlarge":
        p = d.premises[0].conclusion
        if p.lhs != s or p.rhs != t or p.constraint != phi:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "only the logical variable set may change")
        removed = p.logical_vars - X
        if (vars_of(s) | vars_of(t)) & removed:
            raise _Fail(path, d.rule, "side-condition-failed",
                        "dropped logical variables still occur in the sides")

    for i, p in enumerate(d.premises):
        _check(theory, p, path + (i,), budget)


# -- constructive generation ---------------------------------------------------

class GenerationError(Exception):
    """The generator could not verify its own precondition."""


def generate_calc_proof(theory: CETheory, ce: ConstrainedEquation,
                        budget: OracleBudget | None = None,
                        box: int = 8) -> Derivation:
    """Build the Refl/Axiom/Cong derivation of a goal with a satisfiable
    constraint whose sides differ only in theory subterms the constraint
    proves equal, such as goals whose instances are one calculation apart.
    The derivation is re-checked; box is unused, since no instance is
    enumerated."""
    budget = budget or OracleBudget()
    model = theory.model
    sat = check_validity(model, App(model.symbols["not"], (ce.constraint,)), budget)
    if not sat.is_invalid:
        raise GenerationError("constraint is unsatisfiable" if sat.is_valid else
                              "oracle could not confirm the constraint is satisfiable")

    d = close_trivial(theory, ce, budget)
    if not isinstance(d, Derivation):
        raise GenerationError(f"cannot close the gap between {ce.lhs!r} and {ce.rhs!r}")
    report = check_proof(theory, d, budget)
    if not report.accepted:
        raise GenerationError(f"generated derivation was not accepted: {report.detail}")
    return d


# -- heuristic proving ----------------------------------------------------------

def _frozen(sigma: Subst) -> tuple[tuple[Variable, Term], ...]:
    return tuple(sorted(((x, u) for x, u in sigma.items() if u != x),
                        key=lambda kv: kv[0].name))


def _simulate_step(theory: CETheory, whole_before: Term, step: TraceStep,
                   X: frozenset[Variable], phi: Term) -> Derivation:
    """A derivation of <X> before ~ after [phi] for one trace step.

    The step's instantiated constraint is ground and true, so Weakening from
    it to phi always discharges; a context position is rebuilt with Cong over
    reflexivity premises.
    """
    before = step.replaced
    after = step.result
    if step.kind == "calc":
        redex, value = (before, after) if step.direction == "lr" else (after, before)
        node = Derivation("Axiom", ConstrainedEquation(X, redex, value, phi))
    else:
        eq = theory.equations[step.eq_index]  # type: ignore[index]
        sigma = dict(step.subst)
        rule = Derivation("Rule", eq)
        inst = eq.subst(sigma)
        tinst = Derivation("TheoryInstance",
                           ConstrainedEquation(X, inst.lhs, inst.rhs, inst.constraint),
                           witness=_frozen(sigma), premises=(rule,))
        node = Derivation("Weakening", ConstrainedEquation(X, inst.lhs, inst.rhs, phi),
                          premises=(tinst,))
    if step.direction != "lr":
        node = Derivation("Sym", ConstrainedEquation(X, before, after, phi), premises=(node,))
    # wrap outward along the position path
    for depth in range(len(step.position), 0, -1):
        prefix = step.position[:depth - 1]
        idx = step.position[depth - 1]
        parent_before = subterm_at(whole_before, prefix)
        assert isinstance(parent_before, App)
        rhs_args = list(parent_before.args)
        rhs_args[idx - 1] = node.conclusion.rhs
        premises = []
        for i, arg in enumerate(parent_before.args):
            if i == idx - 1:
                premises.append(node)
            else:
                premises.append(Derivation("Refl",
                                           ConstrainedEquation(X, arg, arg, phi)))
        node = Derivation("Cong", ConstrainedEquation(
            X, parent_before, App(parent_before.fun, tuple(rhs_args)), phi),
            premises=tuple(premises))
    return node


def simulate_trace(theory: CETheory, start: Term, trace: ConversionTrace,
                   X: frozenset[Variable], phi: Term) -> Optional[Derivation]:
    """Trans-join one derivation per trace step; None for an empty trace."""
    parts = []
    for step in trace:
        parts.append(_simulate_step(theory, start, step, X, phi))
        start = replace_at(start, step.position, step.result)
    return _chain(parts, X, phi)


def _chain(parts: list[Derivation], X: frozenset[Variable],
           phi: Term) -> Optional[Derivation]:
    """Trans-join derivations of consecutive equations, left to right; None
    for none."""
    node: Optional[Derivation] = None
    for d in parts:
        node = d if node is None else Derivation("Trans", ConstrainedEquation(
            X, node.conclusion.lhs, d.conclusion.rhs, phi), premises=(node, d))
    return node


def prove_heuristic(theory: CETheory, ce: ConstrainedEquation,
                    budgets: ValidityBudgets | None = None,
                    _depth: int = 0) -> Optional[Derivation]:
    """Best-effort proof search; a returned derivation is always re-checked.

    Incomplete by design: it combines the calculation-step generator, rewrite
    simulation toward a trivial gap, and finite case splitting.
    """
    budgets = budgets or ValidityBudgets()

    try:
        return generate_calc_proof(theory, ce, budgets.oracle)
    except GenerationError:
        pass

    d = _prove_by_rewriting(theory, ce, budgets)
    if d is not None and check_proof(theory, d, budgets.oracle).accepted:
        return d

    if _depth < 2:
        d = _prove_by_split(theory, ce, budgets, _depth)
        if d is not None and check_proof(theory, d, budgets.oracle).accepted:
            return d
    return None


def _prove_by_rewriting(theory, ce, budgets) -> Optional[Derivation]:
    """The first of check_ce_validity's proof verdicts for ce that becomes a
    derivation: a conversion trace is simulated, and a trivial gap's
    derivation is joined to the simulations of both gap traces."""
    X, phi = ce.logical_vars, ce.constraint
    for status in proof_search(theory, ce, budgets):
        if status.trace is not None:
            d = simulate_trace(theory, ce.lhs, status.trace, X, phi)
            return d or Derivation("Refl", ce)
        if status.gap_proof is None:
            continue  # a vacuous gap the closure does not close
        ls, rs = status.gap  # type: ignore[misc]
        left, right = status.gap_traces  # type: ignore[misc]
        gap = status.gap_proof if ls != rs else None
        fwd = simulate_trace(theory, ce.lhs, left, X, phi)
        bwd = simulate_trace(theory, rs, tuple(st.reversed_() for st in reversed(right)),
                             X, phi)
        parts = [p for p in (fwd, gap, bwd) if p is not None]
        return _chain(parts, X, phi) or Derivation("Refl", ce)
    return None


def _prove_by_split(theory, ce, budgets, depth) -> Optional[Derivation]:
    """Case split one finite-sorted logical variable and abstract each case."""
    model = theory.model
    X = ce.logical_vars
    if not (vars_of(ce.lhs) | vars_of(ce.rhs)) <= X:
        return None
    finite = sorted((x for x in X if model.carriers[x.sort].finite
                     and x in (vars_of(ce.lhs) | vars_of(ce.rhs))),
                    key=lambda v: v.name)
    for x in finite:
        elems = model.carrier_elements(x.sort)
        if not 2 <= len(elems) <= 8:
            continue
        cases = []
        ok = True
        for e in elems:
            val = model.value_term(x.sort, e)
            case_phi = model.equality(x, val)
            sigma = {x: val}
            inner_goal = ConstrainedEquation(
                X, apply_subst(sigma, ce.lhs), apply_subst(sigma, ce.rhs),
                apply_subst(sigma, case_phi))
            inner = prove_heuristic(theory, inner_goal, budgets, depth + 1)
            if inner is None:
                ok = False
                break
            abst = Derivation("Abst", ConstrainedEquation(X, ce.lhs, ce.rhs, case_phi),
                              witness=_frozen(sigma), premises=(inner,))
            cases.append(abst)
        if not ok:
            continue
        node = cases[-1]
        for c in reversed(cases[:-1]):
            disj = App(model.symbols["or"],
                       (c.conclusion.constraint, node.conclusion.constraint))
            node = Derivation("Split", ConstrainedEquation(X, ce.lhs, ce.rhs, disj),
                              premises=(c, node))
        cover = model.implies(ce.constraint, node.conclusion.constraint)
        if not check_validity(model, cover, budgets.oracle).is_valid:
            continue
        return Derivation("Weakening", ce, premises=(node,))
    return None
