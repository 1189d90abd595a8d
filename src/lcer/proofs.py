"""Derivation objects, the twelve-rule checker, and proof construction.

The checker re-establishes well-formedness of every node's conclusion, then
enforces each rule's shape and side conditions exactly as declared; rejection
reports the first failing node in pre-order.  Side conditions that need
constraint validity go through the oracle, and an undecided oracle query is
surfaced as its own verdict rather than being treated as pass or fail.

`Derivation` and `RULES` are `validity`'s, re-exported.  Proofs are built by
`generate_calc_proof`, for goals whose sides differ only in theory subterms
the constraint proves equal, and by `prove_heuristic`, which tries it first
and then returns the derivation of validate's own verdict (`derivation_of`):
a conversion trace is simulated step by step, a trivial gap's derivation is
joined to the simulated gap traces, and samples that are every instance
become a case analysis, Abst per instance joined by Split.  Both close a gap
with the one Refl/Axiom/Cong closure, `validity.close_trivial`, and every
derivation they return is re-checked.
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
    Term,
    Variable,
    apply_subst,
    replace_at,
    subterm_at,
    theory_over,
    vars_of,
)
from .validity import RULES  # noqa: F401  (re-exported with Derivation)
from .validity import Derivation, ValidityBudgets, ValidityStatus, cases_cover, close_trivial
from .validity import proof_search, verdicts

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
        # the instance is over X: sigma maps eq's variables to terms over X
        inst = ConstrainedEquation(X, *(apply_subst(sigma, u)
                                        for u in (eq.lhs, eq.rhs, eq.constraint)))
        tinst = Derivation("TheoryInstance", inst, witness=step.subst, premises=(rule,))
        node = Derivation("Weakening", ConstrainedEquation(X, inst.lhs, inst.rhs, phi),
                          premises=(tinst,))
    if step.direction != "lr":
        node = Derivation("Sym", ConstrainedEquation(X, before, after, phi), premises=(node,))
    # wrap outward along the position path
    for depth in range(len(step.position), 0, -1):
        parent = subterm_at(whole_before, step.position[:depth - 1])
        assert isinstance(parent, App)
        i = step.position[depth - 1] - 1
        premises = tuple(node if j == i else Derivation("Refl", ConstrainedEquation(X, a, a, phi))
                         for j, a in enumerate(parent.args))
        after = App(parent.fun, (*parent.args[:i], node.conclusion.rhs, *parent.args[i + 1:]))
        node = Derivation("Cong", ConstrainedEquation(X, parent, after, phi), premises=premises)
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
                    budgets: ValidityBudgets | None = None) -> Optional[Derivation]:
    """generate_calc_proof's derivation of ce, else the first derivation of
    validate's own verdicts (`validity.verdicts`) that the checker accepts;
    step (3)'s verdict is asked for only when its instances can be cases."""
    budgets = budgets or ValidityBudgets()
    try:
        return generate_calc_proof(theory, ce, budgets.oracle)
    except GenerationError:
        pass
    statuses = verdicts if cases_cover(theory, ce) else proof_search
    for status in statuses(theory, ce, budgets):
        d = derivation_of(theory, ce, status)
        if d is not None and check_proof(theory, d, budgets.oracle).accepted:
            return d
    return None


def derivation_of(theory: CETheory, ce: ConstrainedEquation,
                  status: ValidityStatus) -> Optional[Derivation]:
    """The derivation, unchecked, of a validity verdict on ce, or None: a
    conversion trace is simulated, a trivial gap's derivation is joined to the
    simulations of both gap traces, and every instance makes a case."""
    X, phi = ce.logical_vars, ce.constraint
    if status.instances:
        return _by_cases(theory, ce, status.instances)
    if status.trace is not None:
        parts = [simulate_trace(theory, ce.lhs, status.trace, X, phi)]
    elif status.gap_proof is not None:  # None on a vacuous gap the closure leaves open
        ls, rs = status.gap  # type: ignore[misc]
        left, right = status.gap_traces  # type: ignore[misc]
        parts = [simulate_trace(theory, ce.lhs, left, X, phi),
                 status.gap_proof if ls != rs else None,
                 simulate_trace(theory, rs, tuple(st.reversed_() for st in reversed(right)),
                                X, phi)]
    else:
        return None
    return _chain([p for p in parts if p is not None], X, phi) or Derivation("Refl", ce)


def _by_cases(theory: CETheory, ce: ConstrainedEquation, instances) -> Derivation:
    """Weakening over Split over one Abst per instance sigma, whose case is
    the conjunction of x = sigma(x) over X and whose premise simulates the
    instance's trace; Weakening holds when the instances are every one."""
    model, X = theory.model, ce.logical_vars
    xs = sorted(X, key=lambda v: v.name)
    cases = []
    for sigma, trace in instances:
        eqs = [model.equality(x, sigma[x]) for x in xs]
        case = eqs[0] if eqs else ce.constraint
        for e in eqs[1:]:
            case = App(model.symbols["and"], (case, e))
        start, inst_phi = apply_subst(sigma, ce.lhs), apply_subst(sigma, case)
        inner = simulate_trace(theory, start, trace, X, inst_phi) \
            or Derivation("Refl", ConstrainedEquation(X, start, start, inst_phi))
        cases.append(Derivation("Abst", ConstrainedEquation(X, ce.lhs, ce.rhs, case),
                                witness=tuple((x, sigma[x]) for x in xs), premises=(inner,)))
    node = cases[-1]
    for c in reversed(cases[:-1]):
        disj = App(model.symbols["or"], (c.conclusion.constraint, node.conclusion.constraint))
        node = Derivation("Split", ConstrainedEquation(X, ce.lhs, ce.rhs, disj),
                          premises=(c, node))
    return Derivation("Weakening", ce, premises=(node,))
