"""Built-in underlying models: booleans, unbounded integers, and integers mod n.

A model owns the theory half of a signature: carriers, interpretation
functions, and the bijection between value constants and carrier elements.
It answers ground evaluation queries and drives calculation steps.

Division and mod are Euclidean (mod lands in [0, |n|)) and are totalized by
div(x, 0) = 0 and mod(x, 0) = x.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .terms import (
    THEORY,
    App,
    FunSymbol,
    Position,
    Sort,
    Term,
    Variable,
    is_ground,
    positions_of,
    replace_at,
    sort_of,
    subterms_of,
    trusted_app,
    vars_of,
)

BOOL = Sort("Bool", THEORY)
INT = Sort("Int", THEORY)


class EvalError(Exception):
    pass


def euclidean_div(a: int, b: int) -> int:
    return (a - a % abs(b)) // b if b else 0


def euclidean_mod(a: int, b: int) -> int:
    return a % abs(b) if b else a


def _bool_ops(eq_sorts: list[Sort]) -> tuple[list[FunSymbol], dict[str, Callable]]:
    b = BOOL
    syms = [
        FunSymbol("not", (b,), b, THEORY),
        FunSymbol("and", (b, b), b, THEORY),
        FunSymbol("or", (b, b), b, THEORY),
        FunSymbol("=>", (b, b), b, THEORY),
        FunSymbol("<=>", (b, b), b, THEORY),
    ]
    interp: dict[str, Callable] = {"not": operator.not_, "and": operator.and_, "or": operator.or_,
                                   "=>": lambda x, y: (not x) or y, "<=>": operator.eq}
    for s in eq_sorts:
        name = f"={s.name}"
        syms.append(FunSymbol(name, (s, s), b, THEORY))
        interp[name] = operator.eq
    return syms, interp


def has_element(elements: Iterable, element: object) -> bool:
    """Membership by type and value: Python's True == 1 must not let the
    boolean true stand for the integer 1."""
    return any(type(e) is type(element) and e == element for e in elements)


@dataclass(frozen=True)
class Carrier:
    """Explicit finite carrier, or the integers when elements is None."""

    elements: tuple | None

    @property
    def finite(self) -> bool:
        return self.elements is not None


class UnderlyingModel:
    def __init__(
        self,
        name: str,
        sorts: list[Sort],
        symbols: list[FunSymbol],
        interp: dict[str, Callable],
        carriers: dict[Sort, Carrier],
    ) -> None:
        self.name = name
        self.sorts = {s.name: s for s in sorts}
        self.symbols = {f.name: f for f in symbols}
        self.interp = interp
        self.carriers = carriers
        self.verdicts: dict[tuple, object] = {}  # oracle.check_validity's memo
        self._value_terms: dict[tuple[str, type, object], App] = {}
        for s in sorts:
            if carriers[s].finite:
                for e in carriers[s].elements:  # type: ignore[union-attr]
                    self.value_term(s, e)

    # -- values ------------------------------------------------------------

    def value_symbol(self, sort: Sort, element: object) -> FunSymbol:
        return self.value_term(sort, element).fun

    def value_term(self, sort: Sort, element: object) -> App:
        key = (sort.name, type(element), element)
        term = self._value_terms.get(key)
        if term is None:
            if not self.element_in_carrier(sort, element):
                raise EvalError(f"{element!r} is not in the carrier of {sort.name}")
            term = self._value_terms[key] = App(FunSymbol(
                self.value_name(element), (), sort, THEORY, is_value=True, value=element))
        return term

    def value_subst(self, order: list[Variable], values: tuple) -> dict[Variable, Term]:
        """Each variable of order mapped to the value constant of its element."""
        return {v: self.value_term(v.sort, e) for v, e in zip(order, values)}

    @staticmethod
    def value_name(element: object) -> str:
        if isinstance(element, bool):
            return "true" if element else "false"
        return str(element)

    def element_in_carrier(self, sort: Sort, element: object) -> bool:
        car = self.carriers.get(sort)
        if car is None:
            return False
        if car.finite:
            return has_element(car.elements, element)  # type: ignore[arg-type]
        return isinstance(element, int) and not isinstance(element, bool)

    def is_value_term(self, t: Term) -> bool:
        return isinstance(t, App) and t.fun.is_value

    def carrier_elements(self, sort: Sort) -> tuple:
        car = self.carriers[sort]
        if not car.finite:
            raise EvalError(f"carrier of {sort.name} is infinite")
        return car.elements  # type: ignore[return-value]

    @property
    def finite(self) -> bool:
        return all(c.finite for c in self.carriers.values())

    def int_sort(self) -> Sort | None:
        s = self.sorts.get("Int")
        return s

    # -- constraint terms --------------------------------------------------

    def equality(self, a: Term, b: Term) -> App:
        """The constraint a = b, for same-sorted theory terms."""
        sym = self.symbols.get(f"={sort_of(a).name}")
        if sym is None:
            raise ValueError(f"no equality symbol for sort {sort_of(a).name}")
        return App(sym, (a, b))

    def implies(self, a: Term, b: Term) -> App:
        return App(self.symbols["=>"], (a, b))

    # -- interpretation ----------------------------------------------------

    def interpret(self, t: Term) -> object:
        """Value of a ground theory term (the unique calc normal form)."""
        if isinstance(t, Variable):
            raise EvalError(f"term is not ground: variable {t.name}")
        if t.fun.kind != THEORY:
            raise EvalError(f"non-theory symbol {t.fun.name} in theory term")
        if t.fun.is_value:
            return t.fun.value
        fn = self.interp.get(t.fun.name)
        if fn is None:
            raise EvalError(f"no interpretation for {t.fun.name}")
        return fn(*(self.interpret(a) for a in t.args))

    def interpret_term(self, t: Term) -> App:
        """interpret, packaged back into the corresponding value constant."""
        return self.value_term(sort_of(t), self.interpret(t))

    def eval_constraint(self, phi: Term) -> bool:
        if not is_ground(phi):
            raise EvalError(f"constraint is not ground: {phi!r}")
        if sort_of(phi) != BOOL:
            raise EvalError(f"constraint has sort {sort_of(phi).name}, expected Bool")
        v = self.interpret(phi)
        return bool(v)

    def eval_with(self, t: Term, valuation: dict[Variable, object]) -> object:
        """Interpret a theory term under a valuation into carrier elements.

        The same evaluator as compile, called once: EvalError for a variable
        the valuation does not cover or a symbol without interpretation, when
        the walk reaches it."""
        return self.compile(t, list(valuation))(tuple(valuation.values()))

    def compile(self, t: Term, order: list[Variable]) -> Callable[[tuple], object]:
        """t as a function of a tuple of carrier values, one per variable of
        order, evaluated as eval_with would walk it.

        Variables become tuple reads and ground subterms are folded to their
        values; every operator node calls this model's interpretation
        function.  Nothing raises here: a variable outside order, or a symbol
        without interpretation, compiles to a node that raises EvalError when
        evaluation reaches it, left to right and outermost first; a ground
        subterm whose interpretation raises is left unfolded, to raise the
        same error there.
        """
        index = {v: i for i, v in enumerate(order)}
        interp = self.interp

        def build(u: Term) -> tuple[int, object]:
            if isinstance(u, Variable):
                i = index.get(u)
                if i is None:
                    return _FN, _raiser(f"valuation does not cover {u.name}")
                return _VAR, i
            if u.fun.is_value:
                return _CONST, u.fun.value
            fn = interp.get(u.fun.name)
            if fn is None:
                return _FN, _raiser(f"no interpretation for {u.fun.name}")
            args = [build(a) for a in u.args]
            if all(kind == _CONST for kind, _ in args):
                values = [x for _, x in args]
                try:
                    return _CONST, fn(*values)
                except Exception:  # a model's own function, e.g. a division by zero
                    return _FN, lambda env: fn(*values)
            return _FN, _node(fn, args)

        kind, x = build(t)
        if kind == _VAR:
            return operator.itemgetter(x)
        if kind == _CONST:
            return lambda env: x
        return x  # type: ignore[return-value]

    # -- calculation steps ---------------------------------------------------

    def is_calc_redex(self, t: Term) -> bool:
        return (
            isinstance(t, App)
            and t.fun.kind == THEORY
            and not t.fun.is_value
            and all(self.is_value_term(a) for a in t.args)
        )

    def calc_step_candidates(self, t: Term) -> list[tuple[Position, Term]]:
        """All single forward calculation redexes with their contracted terms."""
        out = []
        for pos, sub in positions_of(t):
            if self.is_calc_redex(sub):
                out.append((pos, replace_at(t, pos, self.interpret_term(sub))))
        return out

    def calc_normalize(self, t: Term) -> Term:
        return self.calc_normalize_steps(t)[0]

    def calc_normalize_steps(self, t: Term) -> tuple[Term, list[tuple[Position, Term, Term]]]:
        """Normal form plus the innermost-leftmost contraction sequence.

        Each step records (position, redex, value) against the term as it was
        just before that contraction.
        """
        steps: list[tuple[Position, Term, Term]] = []

        def go(u: Term, pos: Position) -> Term:
            if isinstance(u, Variable):
                return u
            args = tuple(go(a, pos + (i + 1,)) for i, a in enumerate(u.args))
            v = u if args == u.args else trusted_app(u.fun, args)
            if self.is_calc_redex(v):
                val = self.interpret_term(v)
                steps.append((pos, v, val))
                return val
            return v

        return go(t, ()), steps


# compiled leaves: a constant, a read of the valuation tuple, or a function of it
_CONST, _VAR, _FN = 0, 1, 2


def _raiser(message: str) -> Callable[[tuple], object]:
    def fail(env: tuple) -> object:
        raise EvalError(message)
    return fail


def _node(fn: Callable, args: list[tuple[int, object]]) -> Callable[[tuple], object]:
    """fn applied to compiled arguments, with constant and variable leaves
    read inline rather than through a function call of their own."""
    if len(args) == 1:
        (ka, a), = args
        if ka == _VAR:
            return lambda env: fn(env[a])
        return lambda env: fn(a(env))
    if len(args) == 2:
        (ka, a), (kb, b) = args
        if ka == _VAR:
            if kb == _VAR:
                return lambda env: fn(env[a], env[b])
            if kb == _CONST:
                return lambda env: fn(env[a], b)
            return lambda env: fn(env[a], b(env))
        if ka == _CONST:
            if kb == _VAR:
                return lambda env: fn(a, env[b])
            return lambda env: fn(a, b(env))
        if kb == _VAR:
            return lambda env: fn(a(env), env[b])
        if kb == _CONST:
            return lambda env: fn(a(env), b)
        return lambda env: fn(a(env), b(env))
    parts = [(lambda env, i=x: env[i]) if k == _VAR
             else (lambda env, c=x: c) if k == _CONST else x
             for k, x in args]
    return lambda env: fn(*[p(env) for p in parts])


def bool_model() -> UnderlyingModel:
    syms, interp = _bool_ops([BOOL])
    return UnderlyingModel(
        "bool", [BOOL], syms, interp, {BOOL: Carrier((False, True))})


def _int_model(name: str, wrap: Optional[Callable[[int], int]],
               int_carrier: Carrier) -> UnderlyingModel:
    """Booleans plus integer arithmetic and comparisons; every arithmetic
    result passes through wrap (None: the identity)."""
    i, b = INT, BOOL
    syms, interp = _bool_ops([BOOL, INT])
    arith: dict[str, Callable] = {
        "+": operator.add, "-": operator.sub, "neg": operator.neg, "*": operator.mul,
        "div": euclidean_div, "mod": euclidean_mod,
    } if wrap is None else {
        "+": lambda x, y: wrap(x + y),
        "-": lambda x, y: wrap(x - y),
        "neg": lambda x: wrap(-x),
        "*": lambda x, y: wrap(x * y),
        "div": lambda x, y: wrap(euclidean_div(x, y)),
        "mod": lambda x, y: wrap(euclidean_mod(x, y)),
    }
    for op, fn in arith.items():
        syms.append(FunSymbol(op, (i,) if op == "neg" else (i, i), i, THEORY))
        interp[op] = fn
    for op, fn in (("<", operator.lt), ("<=", operator.le),
                   (">", operator.gt), (">=", operator.ge)):
        syms.append(FunSymbol(op, (i, i), b, THEORY))
        interp[op] = fn
    model = UnderlyingModel(
        name, [BOOL, INT], syms, interp,
        {BOOL: Carrier((False, True)), INT: int_carrier})
    model._bijective_arith = True  # +, - and neg are bijections in each argument
    return model


def lia_model() -> UnderlyingModel:
    return _int_model("lia", None, Carrier(None))


def intmod_model(n: int) -> UnderlyingModel:
    if not 1 <= n <= 64:
        raise ValueError("modulus must be in 1..64")
    return _int_model(f"intmod {n}", lambda x: x % n, Carrier(tuple(range(n))))


def builtin_model(name: str, arg: int | None = None) -> UnderlyingModel:
    if name == "bool":
        return bool_model()
    if name == "lia":
        return lia_model()
    if name == "intmod":
        if arg is None:
            raise ValueError("intmod needs a modulus")
        return intmod_model(arg)
    raise ValueError(f"unknown model {name}")


@functools.cache
def int_domain(box: int) -> tuple[int, ...]:
    """[-box, box], closest to zero first: one shared tuple per box."""
    return (0, *(v for k in range(1, box + 1) for v in (k, -k)))


def sort_domain(model: UnderlyingModel, sort: Sort, box: int) -> tuple:
    car = model.carriers[sort]
    return car.elements if car.finite else int_domain(box)  # type: ignore[return-value]


class Guard:
    """phi compiled once over order (UnderlyingModel.compile), and `solve`: the
    one value of order's last variable that can satisfy phi, or None (_solved_for)."""

    def __init__(self, model: UnderlyingModel, order: list[Variable], phi: Term) -> None:
        if vars_of(phi) - set(order):
            raise EvalError("constraint mentions variables outside the enumeration set")
        if sort_of(phi) != BOOL:
            raise EvalError(f"constraint has sort {sort_of(phi).name}, expected Bool")
        self.holds = model.compile(phi, order)
        inverse = getattr(model, "_bijective_arith", False) and order and \
            _solved_for(model, phi, order[-1])
        self.solve = model.compile(inverse, order) if inverse else None

    def points(self, prefix: tuple, domains: Sequence[Sequence],
               limit: Optional[int] = None) -> Iterator[tuple]:
        """Tuples over the product of domains (one per variable of order after
        prefix's, of carrier elements), in itertools.product order, under which
        phi holds after prefix; at most limit points are tried.  With solve and
        no limit, only last-domain elements equal to the solved value are tried."""
        holds, k, fixed = self.holds, len(prefix), [(v,) for v in prefix]
        if self.solve is None or limit is not None or not domains:
            hits = filter(holds, itertools.islice(itertools.product(*fixed, *domains), limit))
        else:
            solve, last = self.solve, domains[-1]
            hits = (q for p in itertools.product(*fixed, *domains[:-1]) if (c := solve(p)) in last
                    for q in [p + (e,) for e in last if e == c] if holds(q))
        return (p[k:] for p in hits) if k else hits


def _solved_for(model: UnderlyingModel, phi: Term, y: Variable) -> Optional[Term]:
    """The first top-level equality conjunct of phi with y once in it, under +,
    - and neg alone, solved for y; None if none, or if phi could raise (a symbol
    the model does not interpret)."""
    count = lambda t: sum(u == y for u in subterms_of(t))  # noqa: E731
    sym, todo = model.symbols, [phi]
    while todo:
        c = todo.pop()
        if isinstance(c, App) and c.fun.name == "and":
            todo.extend(reversed(c.args))
        if not (isinstance(c, App) and len(c.args) == 2
                and c.fun.name == f"={c.fun.arg_sorts[0].name}" and count(c) == 1):
            continue
        side, other = c.args if count(c.args[0]) else reversed(c.args)
        while isinstance(side, App) and side.fun.name in ("+", "-", "neg"):
            (l, *r), op = side.args, side.fun.name
            if op == "neg":
                side, other = l, App(sym["neg"], (other,))
            elif count(l):  # y - r = o, y + r = o
                side, other = l, App(sym["+" if op == "-" else "-"], (other, *r))
            else:  # l - y = o, l + y = o
                side, other = r[0], App(sym["-"], (l, other) if op == "-" else (other, l))
        if isinstance(side, Variable):
            return None if any(isinstance(u, App) and not u.fun.is_value and u.fun.name
                               not in model.interp for u in subterms_of(phi)) else other
    return None


def satisfying(model: UnderlyingModel, order: list[Variable], domains: list, phi: Term,
               limit: int | None = None) -> Iterator[tuple]:
    """Guard(model, order, phi).points((), domains, limit); raises at the first next()."""
    yield from Guard(model, order, phi).points((), domains, limit)


def enumerate_satisfying(
    model: UnderlyingModel,
    xs: set[Variable] | frozenset[Variable],
    phi: Term,
    box: int = 64,
) -> Iterator[dict[Variable, Term]]:
    """X-valued substitutions over the box/carriers that satisfy phi.

    Exhaustive for finite carriers; for the integers it walks [-box, box] per
    variable, closest to zero first.  Enumeration order is deterministic.
    """
    order = sorted(xs, key=lambda v: (v.name, v.sort.name))
    domains = [sort_domain(model, v.sort, box) for v in order]
    for combo in satisfying(model, order, domains, phi):
        yield model.value_subst(order, combo)
