"""Many-sorted terms: signatures, positions, substitutions, matching, unification.

Terms are immutable values with structural equality; every operation here is a
pure function.  Variables carry their sort intrinsically, so two variables with
the same name but different sorts are distinct objects.

Sorts are checked where terms enter: the public `App(...)`, `apply_subst` and
`replace_at` (at the replaced position).  Rebuilds whose sorts are right by
construction use `trusted_app`, which skips the per-argument check.  A term
caches its hash, its size and, once asked for, its `term_key`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

THEORY = "theory"
TERM = "term"


@dataclass(frozen=True)
class Sort:
    name: str
    kind: str  # THEORY or TERM

    def __post_init__(self) -> None:  # the dataclass's hash, computed once
        object.__setattr__(self, "_hash", hash((self.name, self.kind)))

    def __eq__(self, other: Any) -> bool:
        # structural, as the dataclass's own, but identity first
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FunSymbol:
    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    kind: str  # THEORY or TERM
    is_value: bool = False
    value: object = None  # carrier element for value constants

    def __post_init__(self) -> None:
        if self.kind == THEORY:
            for s in self.arg_sorts + (self.result_sort,):
                if s.kind != THEORY:
                    raise SignatureError(
                        f"theory symbol {self.name} uses term sort {s.name}")
        if self.is_value and (self.kind != THEORY or self.arg_sorts):
            raise SignatureError(f"value {self.name} must be a theory constant")
        object.__setattr__(self, "_hash", hash((self.name, self.arg_sorts, self.result_sort,
                                                self.kind, self.is_value, self.value)))

    def __eq__(self, other: Any) -> bool:
        # structural, as the dataclass's own, but identity first
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.arg_sorts == other.arg_sorts
                and self.result_sort == other.result_sort and self.kind == other.kind
                and self.is_value == other.is_value and self.value == other.value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self) -> str:
        return self.name


class SignatureError(Exception):
    pass


_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, eq=False)
class Variable:
    __slots__ = ("name", "sort", "_hash", "size", "_key")
    name: str
    sort: Sort

    def __post_init__(self) -> None:
        _set(self, "_hash", hash(("v", self.name, self.sort.name)))
        _set(self, "size", 1)
        _set(self, "_key", f"{self.name}\t{self.sort.name}")  # see term_key

    def __eq__(self, other: object) -> bool:
        return (
            self is other
            or isinstance(other, Variable)
            and self.name == other.name
            and self.sort == other.sort
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        return Variable, (self.name, self.sort)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False)
class App:
    """fun applied to args.  The constructor checks the arity and every
    argument's sort; `trusted_app` skips those checks.  Both end in
    `__post_init__`, which fills the cached fields (`_key` is term_key, filled
    on first use)."""

    __slots__ = ("fun", "args", "_hash", "size", "_key")
    fun: FunSymbol
    args: tuple["Term", ...]

    def __init__(self, fun: FunSymbol, args: tuple["Term", ...] = ()) -> None:
        if len(args) != fun.arity:
            raise SignatureError(
                f"{fun.name} expects {fun.arity} arguments, got {len(args)}")
        for a, s in zip(args, fun.arg_sorts):
            if sort_of(a) != s:
                raise SignatureError(
                    f"argument {a!r} of {fun.name} has sort {sort_of(a).name}, "
                    f"expected {s.name}")
        _set(self, "fun", fun)
        _set(self, "args", args)
        self.__post_init__()

    def __post_init__(self) -> None:
        fun, args = self.fun, self.args
        size = 1
        for a in args:
            size += a.size
        _set(self, "_hash", hash(("a", fun.name, fun.result_sort.name, args)))
        _set(self, "size", size)
        _set(self, "_key", None)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:  # type: ignore
            return False
        todo = [(self, other)]  # pairs of equal hash, compared without recursion
        for a, b in todo:
            if a.fun is not b.fun and a.fun != b.fun:
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App:
                    if y.__class__ is not App or x._hash != y._hash:  # type: ignore
                        return False
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        return App, (self.fun, self.args)

    def __repr__(self) -> str:
        if not self.args:
            return self.fun.name
        return f"{self.fun.name}({', '.join(map(repr, self.args))})"


def trusted_app(fun: FunSymbol, args: tuple) -> App:
    """App(fun, args) for arguments whose sorts are fun's by construction: an
    internal rebuild, not an entry point."""
    t = _new(App)
    _set(t, "fun", fun)
    _set(t, "args", args)
    t.__post_init__()
    return t


Term = Variable | App

#: A substitution is a finite mapping from variables to same-sorted terms.
Subst = Mapping[Variable, Term]

Position = tuple[int, ...]  # 1-based child indices


def sort_of(t: Term) -> Sort:
    return t.sort if isinstance(t, Variable) else t.fun.result_sort


def term_key(t: Term) -> str:
    """The printed form of t with each variable tagged by a tab and its sort,
    e.g. "(f x\tU c)": a total order on terms used to break ties.  Computed
    once per term, bottom-up without recursion.  Injective on the terms over
    one signature and its model's values, since no name holds a tab and
    `Signature` refuses a name that reads as a value: equal keys, equal terms."""
    key = t._key
    if key is not None:
        return key
    todo: list[App] = [t]  # type: ignore[list-item]
    for u in todo:  # every unkeyed subterm, each after its parent
        todo.extend([a for a in u.args if a._key is None])
    for u in reversed(todo):
        if u._key is None:
            _set(u, "_key", f"({u.fun.name} {' '.join([a._key for a in u.args])})"
                 if u.args else u.fun.name)
    return t._key  # type: ignore[return-value]


def theory_over(t: Term, xs: frozenset[Variable]) -> bool:
    """t is built from theory symbols and variables drawn from xs only."""
    if isinstance(t, Variable):
        return t in xs
    return t.fun.kind == THEORY and all(theory_over(a, xs) for a in t.args)


def is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    return all(is_ground(a) for a in t.args)


def vars_of(t: Term, kind: str | None = None) -> set[Variable]:
    """Variables occurring in t, optionally restricted to theory or term sorts."""
    out: set[Variable] = set()
    stack: list[Term] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Variable):
            if kind is None or u.sort.kind == kind:
                out.add(u)
        else:
            stack.extend(u.args)
    return out


def subterms_of(t: Term) -> Iterator[Term]:
    stack: list[Term] = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(reversed(u.args))


def positions_of(t: Term) -> Iterator[tuple[Position, Term]]:
    """All positions of t with their subterms, in pre-order."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        if isinstance(u, App):
            for i in range(len(u.args), 0, -1):
                stack.append((pos + (i,), u.args[i - 1]))


class InvalidPosition(Exception):
    pass


class SortMismatch(Exception):
    pass


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPosition(f"position {list(pos)} not valid")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, u: Term) -> Term:
    ancestors: list[App] = []
    for depth, i in enumerate(pos):
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPosition(f"position {list(pos[depth:])} not valid")
        ancestors.append(t)
        t = t.args[i - 1]
    if sort_of(u) != sort_of(t):
        raise SortMismatch(
            f"cannot put a {sort_of(u).name} term at a {sort_of(t).name} position")
    for parent, i in zip(reversed(ancestors), reversed(pos)):
        u = trusted_app(parent.fun, parent.args[:i - 1] + (u,) + parent.args[i:])
    return u


def apply_subst(subst: Subst, t: Term) -> Term:
    """Simultaneous application of a substitution."""
    if not subst:
        return t
    if isinstance(t, Variable):
        return subst.get(t, t)
    args = tuple(apply_subst(subst, a) for a in t.args)
    if args == t.args:
        return t
    return App(t.fun, args)


def instantiate(subst: Subst, t: Term) -> Term:
    """apply_subst for a substitution that binds every variable to a term of
    its own sort (a match, or draws made by sort): no sort check."""
    if isinstance(t, Variable):
        return subst.get(t, t)
    args = tuple([instantiate(subst, a) for a in t.args])
    if args == t.args:
        return t
    return trusted_app(t.fun, args)


def match(pattern: Term, subject: Term) -> Optional[dict[Variable, Term]]:
    """Most general substitution with pattern*subst == subject, or None."""
    bind: dict[Variable, Term] = {}
    work = [(pattern, subject)]
    while work:
        p, s = work.pop()
        if isinstance(p, Variable):
            if p.sort != sort_of(s):
                return None
            seen = bind.get(p)
            if seen is None:
                bind[p] = s
            elif seen != s:
                return None
        else:
            if not isinstance(s, App) or p.fun != s.fun:
                return None
            work.extend(zip(p.args, s.args))
    return bind


def _occurs(x: Variable, t: Term, bind: dict[Variable, Term]) -> bool:
    stack: list[Term] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Variable):
            if u == x:
                return True
            if u in bind:
                stack.append(bind[u])
        else:
            stack.extend(u.args)
    return False


def unify(s: Term, t: Term) -> Optional[dict[Variable, Term]]:
    """Most general unifier (idempotent, occurs check enforced), or None."""
    bind: dict[Variable, Term] = {}

    def walk(u: Term) -> Term:
        while isinstance(u, Variable) and u in bind:
            u = bind[u]
        return u

    work = [(s, t)]
    while work:
        a, b = work.pop()
        a, b = walk(a), walk(b)
        if a == b:
            continue
        if isinstance(a, Variable):
            if sort_of(b) != a.sort or _occurs(a, b, bind):
                return None
            bind[a] = b
        elif isinstance(b, Variable):
            if sort_of(a) != b.sort or _occurs(b, a, bind):
                return None
            bind[b] = a
        else:
            if a.fun != b.fun:
                return None
            work.extend(zip(a.args, b.args))
    # resolve chains so the result is idempotent
    out: dict[Variable, Term] = {}
    for x in bind:
        u = x
        while isinstance(u, Variable) and u in bind:
            u = bind[u]
        out[x] = _resolve(u, bind)
    return {x: u for x, u in out.items() if u != x}


def _resolve(t: Term, bind: dict[Variable, Term]) -> Term:
    if isinstance(t, Variable):
        if t in bind:
            return _resolve(bind[t], bind)
        return t
    args = tuple(_resolve(a, bind) for a in t.args)
    return t if args == t.args else App(t.fun, args)


@dataclass(frozen=True, eq=False)
class Hole:
    """Placeholder inside a multi-hole context skeleton."""

    index: int
    sort: Sort

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("h", self.index, self.sort.name)))
        object.__setattr__(self, "size", 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hole)
            and self.index == other.index
            and self.sort == other.sort
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"□{self.index}"


@dataclass(frozen=True)
class Context:
    """Maximal shared multi-hole context of two terms."""

    skeleton: object  # Term with Hole leaves
    holes: int

    def plug(self, fills: list[Term] | tuple[Term, ...]) -> Term:
        if len(fills) != self.holes:
            raise ValueError(f"context has {self.holes} holes, got {len(fills)} fills")

        def go(u):
            if isinstance(u, Hole):
                return fills[u.index]
            if isinstance(u, App):
                return App(u.fun, tuple(go(a) for a in u.args))
            return u

        return go(self.skeleton)


def decompose_differences(s: Term, t: Term) -> tuple[Context, list[tuple[Term, Term]]]:
    """Split s, t into their maximal shared context and the differing pairs.

    Each returned pair differs at its root or has a variable on one side;
    plugging the left (right) components back reproduces s (t) exactly.
    """
    if sort_of(s) != sort_of(t):
        raise SortMismatch("decompose_differences needs same-sorted terms")
    pairs: list[tuple[Term, Term]] = []

    def go(a: Term, b: Term):
        if a == b:
            return a
        if isinstance(a, App) and isinstance(b, App) and a.fun == b.fun:
            # a hole has the sort of the subterm it stands for
            return trusted_app(a.fun, tuple([go(x, y) for x, y in zip(a.args, b.args)]))
        hole = Hole(len(pairs), sort_of(a))
        pairs.append((a, b))
        return hole

    skel = go(s, t)
    return Context(skel, len(pairs)), pairs


def fresh_var(base: str, sort: Sort, avoid: set[Variable]) -> Variable:
    names = {v.name for v in avoid}
    if base not in names:
        return Variable(base, sort)
    i = 0
    while f"{base}{i}" in names:
        i += 1
    return Variable(f"{base}{i}", sort)


def reads_as_value(name: str) -> bool:
    """Whether the reader takes name for a value: an integer literal, true or false."""
    return name in ("true", "false") or name.isascii() and name.removeprefix("-").isdigit()


@dataclass(frozen=True)
class Signature:
    """Declared sorts and function symbols (value constants live in the model)."""

    sorts: tuple[Sort, ...]
    symbols: tuple[FunSymbol, ...]
    _sort_index: dict = field(default_factory=dict, repr=False, compare=False)
    _sym_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, Sort] = {}
        for s in self.sorts:
            if s.name in by_name:
                raise SignatureError(f"duplicate sort {s.name}")
            by_name[s.name] = s
        syms: dict[str, FunSymbol] = {}
        for f in self.symbols:
            if f.name in syms:
                raise SignatureError(f"duplicate symbol {f.name}")
            if reads_as_value(f.name):
                raise SignatureError(f"symbol name {f.name} reads as a value")
            syms[f.name] = f
            for s in f.arg_sorts + (f.result_sort,):
                if by_name.get(s.name) != s:
                    raise SignatureError(f"symbol {f.name} mentions undeclared sort {s.name}")
        self._sort_index.update(by_name)
        self._sym_index.update(syms)

    def sort(self, name: str) -> Sort | None:
        return self._sort_index.get(name)

    def symbol(self, name: str) -> FunSymbol | None:
        return self._sym_index.get(name)

    def term_symbols(self) -> list[FunSymbol]:
        return [f for f in self.symbols if f.kind == TERM]
