"""The size cap of rule_step_candidates against the one of macro_edges.

An expander hands its size cap to rule_step_candidates, which then makes no
candidate that macro_edges would drop for its size before building anything:
a plain draw whose result is too large, where it draws no term variables or
draws them from a term pool that the expander found calc-normal.  Over every
fixture theory and the seed-77 criterion-11 theories (the cases of
test_side_kernels), terms are expanded at several caps with and without the
keyword, each over the expander's pools from the terms themselves and from
the terms with a calculation redex put into one: macro_edges must give the
same edges in the same order, with the same sizes and step counts, and no
draw the cap leaves out may have its replacement built.
"""

from collections import Counter

from lcer.equations import SearchLimits, built, macro_edges, rule_step_candidates, search_expander
from lcer.terms import App, apply_subst, positions_of, replace_at, sort_of, subterms_of

from tests.test_side_kernels import _cases

# over the expanded term's size, rising: a draw left out at a cap is larger than
# every cap before it, so nothing built it there
CAPS = (-4, -2, -1, 0, 1, 3, 8, None)


def _with_redex(model, t):
    """t with its first value of Int or Bool sort v put as +(v, 0) or and(v, true),
    a calculation redex; None where t holds no such value."""
    for pos, u in positions_of(t):
        if isinstance(u, App) and u.fun.is_value and sort_of(u).name in ("Int", "Bool"):
            name, unit = ("+", 0) if sort_of(u).name == "Int" else ("and", True)
            return replace_at(t, pos, App(model.symbols[name],
                                          (u, model.value_term(sort_of(u), unit))))
    return None


def _instances(theory, terms):
    """The source of each side whose destination needs calculation, with
    its variables bound to a value or to a subterm of terms of their sort."""
    model = theory.model
    by_sort = {sort_of(u): u for t in terms for u in subterms_of(t)}
    for sort in model.sorts.values():
        by_sort[sort] = model.value_term(sort, sort.name == "Bool" or 1)
    for side in theory._sides:
        if not side.plain and all(x.sort in by_sort for x in side.matched):
            yield apply_subst({x: by_sort[x.sort] for x in side.matched}, side.src)


def _edges(model, u, cands, cap, pool_normal):
    return [(c.position, id(c.draw), built(splice), size, n)
            for splice, size, n, c in macro_edges(model, u, cands, cap, pool_normal)]


def test_the_cap_leaves_out_only_candidates_that_macro_edges_drops():
    seen = Counter()
    limits = SearchLimits(cap_per_redex=4)
    for theory, terms in _cases():
        model = theory.model
        subjects = list(dict.fromkeys(model.calc_normalize(t) for t in (
            *terms, *_instances(theory, terms))))
        dirty = [v for v in (_with_redex(model, t) for t in terms) if v is not None]
        for pool_terms in (terms, terms + dirty[:2]) if dirty else (terms,):
            expander = search_expander(theory, limits, terms, pool_terms, None)
            pool_normal = expander.pool_normal
            for u in subjects:
                memo = {}
                for over in CAPS:
                    cap = None if over is None else u.size + over
                    args = (theory, u, expander.value_pool, expander.term_pool,
                            expander.solve_box, expander.cap)
                    capped = rule_step_candidates(*args, draws=memo, size_cap=cap)
                    got = _edges(model, u, capped, cap, pool_normal)
                    kept = {(c.position, id(c.draw)) for c in capped}
                    every = rule_step_candidates(*args, draws=memo)
                    assert [k for k in ((c.position, id(c.draw)) for c in every) if k in kept] \
                        == [(c.position, id(c.draw)) for c in capped], (u, cap)
                    left_out = [c for c in every if (c.position, id(c.draw)) not in kept]
                    assert all(c.draw._replacement is None for c in left_out), (u, cap)
                    assert got == _edges(model, u, every, cap, pool_normal), (u, cap)
                    seen["edges"] += len(got)
                    seen["left out"] += len(left_out)
                    seen["term variables left out"] += sum(
                        c.draw.side.term_extras != () for c in left_out)
                    # edges the keyword must keep, though the draw's size is too large
                    for _, _, _, c in macro_edges(model, u, every, cap, pool_normal):
                        if cap is not None and u.size - c.redex.size + c.draw.size > cap:
                            seen["calculated" if not c.draw.plain else "dirty pool"] += 1
    assert seen["edges"] > 10_000 and seen["left out"] > 10_000
    assert seen["term variables left out"] > 100
    assert seen["calculated"] > 0 and seen["dirty pool"] > 1000, seen
