"""The frontier expander against a reference that builds every rule step in
full, normalizes the whole result with calc_trace and then filters by size.

The expander (the one that equations.search_expander sets up for a search)
prunes by size before building, normalizes only the rewritten spine and
builds an edge's trace steps only when asked; it must give the same edges,
with the same traces once built, in the same order once sorted as the
searches sort them.  It leaves each target unbuilt, as a splice with a
size of its own: once built, the target must have that size and the
term_key spliced from its parent's, and spliced keys must be equal exactly
where the terms are, also against terms that print alike.
"""

import random

import pytest

import lcer.equations as equations
from lcer.equations import (
    RuleCandidate,
    SearchLimits,
    TraceStep,
    built,
    calc_trace,
    conversion_search,
    default_value_pool,
    key_around,
    macro_edges,
    replay_trace,
    rule_step_candidates,
    search_expander,
    term_candidate_pool,
    term_key,
)
from lcer.syntax import parse_term
from lcer.terms import (
    TERM,
    THEORY,
    App,
    FunSymbol,
    Signature,
    Variable,
    apply_subst,
    positions_of,
    replace_at,
    sort_of,
    subterm_at,
    subterms_of,
    vars_of,
)

from tests.conftest import load_theory


def reference_edges(theory, u, cands, size_cap):
    """Per candidate, in order: (cand, target, trace steps), each built in
    full from the equation and normalized whole with calc_trace, without
    the targets equal to u or larger than size_cap."""
    model = theory.model
    edges = []
    for cand in cands:
        eq = theory.equations[cand.eq_index]
        dst = eq.rhs if cand.direction == "lr" else eq.lhs
        replacement = apply_subst(dict(cand.subst), dst)
        raw = replace_at(u, cand.position, replacement)
        step = TraceStep(cand.position, "rule", cand.direction, cand.eq_index,
                         cand.subst, subterm_at(u, cand.position), replacement)
        v, calc_steps = calc_trace(model, raw)
        if v == u or (size_cap is not None and v.size > size_cap):
            continue
        edges.append((cand, v, (step, *calc_steps)))
    return edges


def reference_successors(theory, u, value_pool, term_pool, limits, size_cap):
    cands = rule_step_candidates(
        theory, u, value_pool=value_pool, term_pool=term_pool,
        solve_box=limits.solve_box, cap_per_redex=limits.cap_per_redex)
    edges = [(v, steps) for _, v, steps in reference_edges(theory, u, cands, size_cap)]
    edges.sort(key=lambda e: (len(e[1]), e[0].size, term_key(e[0])))
    return edges


def spliced_key(splice):
    """The term_key of a splice as conversion_search splices it."""
    host, q, w = splice
    before, after = key_around(term_key(host), host, q)
    return before + term_key(w) + after


def expand(theory, u, goal_terms, pool_terms, limits, size_cap, expander=None):
    """The edges of u with their trace steps built, shortest first as the
    searches take them, each checked against the step count that the sort
    and the search use.  The expander is a fresh search's, set up over
    goal_terms (the default value pool) and pool_terms (the term pool),
    unless one is given."""
    expander = expander or search_expander(theory, limits, goal_terms, pool_terms, size_cap)
    edges = []
    for splice, size, n, edge in expander(u):
        v = built(splice)
        steps = edge.steps()
        assert n == len(steps), (v, steps)
        assert (size, spliced_key(splice)) == (v.size, term_key(v)), (v, size)
        edges.append((v, steps))
    edges.sort(key=lambda e: (len(e[1]), e[0].size, term_key(e[0])))
    return edges


def random_term(theory, rng, sort, depth, variables):
    model = theory.model
    symbols = [f for f in theory.signature.symbols if f.result_sort == sort]
    symbols += [f for f in model.symbols.values() if f.result_sort == sort]
    leaves = [v for v in variables if v.sort == sort]
    if sort.kind == THEORY:
        if sort.name == "Int":
            leaves += [model.value_term(sort, rng.randint(-3, 13)) for _ in range(2)]
        else:
            leaves += [model.value_term(sort, rng.random() < 0.5)]
    leaves += [App(f) for f in symbols if not f.arg_sorts]
    inner = [f for f in symbols if f.arg_sorts]
    if depth == 0 or not inner or (leaves and rng.random() < 0.3):
        if leaves:
            return rng.choice(leaves)
        depth = max(depth, 1)
    f = rng.choice(inner)
    return App(f, tuple(random_term(theory, rng, s, depth - 1, variables)
                        for s in f.arg_sorts))


def random_redex_term(theory, rng, variables):
    """An instance of a random equation side, in a random context of up to
    two symbols: a term that some rule step applies to."""
    model = theory.model
    eq = rng.choice(theory.equations)
    side = rng.choice([eq.lhs, eq.rhs])
    sigma = {}
    for x in sorted(vars_of(side), key=lambda v: (v.name, v.sort.name)):
        if x in eq.logical_vars:
            sigma[x] = random_term(theory, rng, x.sort, 0, [])
        else:
            sigma[x] = random_term(theory, rng, x.sort, rng.randint(0, 2), variables)
    t = apply_subst(sigma, side)
    symbols = list(theory.signature.symbols) + list(model.symbols.values())
    for _ in range(rng.randint(0, 2)):
        outer = [f for f in symbols if sort_of(t) in f.arg_sorts]
        if not outer:
            break
        f = rng.choice(outer)
        hole = rng.choice([i for i, s in enumerate(f.arg_sorts) if s == sort_of(t)])
        t = App(f, tuple(t if i == hole else random_term(theory, rng, s, 1, variables)
                         for i, s in enumerate(f.arg_sorts)))
    return model.calc_normalize(t)


def variables_for(theory):
    out = []
    for sort in list(theory.signature.sorts) + list(theory.model.sorts.values()):
        out += [Variable("x", sort), Variable("y", sort)] if sort.kind != THEORY \
            else [Variable("n", sort)]
    return out


def _assert_same(theory, u, value_pool, term_pool, limits, caps):
    for cap in caps:
        got = expand(theory, u, [u], [u], limits, cap)
        want = reference_successors(theory, u, value_pool, term_pool, limits, cap)
        assert got == want, (u, cap)


@pytest.mark.parametrize("name, seed", [
    ("group", 1), ("group", 2), ("lists", 3), ("lists", 4), ("mod12", 5), ("mod12", 6)])
def test_random_calc_normal_terms(request, name, seed):
    theory = request.getfixturevalue(name).theory
    model = theory.model
    rng = random.Random(seed)
    variables = variables_for(theory)
    checked = edges = with_calc = 0
    while checked < 60:
        u = random_redex_term(theory, rng, variables)
        if u.size > 12:
            continue
        limits = SearchLimits(solve_box=rng.choice([None, 4]), cap_per_redex=8)
        value_pool = default_value_pool(theory, [u])
        term_pool = term_candidate_pool([u])
        uncapped = reference_successors(theory, u, value_pool, term_pool, limits, None)
        sizes = sorted({v.size for v, _ in uncapped})
        # caps exactly at a result's size, just below it, and none at all
        caps = [None, u.size] + sizes[:3] + [s - 1 for s in sizes[-2:]]
        _assert_same(theory, u, value_pool, term_pool, limits, caps)
        _assert_splices(theory, u, limits)
        edges += len(uncapped)
        with_calc += sum(len(steps) > 1 for _, steps in uncapped)
        checked += 1
    # the sample reaches rule steps, and calculation after them where the
    # theory has an equation side with a theory operator
    assert edges > 60
    assert with_calc > 0 or name == "mod12"


def look_alike(leaf):
    """A different leaf that prints as leaf does: a variable for a constant
    (a value too), a constant for a variable."""
    if isinstance(leaf, Variable):
        return App(FunSymbol(leaf.name, (), leaf.sort, leaf.sort.kind))
    return Variable(leaf.fun.name, leaf.fun.result_sort)


def _swap_a_leaf(t, rng, outside=None):
    """t with one leaf (not under position outside) swapped for a look-alike,
    or None if t has no such leaf."""
    leaves = [p for p, sub in positions_of(t) if sub.size == 1
              and (outside is None or p[:len(outside)] != outside)]
    if not leaves:
        return None
    p = rng.choice(leaves)
    return replace_at(t, p, look_alike(subterm_at(t, p)))


def _assert_splices(theory, u, limits):
    """Every edge's spliced key against the other edges' and against the
    keys of splices of look-alike twins: the target, the subterm put in, or
    u off the spine with one leaf swapped for one that prints alike.  The
    leaves are drawn from a stream of u's own, so that the caller's stream of
    terms is the one it was before these checks."""
    rng = random.Random(term_key(u))
    expander = search_expander(theory, limits, [u], [u], None)
    edges = [(splice, spliced_key(splice), built(splice)) for splice, _, _, _ in expander(u)][:30]
    for splice, key, v in edges:
        host, q, w = splice
        twins = [(t, (), t) for t in [_swap_a_leaf(v, rng)]]
        twins += [(host, q, t) for t in [_swap_a_leaf(w, rng)]]
        twins += [(t, q, w) for t in [_swap_a_leaf(host, rng, q)] if t is not None]
        for twin in twins:
            assert built(twin) != v and spliced_key(twin) == term_key(built(twin)) != key
    for a, key_a, v in edges:
        for b, key_b, w in edges:
            assert (key_a == key_b) == (v == w), (a, b)


def test_terms_that_print_alike_do_not_meet():
    # a term constant named x prints as the variable x: g(cx) rewrites to
    # f(cx), which prints as the other side, f(x), and f(x) rewrites to g(x),
    # which prints as g(cx); neither is a meet, and nothing else is reachable
    from lcer.equations import CETheory
    from lcer.syntax import parse_theory
    from lcer.terms import SignatureError

    parsed = parse_theory("""(theory (model lia) (fun f (Int) Int) (fun g (Int) Int)
      (eq (pi) (constraint true) (f x) (g x)))""").theory
    model, sig = parsed.model, parsed.signature
    Int = sig.sort("Int")
    # a term constant named 3 would print as the value 3: no signature holds one
    with pytest.raises(SignatureError, match=r"^symbol name 3 reads as a value$"):
        Signature(sig.sorts, sig.symbols + (FunSymbol("3", (), Int, TERM),))
    cx = App(FunSymbol("x", (), Int, TERM))
    theory = CETheory(Signature(sig.sorts, sig.symbols + (cx.fun,)), model, parsed.equations)
    f, g = sig.symbol("f"), sig.symbol("g")
    x = Variable("x", Int)
    limits = SearchLimits(bound=4)
    assert conversion_search(theory, App(g, (cx,)), App(f, (x,)), limits) is None
    assert conversion_search(theory, App(f, (cx,)), App(g, (x,)), limits) is None
    for s, t in ((App(g, (cx,)), App(f, (cx,))), (App(f, (x,)), App(g, (x,)))):
        trace = conversion_search(theory, s, t, limits)
        assert trace is not None and len(trace) == 1
        assert replay_trace(theory, s, trace) == t
    assert term_key(App(f, (cx,))) == "(f x)" != term_key(App(f, (x,))) == "(f x\tInt)"


def test_term_pool_keeps_a_variable_and_a_constant_of_one_name(group):
    theory = group.theory
    G = theory.signature.sort("G")
    x, cx = Variable("x", G), App(FunSymbol("x", (), G, TERM))
    op = theory.signature.symbol("op")
    assert term_candidate_pool([App(op, (x, cx))])[G] == (cx, x, App(op, (x, cx)))


def test_value_under_a_theory_operator_is_contracted(lists):
    # length(nil) -> 0 puts a value under +, which then calculates to 1
    theory = lists.theory
    u = parse_term(theory, "+(length(nil), 1)")
    assert theory.model.calc_normalize(u) == u
    value_pool = default_value_pool(theory, [u])
    term_pool = term_candidate_pool([u])
    limits = SearchLimits()
    edges = expand(theory, u, [u], [u], limits, u.size)
    assert edges == reference_successors(theory, u, value_pool, term_pool, limits, u.size)
    one = parse_term(theory, "1")
    hit = [steps for v, steps in edges if v == one]
    assert len(hit) == 1
    rule, calc = hit[0]
    assert (rule.kind, rule.position, rule.result) == ("rule", (1,), parse_term(theory, "0"))
    assert (calc.kind, calc.position, calc.replaced) == ("calc", (), parse_term(theory, "+(0, 1)"))
    assert replay_trace(theory, u, hit[0]) == one


def test_value_in_a_deep_context(lists):
    # the contraction climbs every ancestor that becomes a redex, and no further
    theory = lists.theory
    u = parse_term(theory, "nth(cons(x, nil), *(+(length(nil), 2), length(xs)))",
                   {"x": theory.signature.sort("Elem"), "xs": theory.signature.sort("List")})
    value_pool = default_value_pool(theory, [u])
    term_pool = term_candidate_pool([u])
    limits = SearchLimits(cap_per_redex=4)
    edges = expand(theory, u, [u], [u], limits, None)
    assert edges == reference_successors(theory, u, value_pool, term_pool, limits, None)
    two = [steps for v, steps in edges
           if v == parse_term(theory, "nth(cons(x, nil), *(2, length(xs)))",
                              {"x": theory.signature.sort("Elem"),
                               "xs": theory.signature.sort("List")})]
    assert [(st.kind, st.position) for st in two[0]] == [("rule", (2, 1, 1)), ("calc", (2, 1))]


def test_results_exactly_at_the_size_cap(group):
    theory = group.theory
    u = parse_term(theory, "op(e, op(x, inv(x)))", {"x": theory.signature.sort("G")})
    value_pool = default_value_pool(theory, [u])
    term_pool = term_candidate_pool([u])
    limits = SearchLimits()
    uncapped = reference_successors(theory, u, value_pool, term_pool, limits, None)
    sizes = sorted({v.size for v, _ in uncapped})
    assert len(sizes) > 2
    for cap in sizes:
        got = expand(theory, u, [u], [u], limits, cap)
        assert got == reference_successors(theory, u, value_pool, term_pool, limits, cap)
        assert any(v.size == cap for v, _ in got)
        assert all(v.size <= cap for v, _ in got)


def test_non_calc_normal_seed_in_the_term_pool(group):
    # e -> op(inv(t), t) draws t from the pool; a seed with a redex must be
    # normalized inside the result
    theory = group.theory
    G = theory.signature.sort("G")
    u = parse_term(theory, "e")
    seed = parse_term(theory, "exp(y, +(1, 1))", {"y": G})
    term_pool = term_candidate_pool([u], [seed])
    value_pool = default_value_pool(theory, [u])
    limits = SearchLimits()
    assert not search_expander(theory, limits, [u], [u, seed], None).pool_normal
    assert search_expander(theory, limits, [u], [u], None).pool_normal
    for cap in (None, 7, 8, 9):
        got = expand(theory, u, [u], [u, seed], limits, cap)
        assert got == reference_successors(theory, u, value_pool, term_pool, limits, cap)
    got = expand(theory, u, [u], [u, seed], limits, 8)
    target = parse_term(theory, "op(inv(exp(y, 2)), exp(y, 2))", {"y": G})
    steps = dict(got)[target]
    assert [st.kind for st in steps] == ["rule", "calc", "calc"]
    assert [st.position for st in steps[1:]] == [(1, 1, 2), (2, 2)]



def test_search_scoped_draws_match_the_reference(group, monkeypatch):
    # one memo of rule steps by redex, filled by earlier expansions, serves
    # later ones: inv(x) and x recur in the first term; op(exp(x, 2), exp(x,
    # 3)) recurs in the second, and its rule step to exp(x, +(3, 2)) is not
    # plain, so its calculation normal form is shared; G draws terms from the
    # term pool (e -> op(inv(t), t))
    theory = group.theory
    env = {"x": theory.signature.sort("G")}
    starts = [parse_term(theory, text, env) for text in (
        "op(inv(x), op(inv(x), x))",
        "op(op(exp(x, 2), exp(x, 3)), op(exp(x, 2), exp(x, 3)))")]
    value_pool = default_value_pool(theory, starts)
    term_pool = term_candidate_pool(starts)
    limits = SearchLimits(cap_per_redex=3)
    memos = []

    def recording(*args, **kwargs):
        memos.append(kwargs["draws"])
        return rule_step_candidates(*args, **kwargs)

    monkeypatch.setattr(equations, "rule_step_candidates", recording)
    expanders = {}  # one search per size cap, each with its own memo
    checked = 0
    for start in starts:
        frontier = [start]
        for _ in range(2):
            nxt = []
            for u in frontier[:6]:
                for cap in (None, u.size + 2):
                    if cap not in expanders:
                        expanders[cap] = search_expander(theory, limits, starts, starts, cap)
                    got = expand(theory, u, starts, starts, limits, cap, expanders[cap])
                    assert got == reference_successors(
                        theory, u, value_pool, term_pool, limits, cap), (u, cap)
                    checked += 1
                nxt += [v for v, _ in got]
            frontier = nxt
    assert checked > 20
    assert len({id(m) for m in memos}) == len(expanders)
    draws = memos[0]  # the uncapped search's, which every start expanded into
    assert any(len(d) > 1 for d in draws.values())

    # candidates at two positions of one redex share its draws, and each
    # edge's steps carry its own positions
    nonplain = 0
    for start, first, second in ((starts[0], (1,), (2, 1)), (starts[1], (1,), (2,))):
        cands = rule_step_candidates(theory, start, value_pool, term_pool,
                                     limits.solve_box, limits.cap_per_redex, draws=draws)
        edges = {(edge.position, id(edge.draw)): (built(splice), edge.steps())
                 for splice, _, _, edge in macro_edges(theory.model, start, cands, None, True)}
        shared = [id(a.draw) for a in cands if a.position == first
                  and any(b.draw is a.draw for b in cands if b.position == second)]
        assert shared
        for key in shared:
            v1, steps1 = edges[first, key]
            v2, steps2 = edges[second, key]
            assert replay_trace(theory, start, steps1) == v1
            assert replay_trace(theory, start, steps2) == v2
            assert steps1[0].position == first and steps2[0].position == second
            assert [st.position[:len(first)] for st in steps1[1:]] == [first] * (len(steps1) - 1)
            assert [st.position[:len(second)] for st in steps2[1:]] == [second] * (len(steps2) - 1)
            nonplain += len(steps1) > 1
    assert nonplain > 0


def test_search_builds_rule_steps_only_for_its_trace(monkeypatch):
    # expinv's search makes tens of thousands of candidates; only the rule
    # steps of the trace it returns become TraceSteps (a theory of its own,
    # so that no earlier search's outcome is kept in its memo)
    group = load_theory("group.th")
    theory = group.theory
    goal = group.goals["expinv"]
    built = []
    as_step = RuleCandidate.as_step

    def counting_as_step(self):
        built.append(self)
        return as_step(self)

    candidates = []

    def counting_candidates(*args, **kwargs):
        out = rule_step_candidates(*args, **kwargs)
        candidates.extend(out)
        return out

    monkeypatch.setattr(RuleCandidate, "as_step", counting_as_step)
    monkeypatch.setattr(equations, "rule_step_candidates", counting_candidates)
    trace = conversion_search(theory, goal.lhs, goal.rhs, SearchLimits(bound=12))
    assert trace is not None
    assert replay_trace(theory, goal.lhs, trace) == goal.rhs
    rules = [st for st in trace if st.kind == "rule"]
    assert rules
    assert len(built) == len(rules)
    assert len(candidates) > 1000 * len(rules)


# -- the edge data each draw caches (Draw.plain, Draw.back) ---------------------

def pool_is_normal(model, term_pool):
    return not any(model.is_calc_redex(v) for terms in term_pool.values()
                   for t in terms for v in subterms_of(t))


def checked_edges(theory, u, cands, size_cap, pool_normal):
    """macro_edges of u against reference_edges, candidate by candidate, with
    each target built and its size, step count and spliced key checked."""
    got = []
    for splice, size, n, edge in macro_edges(theory.model, u, cands, size_cap, pool_normal):
        v = built(splice)
        steps = edge.steps()
        assert (size, n, spliced_key(splice)) == (v.size, len(steps), term_key(v)), (u, v)
        got.append((edge, v, steps))
    want = reference_edges(theory, u, cands, size_cap)
    assert [(id(c), v, steps) for c, v, steps in got] == \
        [(id(c), v, steps) for c, v, steps in want], (u, size_cap)
    return got


# per theory, a term-pool seed with a calculation redex: in group.th the step
# e -> op(inv(t), t) and in refute_bool.th true -> g(t) draw t from the pool
# (the cached data must not say "no calculation" for them then); elsewhere
# the redex is of a sort no step draws from
SEEDED = {"group.th": ("exp(y, +(1, 1))", {"y": "G"}),
          "refute_bool.th": ("and(true, false)", {})}


@pytest.mark.parametrize("name, seed", [
    ("group.th", 11), ("lists.th", 12), ("mod12.th", 13), ("absmax.th", 14),
    ("absmax.th", 15), ("refute_bool.th", 16)])
def test_macro_edges_match_a_per_candidate_reference(name, seed):
    # one memo of draws serves every term, cap and pool of the test, and the
    # tightest cap comes first: a draw is classified where the cap drops it,
    # and its cached data is then read under looser caps and other pools
    theory = load_theory(name).theory
    model = theory.model
    rng = random.Random(seed)
    variables = variables_for(theory)
    text, env = SEEDED.get(name, ("+(1, 1)", {}))
    seeds = [parse_term(theory, text, {x: theory.signature.sort(s) for x, s in env.items()})]
    limits = SearchLimits(solve_box=4, cap_per_redex=6)
    memos = {}
    seen = {"dropped unbuilt": 0, "back": 0, "value": 0, "pool calc": 0, "edges": 0}
    checked = 0
    while checked < 40:
        u = random_redex_term(theory, rng, variables)
        if u.size > 12:
            continue
        checked += 1
        value_pool = default_value_pool(theory, [u])
        for pool_seeds in ([], seeds):
            term_pool = term_candidate_pool([u], pool_seeds)
            pool_normal = pool_is_normal(model, term_pool)
            assert pool_normal == (not pool_seeds)
            draws = memos.setdefault(tuple(term_pool.get(s, ()) for s in theory.term_extra_sorts), {})
            cands = rule_step_candidates(theory, u, value_pool, term_pool, limits.solve_box,
                                         limits.cap_per_redex, draws=draws)
            sizes = sorted({v.size for _, v, _ in reference_edges(theory, u, cands, None)})
            for cap in [u.size - 2, u.size - 1, u.size, *sizes[:2], None]:
                edges = checked_edges(theory, u, cands, cap, pool_normal)
                yielded = {id(c) for c, _, _ in edges}
                for c in cands:
                    d = c.draw
                    seen["dropped unbuilt"] += cap is not None and \
                        u.size - c.redex.size + d.size > cap and d._replacement is None
                    seen["back"] += d.back is True
                    seen["value"] += d.side.plain and d.plain is False
                    seen["pool calc"] += (d.plain and d.side.term_extras != () and not pool_normal
                                          and len(c.calc) > 0 and id(c) in yielded)
                seen["edges"] += len(edges)
    # what the cached data stands for is reached: draws the cap drops unbuilt;
    # on mod12.th, cong(x) -> cong(y) with y = x, which returns to the redex;
    # on absmax.th, max(x, y) -> x and abs(x) -> x with x a value, whose
    # target calculates further; a step that draws a term with a redex
    assert seen["edges"] > 100 and seen["dropped unbuilt"] > 0
    assert (seen["back"] > 0) == (name == "mod12.th")
    assert (seen["value"] > 0) == (name == "absmax.th")
    assert (seen["pool calc"] > 0) == (name in ("group.th", "refute_bool.th"))


def test_no_draw_the_size_cap_drops_is_built(monkeypatch):
    # expinv's search: a draw whose edges need no calculation and whose
    # every candidate the size cap drops keeps its replacement unbuilt (a
    # draw that needs calculation is built to learn its size)
    group = load_theory("group.th")
    theory, goal = group.theory, group.goals["expinv"]
    seen = []  # (draw, dropped by the cap) for each candidate macro_edges reads
    edges = equations.macro_edges

    def recording(model, u, cands, size_cap, pool_normal):
        assert pool_normal
        cands = list(cands)
        out = list(edges(model, u, cands, size_cap, pool_normal))
        yielded = {id(e[3]) for e in out}
        for c in cands:
            d = c.draw
            dropped = d.plain and u.size - c.redex.size + d.size > size_cap
            assert not (dropped and id(c) in yielded)
            seen.append((c.draw, dropped))
        return iter(out)

    monkeypatch.setattr(equations, "macro_edges", recording)
    assert conversion_search(theory, goal.lhs, goal.rhs, SearchLimits(bound=12)) is not None
    kept = {id(d) for d, dropped in seen if not dropped}
    dropped = {id(d): d for d, dropped in seen if dropped and id(d) not in kept}
    assert len(dropped) > 100
    assert all(d._replacement is None for d in dropped.values())
    assert any(d._replacement is not None for d, _ in seen)


def test_expanders_sharing_a_memo_read_their_own_term_pool(monkeypatch):
    # two expanders whose term pools agree on G, the sort that e -> op(inv(t),
    # t) draws from, share one memo of draws; one pool also holds the Int
    # redex +(1, 1), so that expander is told its pool is not calc-normal and
    # normalizes the rule steps that draw from the pool, whichever expander
    # classified the draw first
    group = load_theory("group.th")
    theory = group.theory
    G = theory.signature.sort("G")
    starts = [parse_term(theory, text, {"x": G}) for text in (
        "op(e, x)", "op(inv(x), op(e, x))", "exp(op(x, e), 2)")]
    redex = parse_term(theory, "+(1, 1)")
    limits = SearchLimits(cap_per_redex=4)
    spines = []
    spine = equations._normalize_spine
    monkeypatch.setattr(equations, "_normalize_spine",
                        lambda *args: spines.append(args[2]) or spine(*args))
    for order in ((0, 1), (1, 0)):
        memos = {}
        expanders = [search_expander(theory, limits, starts, starts, None, None, memos),
                     search_expander(theory, limits, starts, [*starts, redex], None, None, memos)]
        assert expanders[0].draws is expanders[1].draws and len(memos) == 1
        assert [x.pool_normal for x in expanders] == [True, False]
        slow = [0, 0]
        for u in starts:
            for i in order:
                spines.clear()
                got = expand(theory, u, starts, starts, limits, None, expanders[i])
                term_pool = term_candidate_pool(starts if i == 0 else [*starts, redex])
                assert got == reference_successors(theory, u, default_value_pool(theory, starts),
                                                   term_pool, limits, None), (u, i)
                slow[i] += sum(c.draw.side.term_extras != () for c in spines)
        assert slow[0] == 0 < slow[1]
