"""Triviality is decided in one place, validity.close_trivial.  Apart from
it, only the checker's Axiom branch builds an obligation that a constraint
entails an equation, model.implies(phi, model.equality(a, b)), and no module
outside terms splits two terms into their difference pairs, so a near-copy
of the closure cannot come back unseen."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "lcer")


def _called(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _rule_branch(node: ast.AST) -> str | None:
    """The rule of an `if d.rule == "Name":` test, else None."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) \
            and isinstance(node.test.left, ast.Attribute) and node.test.left.attr == "rule" \
            and isinstance(node.test.comparators[0], ast.Constant):
        return node.test.comparators[0].value
    return None


def calls_by_scope(module: str) -> list[tuple[str, tuple[str, ...]]]:
    """(called name, scope) for every call in the module, where the scope is
    the module's file name, the enclosing functions and the rule branches of
    the checker around the call."""
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        name = _called(node)
        if name == "implies" and len(node.args) == 2 and _called(node.args[1]) == "equality":
            found.append(("implies-equality", scope))
        elif name is not None:
            found.append((name, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        rule = _rule_branch(node)
        if rule is not None:
            visit(node.test, scope)
            for child in node.body:
                visit(child, scope + (rule,))
            for child in node.orelse:
                visit(child, scope)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return found


def _all_calls():
    for module in sorted(os.listdir(SRC)):
        if module.endswith(".py"):
            yield from calls_by_scope(module)


def test_only_the_closure_and_the_axiom_check_ask_for_an_entailed_equation():
    scopes = {scope for name, scope in _all_calls() if name == "implies-equality"}
    assert scopes == {("validity.py", "close_trivial", "rec"),
                      ("proofs.py", "_check", "Axiom")}


def test_only_terms_splits_terms_into_difference_pairs():
    callers = {scope[0] for name, scope in _all_calls() if name == "decompose_differences"}
    assert callers <= {"terms.py"}
