"""Every App that a module of the package makes goes through App.__init__ or
terms.trusted_app, and both end in App.__post_init__.  The benchmark's tracer
counts calls of App.__post_init__ as terms.App.new, so an App made any other
way (object.__new__ and a field set by hand) would be left out of the count
that measures term construction."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "lcer")


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _function(tree, qualname):
    node = tree
    for part in qualname.split("."):
        node = next(n for n in node.body if isinstance(
            n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node


def _calls_post_init(fn) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "__post_init__" for n in ast.walk(fn))


def test_apps_are_made_only_by_init_and_trusted_app():
    found = []
    for name, tree in _trees():
        # names bound to object.__new__ at module level, and where each may be used
        aliases = {t.id for n in tree.body if isinstance(n, ast.Assign)
                   and isinstance(n.value, ast.Attribute) and n.value.attr == "__new__"
                   for t in n.targets if isinstance(t, ast.Name)}
        allowed = set()
        if name == "terms.py":
            assert aliases == {"_new"}
            allowed = {id(n) for n in ast.walk(_function(tree, "trusted_app"))}
        elif aliases:
            found.append(f"{name} binds {sorted(aliases)} to __new__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                in_alias = any(isinstance(n, ast.Assign) and n.value is node for n in tree.body)
                if not in_alias:
                    found.append(f"{name}:{node.lineno} uses __new__")
            elif (isinstance(node, ast.Name) and node.id in aliases
                  and isinstance(node.ctx, ast.Load) and id(node) not in allowed):
                found.append(f"{name}:{node.lineno} uses {node.id} outside trusted_app")
    assert found == []


def test_both_ways_end_in_post_init():
    trees = dict(_trees())
    assert _calls_post_init(_function(trees["terms.py"], "App.__init__"))
    assert _calls_post_init(_function(trees["terms.py"], "trusted_app"))
