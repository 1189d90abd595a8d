"""No module of the package imports an underscored name from another one:
a helper that two modules need belongs, public, to the module it is about."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "lcer")


def private_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "lcer":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{os.path.basename(path)}:{node.lineno} imports "
                             f"{alias.name} from {'.' * node.level}{node.module or ''}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            found.extend(private_imports(os.path.join(SRC, name)))
    assert found == []
