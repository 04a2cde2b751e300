import ast
import pathlib

from rwde import verify


def test_verify_uses_only_public_names():
    # the suites work through the public layer API: no underscore name is
    # imported from another rwde module, and no module._name is read
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "rwde"):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    private.append(alias.name)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name for a in node.names if a.name.split(".")[0] == "rwde")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []
