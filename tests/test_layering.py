import ast
import os
import pathlib
import subprocess
import sys

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


def test_rwde_imports_no_scipy():
    # every exact system is a subtraction-free elimination in numpy: no
    # module of rwde imports scipy, directly or by a from-import
    src = pathlib.Path(verify.__file__).parent
    uses = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                uses += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                uses.append((path.stem, node.module))
    assert uses == []


def test_cli_import_loads_no_scipy():
    # what every rwde command imports leaves scipy out of the process
    code = "import sys, rwde.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = pathlib.Path(verify.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_standard_gamma_only_in_gamma_rows():
    # one environment sampler: in rwde, every gamma variate is drawn inside
    # environment._gamma_rows, so every batch shares its redraw and clamp
    src = pathlib.Path(verify.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)  # the outermost function
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "standard_gamma":
                calls.append((path.stem, owner.get(node)))
    assert calls and set(calls) == {("environment", "_gamma_rows")}


def _references(node, inside=frozenset()):
    """The names read in node's tree (as names, attributes or imports), each
    outside the function or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom):
        names = [a.name for a in node.names]
    else:
        names = []
    yield from (name for name in names if name not in inside)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_export_is_used():
    # a public name, exported or defined at module level in rwde, stays only
    # if the system reaches it: an rwde module (outside the name's own body),
    # a bench job or an acceptance test refers to it; a mention in the README
    # is not a use
    src = pathlib.Path(verify.__file__).parent
    root = src.parent.parent
    public, used = set(), set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                public.update(a.asname or a.name for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
        if path.name != "__init__.py":
            used.update(_references(tree))
    for path in [*root.glob("bench/*.py"), root / "tests/test_acceptance.py"]:
        used.update(_references(ast.parse(path.read_text())))
    assert sorted(public - used) == []
