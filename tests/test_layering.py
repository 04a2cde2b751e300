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


# analyze and kappa0 runs, on B7 (L = 16, R = 5) and a weight of 1e-300 among others
_B7 = "-16:0.014925373134328358,2:0.22388059701492538,5:0.07462686567164178"
_PURE_RUNS = (["analyze", "--alphas=-1:1,1:2"],
              ["kappa0", "--alphas=-6:1,2:1,3:1", "--max-diameter", "12"],
              ["analyze", f"--alphas={_B7}"], ["kappa0", f"--alphas={_B7}", "--max-diameter", "40"],
              ["analyze", "--alphas=-1:1e-300,1:1"])


def test_cli_import_loads_no_scipy():
    # what every rwde command imports leaves scipy out of the process, and
    # the pure-Python commands analyze and kappa0 leave numpy out as well
    code = ("import contextlib, io, sys, warnings, rwde.cli\n"
            "warnings.simplefilter('ignore')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [rwde.cli.main(argv) for argv in {_PURE_RUNS!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    src = pathlib.Path(verify.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == f"{[0] * len(_PURE_RUNS)} []"


def test_lazy_exports_resolve_on_every_access(monkeypatch):
    # the names of the numpy layers are read from their defining modules on
    # each access, never bound in the package: a wrapper patched into the
    # defining module, as the benchmark's tracer does, is what
    # rwde.<name> and `from rwde import <name>` return
    import rwde
    import rwde.walk

    real = rwde.walk.estimate_velocity

    def wrapper(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(rwde.walk, "estimate_velocity", wrapper)
    from rwde import estimate_velocity

    assert rwde.estimate_velocity is wrapper and estimate_velocity is wrapper
    monkeypatch.undo()
    assert rwde.estimate_velocity is real and "estimate_velocity" not in vars(rwde)


def test_every_lazy_export_resolves():
    # every exported name of a numpy layer is its defining module's object,
    # as an attribute, by a from-import and in dir()
    import importlib

    import rwde

    for module, names in rwde._LAZY.items():
        home = importlib.import_module(f"rwde.{module}")
        assert getattr(rwde, module) is home
        for name in names:
            assert getattr(rwde, name) is getattr(home, name), name
            assert name in dir(rwde)
            assert name not in vars(rwde)
            scope = {}
            exec(f"from rwde import {name} as got", scope)
            assert scope["got"] is getattr(home, name)


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
    # is not a use; the names that the package resolves on first use
    # (rwde._LAZY) are exports as much as its from-imports
    src = pathlib.Path(verify.__file__).parent
    root = src.parent.parent
    public, used = set(), set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                public.update(a.asname or a.name for a in node.names)
            elif (isinstance(node, ast.Assign) and path.name == "__init__.py"
                  and [getattr(t, "id", None) for t in node.targets] == ["_LAZY"]):
                # the names the package resolves lazily, by module
                public.update(n for names in ast.literal_eval(node.value).values() for n in names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
        if path.name != "__init__.py":
            used.update(_references(tree))
    for path in [*root.glob("bench/*.py"), root / "tests/test_acceptance.py"]:
        used.update(_references(ast.parse(path.read_text())))
    assert sorted(public - used) == []
