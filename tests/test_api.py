"""The package's public surface, pinned so that adding or removing a public
name is a deliberate change to this list, a check that neither the package
nor its tests hold code that nothing in them uses or an import that its
module never reads, and one entry to LAPACK's spectra."""

import ast
import pathlib
import tomllib

import spincorr

from helpers import run_python

PUBLIC_NAMES = [
    "BlochForm",
    "ClosedFormMismatch",
    "InvalidState",
    "IsoDMParams",
    "Lcg",
    "MeasureReport",
    "ModelReport",
    "NoSignChange",
    "NonFiniteParameter",
    "OracleMismatch",
    "OracleResult",
    "SpincorrError",
    "XXZParams",
    "concurrence",
    "critical_coupling_isodm",
    "critical_coupling_xxz",
    "decompose",
    "gmod_oracle",
    "measures_isodm",
    "measures_xxz",
    "min_oracle",
    "ppt_entangled",
    "random_state",
    "report",
    "thermal_isodm",
    "thermal_xxz",
]


def test_public_names_are_pinned():
    assert sorted(spincorr.__all__) == PUBLIC_NAMES
    assert all(hasattr(spincorr, name) for name in PUBLIC_NAMES)


def test_public_names_resolve_lazily_to_their_home_objects(tmp_path):
    script = """if True:
        import importlib, sys
        import spincorr
        # Each submodule is resolved on its own: in this order none of them
        # is imported by one resolved before it.
        for sub in ["errors", "models", "qmat", "rng", "bloch", "measures", "oracle"]:
            assert f"spincorr.{sub}" not in sys.modules, sub
            assert getattr(spincorr, sub) is sys.modules[f"spincorr.{sub}"], sub
        for name in spincorr.__all__:
            home = importlib.import_module(getattr(spincorr, name).__module__)
            assert getattr(spincorr, name) is getattr(home, name), name
        # Nothing is cached: a replaced binding is the one the package gives.
        report = spincorr.measures.report
        spincorr.measures.report = stand_in = lambda rho: rho
        assert spincorr.report is stand_in
        spincorr.measures.report = report
        try:
            spincorr.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'spincorr' has no attribute 'no_such_name'", exc
        else:
            raise AssertionError("no AttributeError")
        star = {}
        exec("from spincorr import *", star)
        del star["__builtins__"]
        assert sorted(star) == spincorr.__all__, sorted(star)
        assert all(star[name] is getattr(spincorr, name) for name in star)
    """
    assert run_python(tmp_path, "-c", script) == (0, "", "")


def test_version_is_read_from_the_package():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {"version": {"attr": "spincorr.__version__"}}
    # setuptools reads a literal without importing the package, so an isolated
    # build needs none of its runtime dependencies.
    init = ast.parse(pathlib.Path(spincorr.__file__).read_text())
    (value,) = [
        node.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["__version__"]
    ]
    assert ast.literal_eval(value) == spincorr.__version__


def _module_level_names(tree):
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                )
    return names


def _referenced_names(tree):
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unread_imports(tree):
    """Names a module binds by a top-level import but never reads."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def _unused_code(directory):
    """'module.name' for each module-level name in the ``*.py`` files of
    ``directory`` that none of them reads, dunder names apart, and
    'module.name (import)' for each top-level import its module never reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(_module_level_names(tree))
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]
    return unused + [
        f"{module}.{name} (import)"
        for module, tree in trees.items()
        for name in sorted(_unread_imports(tree))
    ]


def test_package_holds_no_unused_code():
    # __init__ names the public names as strings, in __all__ and its name table.
    exported = {
        f"{getattr(spincorr, name).__module__.rpartition('.')[2]}.{name}"
        for name in spincorr.__all__
    }
    unused = _unused_code(pathlib.Path(spincorr.__file__).parent)
    assert [entry for entry in unused if entry not in exported] == []


def test_tests_hold_no_unused_code():
    # pytest reads the test_* functions by name.
    unused = _unused_code(pathlib.Path(__file__).parent)
    assert [entry for entry in unused if not entry.split(".")[1].startswith("test_")] == []


# np.linalg's general-matrix eigensolvers, which the package never needs: every
# spectrum it takes is of a Hermitian matrix, or a set of singular values.
_GENERAL_EIGENSOLVERS = {"eig", "eigvals"}


def test_lapack_is_entered_only_through_public_numpy():
    package = pathlib.Path(spincorr.__file__).parent
    entries = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if "_umath_linalg" in parts or (
                    "linalg" in parts[:-1] and parts[-1] in _GENERAL_EIGENSOLVERS
                ):
                    entries.append(f"{path.stem}: {name}")
    assert entries == []
    # The output bit pins were checked on numpy 2.4 only, so that is the floor.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == ["numpy>=2.4"]
