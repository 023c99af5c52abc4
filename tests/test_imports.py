"""Every module of the package uses each name it imports, imports no
underscore name of another module, and passes the jammer inside the config;
the CLI imports nothing from the trial engine, and the oracle states no
map of t ~ Exp(1) of its own.

A name moved out of a module tends to leave its import behind; a private
name another module reads is part of its owner's API under a name that
says otherwise. The jammer is a field of SystemConfig, so only channel.py's
per-kind sequence draws take a bare JammerSpec. The CLI parses, prints and
writes, and sweep.py turns a config and its schemes into rows. The random
kinds' overlap law is stated once, as channel.overlap_sq_law, which the
trial engine draws through and the oracle integrates through. These checks
read the source with ast alone. __init__.py is exempt from the first, since
its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jamsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that source binds by an import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.f(e)\n"
    assert _unused_imports(source) == ["os", "c"]


def _private_imports(source: str) -> list[str]:
    """The underscore names that source imports from another module, in import order."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_imports_are_found():
    source = "import _thread\nfrom .a import b, _c\nfrom d import _e as f\n"
    assert _private_imports(source) == ["_c", "_e"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def _jammer_parameters(source: str) -> list[str]:
    """function.parameter for every parameter that source annotates JammerSpec, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None and \
                        "JammerSpec" in ast.unparse(arg.annotation):
                    found.append(f"{node.name}.{arg.arg}")
    return found


def test_jammer_parameters_are_found():
    source = ("def f(cfg, jammer: JammerSpec): pass\n"
              "def g(rng, *, spec: 'JammerSpec | None' = None): pass\n"
              "class C:\n    def h(self, j: config.JammerSpec, n: int): pass\n"
              "def k(jammer, tau: int) -> JammerSpec: pass\n")
    assert _jammer_parameters(source) == ["f.jammer", "g.spec", "h.j"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "channel.py"],
                         ids=lambda p: p.name)
def test_only_the_sequence_draws_take_a_bare_jammer(path):
    assert _jammer_parameters(path.read_text(encoding="utf-8")) == []


def _names_from(source: str, module: str) -> list[str]:
    """The names that source imports from module, or module itself, in import order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                found += [alias.name for alias in node.names]
            else:
                found += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[-1] == module]
    return found


def test_names_from_a_module_are_found():
    source = ("from .montecarlo import a, b as c\nfrom jamsim.montecarlo import d\n"
              "from . import montecarlo, sweep\nimport jamsim.montecarlo\n"
              "from .sweep import montecarlo_like\nimport montecarlos\n")
    assert _names_from(source, "montecarlo") == ["a", "b", "d", "montecarlo",
                                                 "jamsim.montecarlo"]


def test_cli_imports_nothing_from_the_trial_engine():
    assert _names_from((PACKAGE / "cli.py").read_text(encoding="utf-8"), "montecarlo") == []


def _references(source: str, names: set[str]) -> list[str]:
    """Each bare name or attribute in source spelled as one of names, calls included, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names or \
                isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [text for *_, text in sorted(found)]


def test_references_are_found():
    source = ("import math\nfrom numpy import log1p\nx = math.expm1(1.0)\n"
              "y = [log1p(v) for v in np.expm1(z)]\nf = math.expm1\n"
              "w = expm1_like(2)\n'expm1'\n")
    assert _references(source, {"expm1", "log1p"}) == ["math.expm1", "log1p", "np.expm1",
                                                        "math.expm1"]


def test_the_oracle_integrates_through_the_one_overlap_law():
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert _references(source, {"expm1", "log1p"}) == []
