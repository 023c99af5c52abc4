"""Every module of the package uses each name it imports, imports no
underscore name of another module, loads no process-pool machinery at import
time, and passes the jammer inside the config; the CLI imports nothing from
the trial engine, the oracle states no map of t ~ Exp(1) of its own, only
the trial engine's round one draws a stratified overlap, only one
function states which stratum a trial lies in, and the achievable rate has
one path: only rates.effective_sinr reads the SINR's terms, only
rates.rates_at takes the rate's logarithm, and a trial draws without rating.

A name moved out of a module tends to leave its import behind; a private
name another module reads is part of its owner's API under a name that
says otherwise. concurrent.futures and multiprocessing may be imported only
in a function body: only a pooled run uses them, and loading them at import
time costs every serial run and every CLI call about 25 ms. The jammer is a
field of SystemConfig, so only channel.py's per-kind sequence draws take a
bare JammerSpec. The CLI parses, prints and writes, and sweep.py turns a
config and its schemes into rows. The random kinds' overlap law is stated
once, as channel.overlap_sq_law, which the trial engine draws through and
the oracle integrates through. Only round one is stratified: alg1's later
rounds must stay independent of it. The rule "trial i lies in stratum
i mod STRATA" is montecarlo.trial_strata's alone: the draw and the row's
labels both call it, and the row estimator reads its strata from the labels
it is given, never from STRATA, so a change of the rule cannot leave the
draw and the estimate on different strata. Two copies of the rate formula, one
for the trials and one for the oracles, can drift apart where no test
looks; with one path, run_trials rates a row through the formula the
oracles integrate. These checks read the source with ast
alone. __init__.py is exempt from the first, since its imports are the
package's public names.
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


def _module_level_imports(source: str) -> list[str]:
    """The modules that source imports outside every function body, in source order."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_imports_are_found():
    source = ("import os, multiprocessing.pool as mp\nfrom concurrent.futures import a\n"
              "from . import b\nif x:\n    import socket\nclass C:\n    import csv\n"
              "def f():\n    import concurrent.futures\n"
              "async def g():\n    from multiprocessing import Pool\n")
    assert _module_level_imports(source) == ["os", "multiprocessing.pool", "concurrent.futures",
                                             ".", "socket", "csv"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_loads_the_pool_machinery_on_import(path):
    found = [name for name in _module_level_imports(path.read_text(encoding="utf-8"))
             if name.split(".")[0] in ("concurrent", "multiprocessing")]
    assert found == []


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


def _stratified_draws(source: str) -> list[str]:
    """The functions of source that pass draw_overlap_amplitude a stratum, once per call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == \
                "draw_overlap_amplitude" and \
                (len(node.args) > 4 or any(kw.arg in ("stratum", None) for kw in node.keywords)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_stratified_draws_are_found():
    source = ("def f(rng):\n    draw_overlap_amplitude(rng, j, k, tau)\n"
              "    return channel.draw_overlap_amplitude(rng, j, k, tau, (0, 5))\n"
              "def g(rng, **kw):\n    draw_overlap_amplitude(rng, j, k, tau, stratum=s)\n"
              "    draw_overlap_amplitude(rng, j, k, tau, **kw)\n"
              "x = draw_overlap_amplitude(rng, j, 0, 4, s)\n")
    assert _stratified_draws(source) == ["f", "g", "g", "<module>"]


def test_only_the_trial_engine_stratifies_round_one():
    found = [f"{path.stem}.{function}" for path in MODULES
             for function in _stratified_draws(path.read_text(encoding="utf-8"))]
    assert found == ["montecarlo.simulate_one_trial"]


def _stratum_rule(source: str) -> list[str]:
    """The functions of source that compute with STRATA by % or as a slice step, once per use."""
    def names_strata(node):
        return node is not None and any(
            isinstance(n, ast.Name) and n.id == "STRATA" or
            isinstance(n, ast.Attribute) and n.attr == "STRATA" for n in ast.walk(node))

    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and \
                (names_strata(node.left) or names_strata(node.right)) or \
                isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod) and \
                names_strata(node.value) or \
                isinstance(node, ast.Slice) and names_strata(node.step):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_stratum_rule_uses_are_found():
    source = ("def f(i):\n    return i % STRATA, (i + 1) % mc.STRATA, i % 5\n"
              "def g(y, h):\n    i %= STRATA\n    return y[h::STRATA], y[:STRATA], STRATA * 2\n"
              "x = STRATA % 3\n")
    assert _stratum_rule(source) == ["f", "f", "g", "g", "<module>"]


def test_one_function_owns_the_stratum_rule():
    found = [f"{path.stem}.{function}" for path in sorted(PACKAGE.glob("*.py"))
             for function in _stratum_rule(path.read_text(encoding="utf-8"))]
    assert found == ["montecarlo.trial_strata"]


def test_the_row_estimator_reads_its_strata_from_the_labels():
    tree = ast.parse((PACKAGE / "montecarlo.py").read_text(encoding="utf-8"))
    [estimator] = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "control_variate_mean"]
    assert _references(ast.unparse(estimator), {"STRATA"}) == []


def _functions_using(source: str, names: set[str]) -> list[str]:
    """The function around each bare name or attribute in source spelled as one of names."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in names or \
                isinstance(node, ast.Name) and node.id in names:
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_functions_using_a_name_are_found():
    source = ("import math\nfrom numpy import log2\n"
              "def f(x):\n    return math.log2(x) + log2(x)\n"
              "def g(cfg):\n    a, b, c = cfg.sinr_terms\n    return list(map(math.log2, a))\n"
              "class C:\n    def h(self):\n        return self.sinr_terms\n"
              "    def sinr_terms(self): pass\n"
              "y = np.log2(2)\n'log2'\ndef log2_like(): pass\n")
    assert _functions_using(source, {"log2", "sinr_terms"}) == ["f", "f", "g", "g", "h",
                                                                "<module>"]


def _package_uses(names: set[str]) -> list[str]:
    return [f"{path.stem}.{function}" for path in sorted(PACKAGE.glob("*.py"))
            for function in _functions_using(path.read_text(encoding="utf-8"), names)]


def test_one_function_states_the_sinr():
    assert _package_uses({"sinr_terms"}) == ["rates.effective_sinr"]


def test_one_function_takes_the_logarithm_of_a_rate():
    assert _package_uses({"log2"}) == ["rates.rates_at"]


def test_a_trial_rates_nothing():
    # a trial only draws; its row is rated after every trial has run
    tree = ast.parse((PACKAGE / "rates.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {"rates"}
    assert {"effective_sinr", "rates_at", "rate_from_overlap"} <= names
    found = _functions_using((PACKAGE / "montecarlo.py").read_text(encoding="utf-8"), names)
    assert "simulate_one_trial" not in found
    assert "run_trials" in found
