"""No module of the package imports a name it never uses (pyflakes' F401, without pyflakes)
or another module's private name, no module-level def or class is there for the tests
alone, no cache grows with the input, no module calls json.dump(s), and only
point_process seeds a generator, while experiments and cli draw no random numbers."""

import ast
from pathlib import Path

import numpy as np
import pytest

import gilbertsim

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gilbertsim"
# the definitions that no package code reads, each kept for its reason
KEPT_FOR_TESTS = {
    "theory_deviations.chernoff_binomial_tail":
        "acceptance criterion 10 checks it against the binomial tail; ROADMAP, Settled",
}


def unused_imports(source: str) -> list[str]:
    """The imported names that the module never reads, except on `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),  # it re-exports
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .geometry import ConvexWindow, covariogram_radial_integral, unit_ball_volume\n"
              "from .gilbert_graph import build_edges  # noqa: F401\n"
              "def f(w: ConvexWindow):\n    return os.path.join(unit_ball_volume(2))\n")
    assert unused_imports(source) == ["math (line 2)", "covariogram_radial_integral (line 4)"]


def unused_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """module.name of each module-level def or class whose name no module reads
    (as a name or an attribute) and that is not exported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read | exported]


def test_no_definitions_for_tests_alone():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, set(gilbertsim.__all__)) == list(KEPT_FOR_TESTS)


def test_unused_definitions_are_found():
    sources = {"a": "def used():\n    return helper()\ndef helper():\n    return 1\n"
                    "def orphan():\n    pass\nclass Lone:\n    pass\n",
               "b": "from . import a\nclass Kept:\n    pass\nx = a.used\n"}
    assert unused_definitions(sources, {"Kept"}) == ["a.orphan", "a.Lone"]


def private_imports(source: str) -> list[str]:
    """The private names (a leading underscore, not a dunder) that the module
    imports from a module of the package."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").partition(".")[0] == "gilbertsim")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_imports_are_found():
    source = ("from __future__ import annotations\nfrom . import __version__\n"
              "from .geometry import ConvexWindow, _gl_nodes\nfrom ._hidden import shown\n"
              "from gilbertsim.experiments import (\n    _SUITES as rows)\n"
              "from numpy import _private\nimport gilbertsim._x\n")
    assert private_imports(source) == ["_gl_nodes (line 3)", "_SUITES (line 5)"]


def unbounded_caches(source: str) -> list[str]:
    """The functions (name and line) under functools.cache or lru_cache that take
    parameters and whose cache sets no finite maxsize: a cache that grows with the input.
    A bare lru_cache, or one without maxsize, counts as setting none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = getattr(func, "id", getattr(func, "attr", None))
            if name not in ("cache", "lru_cache"):
                continue
            size = None if call is None or name == "cache" else next(
                (kw.value for kw in call.keywords if kw.arg == "maxsize"),
                call.args[0] if call.args else None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_cache_grows_with_the_input(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def test_unbounded_caches_are_found():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef once():\n    return 1\n"
              "@cache\ndef grows(x):\n    return x\n"
              "@functools.lru_cache(maxsize=4)\ndef small(x):\n    return x\n"
              "@lru_cache(16)\ndef positional(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef unbounded(x):\n    return x\n"
              "@lru_cache\ndef default_size(x):\n    return x\n"
              "@lru_cache(typed=True)\ndef typed(x):\n    return x\n"
              "class C:\n    @functools.cache\n    def method(self):\n        return 1\n")
    assert unbounded_caches(source) == ["grows (line 7)", "unbounded (line 16)",
                                        "default_size (line 19)", "typed (line 22)",
                                        "method (line 26)"]


def json_dump_calls(source: str) -> list[str]:
    """The calls (name and line) of json.dump or json.dumps, by the module or by an
    imported name: `to_json` is the one JSON path, and writes their bytes itself."""
    tree = ast.parse(source)
    modules, functions = set(), set()  # local names bound to json, and to its dump(s)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {alias.asname or alias.name for alias in node.names
                          if alias.name in ("dump", "dumps")}
    return [f"{ast.unparse(node.func)} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
                  and isinstance(node.func.value, ast.Name) and node.func.value.id in modules)
                 or (isinstance(node.func, ast.Name) and node.func.id in functions))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_json_encoder(path):
    assert json_dump_calls(path.read_text(encoding="utf-8")) == []


def test_json_dump_calls_are_found():
    source = ("import json\nimport json as j\nfrom json import dumps as d, loads\n"
              "from json.encoder import encode_basestring_ascii\n"
              "def f(x, fh):\n    json.dump(x, fh)\n    return j.dumps(x) + d(x)\n"
              "def g(x):\n    return json.loads(x), loads(x), encode_basestring_ascii(x)\n"
              "def h(pickle, x):\n    return pickle.dumps(x)\n")
    assert json_dump_calls(source) == ["json.dump (line 6)", "j.dumps (line 7)", "d (line 7)"]


# what builds a numpy generator or seed sequence, and the methods of a generator that draw
SEEDING = frozenset({"SeedSequence", "PCG64", "Generator", "default_rng", "spawn"})
DRAWS = frozenset(name for name in dir(np.random.Generator)
                  if not name.startswith("_")) - {"bit_generator", "spawn"}


def calls_of(source: str, names) -> list[str]:
    """The imports and calls (name and line) of a function or method in names,
    under whatever name it is imported as."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in names]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names:
                found.append((node.lineno, name))
    return [f"{name} (line {lineno})" for lineno, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.stem != "point_process"), ids=lambda p: p.name)
def test_only_point_process_seeds_generators(path):
    assert calls_of(path.read_text(encoding="utf-8"), SEEDING) == []


@pytest.mark.parametrize("module", ["experiments", "cli"])
def test_experiments_and_cli_draw_no_random_numbers(module):
    assert calls_of((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), DRAWS) == []


def test_seeding_and_draw_calls_are_found():
    source = ("import numpy as np\nfrom numpy.random import default_rng as make, Generator\n"
              "def f(seed, rng: np.random.Generator, config):\n"
              "    g = np.random.Generator(np.random.PCG64(seed))\n"
              "    h = make(np.random.SeedSequence(seed).spawn(1)[0])\n"
              "    a = config.schedule.gamma, rng.bit_generator.state, np.sort(a)\n"
              "    return rng.poisson(3.0), g.random((2, 2)), h.standard_normal(2)\n")
    assert calls_of(source, SEEDING) == [
        "Generator (line 2)", "default_rng (line 2)", "Generator (line 4)", "PCG64 (line 4)",
        "SeedSequence (line 5)", "spawn (line 5)"]
    assert calls_of(source, DRAWS) == ["poisson (line 7)", "random (line 7)",
                                       "standard_normal (line 7)"]
