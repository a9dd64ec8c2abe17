"""Every hypothesis property in tests/ draws the same examples on every run and
has no time limit: each @given test has a settings(...) decorator, and each
settings(...) call passes derandomize=True, so two checkouts that agree on the
code agree on the test results, and deadline=None, so an example slowed by a
busy host does not fail hypothesis's 200 ms deadline."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _passes(node: ast.Call, arg: str, value) -> bool:
    return any(kw.arg == arg and isinstance(kw.value, ast.Constant)
               and kw.value.value is value for kw in node.keywords)


def _called(node, name: str) -> bool:
    """Whether node is a call of name or of module.name."""
    return isinstance(node, ast.Call) \
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def random_settings(source: str) -> list[int]:
    """The lines of the settings(...) calls that lack derandomize=True or
    deadline=None, and of the @given tests that have no settings(...) decorator."""
    nodes = list(ast.walk(ast.parse(source)))
    return sorted(
        [node.lineno for node in nodes if _called(node, "settings")
         and not (_passes(node, "derandomize", True) and _passes(node, "deadline", None))]
        + [node.lineno for node in nodes
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and any(_called(dec, "given") for dec in node.decorator_list)
           and not any(_called(dec, "settings") for dec in node.decorator_list)])


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_settings_are_derandomized(path):
    assert random_settings(path.read_text(encoding="utf-8")) == []


def test_random_settings_are_found():
    source = ("import hypothesis\nfrom hypothesis import settings\n"
              "@settings(max_examples=5, deadline=None, derandomize=True)\ndef a(): pass\n"
              "@settings(max_examples=5, deadline=None)\ndef b(): pass\n"
              "@hypothesis.settings(deadline=None, derandomize=False)\ndef c(): pass\n"
              "@settings(max_examples=5, derandomize=True)\ndef d(): pass\n"
              "settings.register_profile('ci', max_examples=5)\n")
    assert random_settings(source) == [5, 7, 9]


def test_given_without_settings_is_found():
    source = ("from hypothesis import given, settings, strategies as st\n"
              "@settings(max_examples=5, deadline=None, derandomize=True)\n"
              "@given(st.integers())\ndef a(x): pass\n"
              "@given(st.integers())\ndef b(x): pass\n"
              "@hypothesis.given(x=st.integers())\ndef c(x): pass\n")
    assert random_settings(source) == [6, 8]
