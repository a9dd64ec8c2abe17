"""Every hypothesis property in tests/ draws the same examples on every run: each
settings(...) call passes derandomize=True, so two checkouts that agree on the
code agree on the test results."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def random_settings(source: str) -> list[int]:
    """The lines of the settings(...) calls that lack derandomize=True."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "settings"
            and not any(kw.arg == "derandomize" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in node.keywords)]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_settings_are_derandomized(path):
    assert random_settings(path.read_text(encoding="utf-8")) == []


def test_random_settings_are_found():
    source = ("import hypothesis\nfrom hypothesis import settings\n"
              "@settings(max_examples=5, derandomize=True)\ndef a(): pass\n"
              "@settings(max_examples=5)\ndef b(): pass\n"
              "@hypothesis.settings(derandomize=False)\ndef c(): pass\n"
              "settings.register_profile('ci', max_examples=5)\n")
    assert random_settings(source) == [5, 7]
