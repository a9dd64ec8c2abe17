"""Every hypothesis property in tests/ runs under the one profile of
tests/conftest.py, which draws the same examples on every run (derandomize=True)
and sets no time limit (deadline=None). So no settings(...) call passes
derandomize, deadline or database (derandomize=True already means no example
database), no file but the conftest registers or loads a profile, and each
@given test states its own settings(max_examples=...), the one budget a
property sets for itself. The profile and the conftest's imports make a
property draw the same examples whichever tests run beside it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

TESTS = Path(__file__).resolve().parent
PROFILE_KEYS = ("derandomize", "deadline", "database")
PROFILE_CALLS = ("register_profile", "load_profile")


def _called(node, name: str) -> bool:
    """Whether node is a call of name or of module.name."""
    return isinstance(node, ast.Call) \
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def random_settings(source: str, *, conftest: bool = False) -> list[int]:
    """The lines of the settings(...) calls that pass derandomize, deadline or
    database, of the profile calls unless the source is the conftest, and of the
    @given tests that have no settings(max_examples=...) decorator."""
    nodes = list(ast.walk(ast.parse(source)))
    return sorted(
        [node.lineno for node in nodes if _called(node, "settings")
         and any(kw.arg in PROFILE_KEYS for kw in node.keywords)]
        + [node.lineno for node in nodes if not conftest
           and any(_called(node, name) for name in PROFILE_CALLS)]
        + [node.lineno for node in nodes
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and any(_called(dec, "given") for dec in node.decorator_list)
           and not any(_called(dec, "settings")
                       and any(kw.arg == "max_examples" for kw in dec.keywords)
                       for dec in node.decorator_list)])


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_settings_are_derandomized(path):
    assert random_settings(path.read_text(encoding="utf-8"),
                           conftest=path.name == "conftest.py") == []


def test_random_settings_are_found():
    source = ("import hypothesis\nfrom hypothesis import settings\n"
              "@settings(max_examples=5)\ndef a(): pass\n"
              "@settings(max_examples=5, deadline=None)\ndef b(): pass\n"
              "@hypothesis.settings(derandomize=True)\ndef c(): pass\n"
              "@settings(max_examples=5, database=None)\ndef d(): pass\n"
              "settings.register_profile('ci', max_examples=5)\n"
              "hypothesis.settings.load_profile('ci')\n")
    assert random_settings(source) == [5, 7, 9, 11, 12]
    assert random_settings(source, conftest=True) == [5, 7, 9]


def test_given_without_settings_is_found():
    source = ("from hypothesis import given, settings, strategies as st\n"
              "@settings(max_examples=5)\n"
              "@given(st.integers())\ndef a(x): pass\n"
              "@given(st.integers())\ndef b(x): pass\n"
              "@hypothesis.given(x=st.integers())\ndef c(x): pass\n"
              "@settings(suppress_health_check=[])\n"
              "@given(st.integers())\ndef d(x): pass\n")
    assert random_settings(source) == [6, 8, 11]


def test_profile_is_loaded():
    assert settings.get_current_profile_name() == "gilbertsim"
    assert settings.default.derandomize and settings.default.deadline is None
    assert settings.default.database is None


# A plugin that records every payload the property below passes to the package
_RECORDER = '''
import os

import pytest

calls = []
active = False


def pytest_configure(config):
    from gilbertsim import experiments
    to_json = experiments.to_json

    def recorded(payload, *args, **kwargs):
        if active:
            calls.append(ascii(payload))
        return to_json(payload, *args, **kwargs)

    experiments.to_json = recorded


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    global active
    active = item.name == "test_to_json_writes_json_dumps_bytes"
    try:
        return (yield)
    finally:
        active = False


def pytest_unconfigure(config):
    with open(os.environ["DRAW_RECORD"], "w") as out:
        out.write("\\n".join(calls))
'''


def test_property_draws_do_not_depend_on_the_selection(tmp_path):
    # alone, a property must draw what it draws beside a perfbench test, whose
    # module imports local modules (perfbench's checks, run and tracing) that
    # hypothesis takes constants from
    (tmp_path / "test_recorder.py").write_text(_RECORDER)  # a test_ name: no constants
    path = [str(tmp_path)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    prop = "tests/test_experiments.py::test_to_json_writes_json_dumps_bytes"
    records = []
    for name, extra in (("alone", []),
                        ("paired", ["perfbench/test_checks.py::"
                                    "test_missing_hook_target_is_unmeasured"])):
        record = tmp_path / f"{name}.record"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "-p", "test_recorder", prop, *extra], cwd=TESTS.parent,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                                DRAW_RECORD=str(record)),
                       check=True, capture_output=True)
        records.append(record.read_text().split("\n"))
    assert len(records[0]) == 400
    assert records[0] == records[1]
