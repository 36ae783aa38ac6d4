"""What each entry point loads: ``import char1`` loads no submodule, a
CLI verb loads only its family's modules, and no entry point loads
``dataclasses`` or ``inspect``, which cost a fresh interpreter about 10 ms.
Every check runs in a fresh interpreter, so modules imported by other tests
do not count, and compares with the modules loaded at its start, so a site
hook that loads them is not blamed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import char1
from test_acceptance import GOLDEN

SRC = str(Path(char1.__file__).resolve().parents[1])

# verb family -> the char1 modules a verb of it loads besides char1,
# char1.errors and char1.scalars, which the CLI loads for every request
FAMILY_MODULES = {
    "paf": {"semifield", "paf"},
    "poly": {"semifield", "convex"},
    "spec": {"semifield", "paf", "spectrum"},
    "cong": {"semifield", "paf", "congruence"},
    "val": {"semifield", "paf", "valuation"},
}
CLI_BASE = {"char1", "char1.errors", "char1.scalars"}
# standard modules that no entry point may load
HEAVY = {"dataclasses", "inspect"}


def child(*argv, stdin=""):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("CHAR1_SEED", None)
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True,
                          env=env, timeout=120)


# ``python -m char1.cli ARGV`` as runpy runs it, listing on stderr at exit
# the char1 modules in sys.modules and the HEAVY modules loaded since its start
RUN_CLI = """
import sys
before = set(sys.modules)
import atexit, json, runpy
atexit.register(lambda: print(json.dumps([
    sorted(m for m in sys.modules if m.split(".")[0] == "char1"),
    sorted(%r & (set(sys.modules) - before))]), file=sys.stderr))
sys.argv[0] = "char1"
runpy.run_module("char1.cli", run_name="__main__", alter_sys=True)
""" % HEAVY


def cli_modules(*argv, stdin=""):
    """(exit code, stdout, the char1 modules loaded) of one CLI request,
    which must load no HEAVY module."""
    proc = child("-c", RUN_CLI, *argv, stdin=stdin)
    loaded, heavy = json.loads(proc.stderr.splitlines()[-1])
    assert heavy == []
    return proc.returncode, proc.stdout, set(loaded)


def test_import_char1_loads_no_submodule():
    proc = child("-c", "import char1, sys; print([m for m in sys.modules if 'char1.' in m])")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


@pytest.mark.parametrize("verb, payload, extra, expected", GOLDEN, ids=[v for v, *_ in GOLDEN])
def test_a_verb_loads_only_its_family(verb, payload, extra, expected):
    code, out, loaded = cli_modules(verb, *extra, stdin=json.dumps(payload))
    assert code == 0
    assert (out if isinstance(expected, str) else json.loads(out)) == expected
    family = FAMILY_MODULES[verb.split("-", 1)[0]]
    assert loaded == CLI_BASE | {f"char1.{m}" for m in family}


def test_only_laws_run_loads_laws():
    code, out, loaded = cli_modules("laws-run", "decomposition", "--cases", "2")
    assert code == 0 and json.loads(out)["failed"] == 0
    assert "char1.laws" in loaded


@pytest.mark.parametrize("module", ["char1", *sorted(
    f"char1.{p.stem}" for p in Path(char1.__file__).parent.glob("*.py") if p.stem != "__init__")])
def test_no_module_loads_dataclasses_or_inspect(module):
    proc = child("-c", f"import sys; before = set(sys.modules); import {module}; "
                       f"print(sorted({HEAVY!r} & (set(sys.modules) - before)))")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_package_names_are_the_submodules_names():
    script = """
import importlib, json, char1
out = {"unbound": [n for n in char1.__all__ if n in vars(char1)]}
out["mismatched"] = [n for n in char1.__all__ if getattr(char1, n) is not getattr(
    importlib.import_module("char1." + char1._SUBMODULE[n]), n)]
out["cached"] = [n for n in char1.__all__ if n in vars(char1)]
out["undir"] = sorted(set(char1.__all__) - set(dir(char1)))
try:
    char1.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["count"] = len(char1.__all__)
print(json.dumps(out))
"""
    proc = child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unbound": [], "mismatched": [], "cached": [], "undir": [],
        "unknown": "module 'char1' has no attribute 'no_such_name'", "count": 58}
