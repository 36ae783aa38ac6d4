"""Every exported quantity is under a law or a verb.

The seven law suites (seed 7, 25 cases each) and the golden CLI requests
run under ``sys.setprofile``; afterwards every function in
``char1.__all__`` and every public method or property that an exported
class defines must have been called.  What neither reaches is named in
``UNREACHED`` with the reason it stays: a name with no reason to stay is
deleted, or put under a law."""

import inspect
import json
import sys

import pytest

import char1
from char1.cli import main
from char1.laws import SUITES, run_suite
from test_acceptance import GOLDEN

# "Name" or "Class.member" -> why it stays although no law or verb calls it
UNREACHED = {
    **dict.fromkeys(
        ["CharOneSemifield.r_norm", "CharOneSemifield.random"],
        "the abstract interface: each model overrides it, and the overrides are called"),
    "CirclePAF.to_json": "the inverse of the decoder that val-circle-check reads; "
                         "tests/test_cli.py round-trips it",
    "Quad.to_json": "CirclePAF.to_json writes each coordinate with it",
    "Quad.b": "a rational coordinate, read by the repr and the wire form of a Quad",
    "ArcSection.piece_at": "the query on one local section, the arc's form of "
                           "CirclePAF.piece_at; glue reads the same lookup directly",
    "ClosedSet.point": "ClosedSet.of((t, t)) by name, for callers and examples",
    "ClosedSet.empty": "ClosedSet(()) by name, for callers and examples",
    "SupportDir.to_json": "spec-attain writes it for a body; the golden request sends a PAF",
    "Direction.to_json": "SupportDir.to_json writes the direction with it",
}


def members(cls):
    """(name, code) for each public method or property that cls defines."""
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr):
            yield name, attr.__code__


def surface():
    """(label, code) for each exported function and each public method or
    property of an exported class."""
    for name in char1.__all__:
        obj = getattr(char1, name)
        if inspect.isfunction(obj):
            yield name, obj.__code__
        elif inspect.isclass(obj):
            for member, code in members(obj):
                yield f"{name}.{member}", code


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """The code objects of every Python call made by the suites and the
    golden requests."""
    tmp = tmp_path_factory.mktemp("surface")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in SUITES:
            assert run_suite(name, seed=7, cases=25).ok, name
        for verb, payload, extra, _ in GOLDEN:
            inp = tmp / f"{verb}.json"
            inp.write_text(json.dumps(payload), encoding="utf-8")
            assert main([verb, "--input", str(inp), "--output", str(tmp / "out"), *extra]) == 0
    finally:
        sys.setprofile(previous)
    return seen


def test_every_exported_quantity_is_called_by_a_law_or_a_verb(called):
    missed = sorted(label for label, code in surface()
                    if code not in called and label not in UNREACHED)
    assert missed == []


def test_every_allowlisted_name_is_exported_and_unreached(called):
    codes = dict(surface())
    assert set(UNREACHED) <= set(codes)
    assert [label for label in UNREACHED if codes[label] in called] == []
