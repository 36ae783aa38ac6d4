"""The value classes on ``scalars.Value``: each prints as it did when it was
a dataclass, is immutable, equals and hashes by its fields within its own
class only, and takes its fields by position or keyword; and each class
writes its state once."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from char1.congruence import ClosedSet, FractionRestriction, RestrictionCongruence
from char1.convex import Direction, FracBody, Polygon
from char1.laws import SuiteReport
from char1.paf import PAF
from char1.scalars import Value
from char1.spectrum import Classification, PointEval, SupportDir
from char1.valuation import ArcSection, CirclePAF, Quad

K = ClosedSet.of((F(1, 4), F(1, 3)), (1, 1))
R = RestrictionCongruence(K)
K_REPR = "ClosedSet(intervals=((Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 1), Fraction(1, 1))))"
SQUARE = ("Polygon(vertices=((Fraction(-1, 1), Fraction(-1, 1)), (Fraction(1, 1), Fraction(-1, 1)),"
          " (Fraction(1, 1), Fraction(1, 1)), (Fraction(-1, 1), Fraction(1, 1))))")

# (class, fields by keyword, repr): each repr as the dataclass printed it
VALUES = [
    (PAF, {"breakpoints": (0, F(1, 2), 1), "pieces": ((1, 0), (-1, 1))},
     "PAF(breakpoints=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), "
     "pieces=((Fraction(1, 1), Fraction(0, 1)), (Fraction(-1, 1), Fraction(1, 1))))"),
    (Polygon, {"vertices": ((0, 0), (2, 0), (0, F(1, 3)), (1, 0))},
     "Polygon(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(0, 1)), "
     "(Fraction(0, 1), Fraction(1, 3))))"),
    (Direction, {"p": F(2, 3), "q": -4}, "Direction(p=Fraction(1, 1), q=Fraction(-6, 1))"),
    (FracBody, {"pos": Polygon.square(), "neg": Polygon.origin()},
     f"FracBody(pos={SQUARE}, neg=Polygon(vertices=((Fraction(0, 1), Fraction(0, 1)),)))"),
    (ClosedSet, {"intervals": ((1, 1), (F(1, 4), F(1, 3)))}, K_REPR),
    (RestrictionCongruence, {"k": K}, f"RestrictionCongruence(k={K_REPR})"),
    (FractionRestriction, {"base": R},
     f"FractionRestriction(base=RestrictionCongruence(k={K_REPR}))"),
    (PointEval, {"t": F(1, 3)}, "PointEval(t=Fraction(1, 3))"),
    (SupportDir, {"psi": Direction(1, 0), "unit": Polygon.square()},
     f"SupportDir(psi=Direction(p=Fraction(1, 1), q=Fraction(0, 1)), unit={SQUARE})"),
    (Classification, {"nonneg": True, "regular": False, "absorbing": False, "epsilon": None},
     "Classification(nonneg=True, regular=False, absorbing=False, epsilon=None)"),
    (CirclePAF, {"breakpoints": (0, F(1, 2)), "pieces": ((1, 0), (-1, 1))},
     "CirclePAF(breakpoints=(Quad(0, 0), Quad(1/2, 0)), "
     "pieces=((Quad(1, 0), Quad(0, 0)), (Quad(-1, 0), Quad(1, 0))))"),
    (ArcSection, {"breakpoints": (0, Quad(0, F(1, 2))), "pieces": ((Quad(1, 1), 2),)},
     "ArcSection(breakpoints=(Quad(0, 0), Quad(0, 1/2)), pieces=((Quad(1, 1), Quad(2, 0)),))"),
    (SuiteReport, {"suite": "semifield", "cases": 3, "failed": 1,
                   "first_counterexample": "oplus: a=1"},
     "SuiteReport(suite='semifield', cases=3, failed=1, first_counterexample='oplus: a=1')"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_contract(cls, fields, text):
    args = tuple(fields.values())
    v, w = cls(*args), cls(**fields)
    assert repr(v) == repr(w) == text
    assert v == w and hash(v) == hash(w)
    # the base compares dicts: a class that keeps more there has its own ==
    assert cls.__eq__ is not Value.__eq__ or list(vars(v)) == list(fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(w, name))
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == w and repr(v) == text
    others = [c(**f) for c, f, _ in VALUES if c is not cls]
    assert all(v != x and x != v for x in others)
    assert v != args
    for bad in (args[:-1], (*args, args[-1])):
        with pytest.raises(TypeError):
            cls(*bad)
    name = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*args, **{name: args[0]})
    with pytest.raises(TypeError):
        cls(*args[:-1], no_such_field=args[-1])


# where an instance may be made without its ``__post_init__``: the emit paths
STORES = {("paf", "_store"), ("convex", "_store_hull"), ("convex", "_frac"),
          ("valuation", "_quad")}


def _object_calls(tree, name):
    """The function around each call of ``object.<name>`` in a module tree."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == name and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "object"):
                    yield fn.name


def test_each_value_writes_its_state_once():
    """No code sets an attribute behind ``Value.__setattr__``, only the emit
    paths skip ``__post_init__``, and each class's own ``__post_init__``
    takes exactly its fields and returns the state that ``Value.__init__``
    writes."""
    src = Path(__file__).resolve().parents[1] / "src" / "char1"
    posts = 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert list(_object_calls(tree, "__setattr__")) == [], path.name
        for fn in _object_calls(tree, "__new__"):
            assert (path.stem, fn) in STORES, f"{path.name}: {fn}"
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases)):
                continue
            fields = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    posts += 1
                    assert [a.arg for a in fn.args.args] == ["self", *fields], cls.name
                    assert not any(isinstance(n, ast.Attribute) and n.attr == "__dict__"
                                   or isinstance(n, ast.Delete)
                                   and any(isinstance(t, ast.Attribute) for t in n.targets)
                                   for n in ast.walk(fn)), cls.name
    assert posts == 10
