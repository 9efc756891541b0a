"""The structure tensor at the API edge: one Fraction object per value
out of ``_out``, the constructor's parse of nested entries, and the
bytes of a JSON file."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import jordan
from jordanaff import serialization as ser
from jordanaff.hypersurface import adapted_constants, reconstruct_algebra
from jordanaff.jordan import JordanAlgebra

F = Fraction


def _leaves(t):
    """The entries of a nested tuple, in order."""
    while t and isinstance(t[0], tuple):
        t = [x for row in t for x in row]
    return list(t)


@pytest.fixture
def empty_table(monkeypatch):
    """A fresh Fraction table, so that no clear from earlier tests' values
    falls between two reads that must share objects."""
    monkeypatch.setattr(jordan, "_fractions", {})


def test_reconstruction_compares_shared_entries(desk_instances, get_model,
                                                 monkeypatch):
    """On every desk instance of dim <= 21, the rebuilt tensor equals the
    adapted constants with each entry pair the same object, and a
    rebuilt tensor with one entry moved by 1 / den compares unequal."""
    for name, params in desk_instances:
        m = get_model(name, l1=F(-1), **params)
        if m.algebra.dim > 21:
            continue
        monkeypatch.setattr(jordan, "_fractions", {})
        rebuilt = reconstruct_algebra(m)
        want = adapted_constants(m)
        assert rebuilt.c == want, name
        pairs = list(zip(_leaves(rebuilt.c), _leaves(want), strict=True))
        assert all(a is b for a, b in pairs), name
        ci, den = rebuilt._int_tensor()
        moved = ci.copy()
        moved[-1, -1, -1] += 1
        assert JordanAlgebra(kernel=(moved, den)).c != want, name


def test_c_equals_fresh_fractions(get_algebra, big_isotopes, empty_table):
    """.c equals nested tuples of freshly made Fractions, none of them the
    table's objects, and a second read of an equal tensor shares the
    first one's entries.  Both reads are of algebras made here, after the
    table was emptied: the session's algebras may hold a .c read earlier."""
    cases = [get_algebra("hermitian_complex", m=2, gammas=(1, -1)),
             big_isotopes["full_real(m=2)^(10^9/3)"],
             big_isotopes["full_real(m=3)^(q=31)"]]
    for j in cases:
        ci, den = j._int_tensor()
        fresh = tuple(tuple(tuple(Fraction(v, den) for v in row)
                            for row in ci_i) for ci_i in ci.tolist())
        c = JordanAlgebra(kernel=(ci.copy(), den), name=j.name).c
        assert c == fresh and fresh == c, j.name
        assert all(a is not b for a, b in zip(_leaves(c), _leaves(fresh)))
        again = JordanAlgebra(kernel=(ci.copy(), den)).c
        assert all(a is b for a, b in zip(_leaves(c), _leaves(again)))


def test_out_is_exact_on_every_dtype_and_sign(empty_table):
    """Object-dtype entries and a negative den give the exact values, and
    equal values from two calls are one object."""
    j = JordanAlgebra([[[1]]])
    big = np.array([2 ** 70, -(2 ** 70), 0], dtype=object)
    assert j._out(big, 6) == (F(2 ** 69, 3), F(-(2 ** 69), 3), F(0))
    assert j._out(np.array([1, -2, 3]), -6) == (F(-1, 6), F(1, 3), F(-1, 2))
    assert j._out(np.array([1]), -2)[0] is j._out(np.array([-2]), 4)[0]


def test_fraction_table_stays_bounded(empty_table):
    """An _out of more distinct values than the table's bound still gives
    every value, and the table never holds more than the bound."""
    bound = jordan._FRACTIONS_MAX
    j = JordanAlgebra([[[1]]])
    out = j._out(np.arange(bound + 100), 7)
    assert out == tuple(F(v, 7) for v in range(bound + 100))
    assert 0 < len(jordan._fractions) <= bound
    out = j._out(np.arange(3 * bound).reshape(3, bound), 11)
    assert len(jordan._fractions) <= bound
    assert out[2][-1] == F(3 * bound - 1, 11)


@pytest.mark.parametrize("shape, want", [
    ((0,), ()),
    ((3, 0), ((), (), ())),
    ((0, 3), ()),
    ((2, 0, 3), ((), ())),
])
def test_zero_size_shapes_nest_as_tolist(shape, want):
    """_out gives a zero-size array the nesting of its ``tolist()``, as
    tuples."""
    arr = np.zeros(shape, dtype=np.int64)
    assert JordanAlgebra([[[1]]])._out(arr, 1) == want


# What the parser that keyed every entry by (type, value) made of each
# input: the kernel pair (ci.tolist(), dtype, den), or the exception's
# type and message.  "new" hands c to the constructor; "loads" puts it
# in the "c" of complex_field's file.
_C = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]
PARSE_OUTCOMES = [
    ("new", "all ints", _C, (_C, "int64", 1)),
    ("new", "True", [[[True]]], ([[[1]]], "int64", 1)),
    ("new", "1.0 after an equal 1", [[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]],
     ("TypeError", "cannot interpret 1.0 as an exact rational")),
    ("new", "a bad string before a float",
     [[["x", 0.5], [0, 1]], [[0, 1], [1, 0]]],
     ("ValueError", "Invalid literal for Fraction: 'x'")),
    ("new", "np.float64", [[[np.float64(1.0)]]],
     ("TypeError", "cannot interpret np.float64(1.0) as an exact rational")),
    ("new", "np.int64", [[[np.int64(1)]]], ([[[1]]], "int64", 1)),
    ("new", "None", [[[None]]],
     ("TypeError", "cannot interpret None as an exact rational")),
    ("new", '"1/2" beside Fraction(1, 2)',
     [[[1, 0], [0, 1]], [[0, 1], ["1/2", F(1, 2)]]],
     ([[[2, 0], [0, 2]], [[0, 2], [1, 1]]], "int64", 2)),
    ("loads", "a string", "abc",
     ("SerializationError", "structure tensor must be cubic")),
    ("loads", "null", None,
     ("SerializationError",
      "bad entry: object of type 'NoneType' has no len()")),
    ("loads", "a flat list", [1, 0, 0, 1],
     ("SerializationError", "bad entry: object of type 'int' has no len()")),
    ("loads", "a dict", {"0": 1},
     ("SerializationError", "one label per basis element")),
    ("loads", "2-D", [[1, 0], [0, 1]],
     ("SerializationError", "bad entry: object of type 'int' has no len()")),
    ("loads", "4-D",
     [[[[1], [0]], [[0], [1]]], [[[0], [1]], [[-1], [0]]]],
     ("SerializationError", "bad entry: unhashable type: 'list'")),
    ("loads", "empty", [],
     ("SerializationError",
      "bad entry: algebra dimension must be at least 1")),
    ("loads", "ragged", [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1"]]],
     ("SerializationError", "structure tensor must be cubic")),
    ("loads", "dict entries",
     [[[{}, "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]],
     ("SerializationError", "bad entry: unhashable type: 'dict'")),
    ("loads", "list entries",
     [[[[], "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]],
     ("SerializationError", "bad entry: unhashable type: 'list'")),
]


def test_parse_outcomes_are_unchanged(get_algebra):
    """Every input of PARSE_OUTCOMES parses, or is refused, as the
    parser that keyed each entry by (type, value) did."""
    base = json.loads(ser.dumps(get_algebra("complex_field")))
    for how, label, c, want in PARSE_OUTCOMES:
        if how == "new":
            def parse(c=c):
                return JordanAlgebra(c)
        else:
            def parse(c=c):
                return ser.loads(json.dumps(dict(base, c=c)))
        try:
            ci, den = parse()._int_tensor()
            got = (ci.tolist(), str(ci.dtype), den)
        except Exception as err:  # the outcome is the exception itself
            got = (type(err).__name__, str(err))
        assert got == want, (how, label)


# sha256 of serialization.dumps, recorded from the encoder that wrote
# str() of every entry of .c.  The desk's entries have size at most 2
# (DESK_SHA256 in test_catalog.py); these isotopes have large ones, and
# the 10^20/3 one has an object-dtype kernel.
ISOTOPE_SHA256 = {
    (F(10 ** 9, 3), 0, 0, F(7, 11)):
        "e3af521957ed74a1258c98039ddb26c4ec10240cf4f66c241969beda008bc1a8",
    (F(10 ** 20, 3), 0, 0, F(7, 11)):
        "fe15268b3d8230d0444dab947f630d631342c8f88e277e63f44380223028ecdc",
}
Q31_SHA256 = \
    "3b09fec69784e940261f5108dc21e719048bf6bce1635b3d02bc52e939649579"


def test_isotope_json_bytes(get_algebra, big_isotopes):
    def digest(j):
        return hashlib.sha256(ser.dumps(j).encode()).hexdigest()

    for gamma, want in ISOTOPE_SHA256.items():
        assert digest(get_algebra("full_real", m=2).isotope(gamma)) == want
    assert digest(big_isotopes["full_real(m=3)^(q=31)"]) == Q31_SHA256

