"""JSON persistence of algebras."""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import exactla as la
from jordanaff import serialization as ser
from jordanaff.jordan import NotUnitalError, direct_sum
from jordanaff.serialization import SerializationError


def test_roundtrip_exact(desk_instances, get_algebra, big_isotopes):
    j = get_algebra("hermitian_complex", m=2, gammas=(1, -1))
    text = ser.dumps(j)
    back = ser.loads(text)
    assert back.c == j.c
    assert back.name == j.name
    assert back.labels == j.labels
    assert ser.dumps(back) == text
    # every desk instance of dim <= 27, the big isotopes and a
    # three-factor direct sum load back to the same kernel pair
    cases = [get_algebra(n, **p) for n, p in desk_instances]
    cases = [j for j in cases if j.dim <= 27] + list(big_isotopes.values())
    cases.append(direct_sum([get_algebra("reals"),
                             get_algebra("quadratic", signs=(1, -1, 1)),
                             big_isotopes["full_real(m=3)^(q=31)"]]))
    for j in cases:
        text = ser.dumps(j)
        assert json.loads(text)["mode"] == "rational", j.name
        back = ser.loads(text)
        (ci, den), (bi, bden) = j._int_tensor(), back._int_tensor()
        assert bden == den, j.name
        assert bi.dtype == ci.dtype and np.array_equal(bi, ci), j.name
        assert ser.dumps(back) == text, j.name


def test_roundtrip_float(desk_instances, get_algebra, float_doc):
    """The float file of every desk instance of dim <= 27, each entry
    float(), snaps back to the same kernel pair and certifies exactly;
    its meta records the snap distance, and it is written back as a
    rational file."""
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        if j.dim > 27:
            continue
        back = ser.from_jsonable(float_doc(j))
        (ci, den), (bi, bden) = j._int_tensor(), back._int_tensor()
        assert bden == den and np.array_equal(bi, ci), j.name
        assert 0 <= back.meta["snap_distance"] < 1e-15, j.name
        res = back.check_jordan()
        assert res.passed and res.max_residual == 0, j.name
        assert json.loads(ser.dumps(back))["mode"] == "rational", j.name


def test_float_entry_must_snap(get_algebra, float_doc):
    """A float entry farther than TOL.rel from every rational of
    denominator at most 2**20 is refused, and the message names it."""
    doc = float_doc(get_algebra("quadratic", signs=(1, 1)))
    doc["c"][0][1][1] = 0.1234567891234  # 1.00006e-9 from 10/81
    with pytest.raises(SerializationError,
                       match=r"entry c\[0\]\[1\]\[1\] = 0.1234567891234"):
        ser.from_jsonable(doc)


def test_snapped_table_without_unit(get_algebra, float_doc):
    """Each float entry snaps alone, so the float file of the valid
    isotope full_real(m=2)^gamma, gamma with denominator 9999991 > 2**20,
    snaps within TOL.rel to a table without a unit: loading it raises
    SerializationError naming the denominator bound and the largest snap
    distance, not NotUnitalError."""
    j = get_algebra("full_real", m=2).isotope(
        (Fraction(3254257, 9999991), 0, 0, Fraction(2058756, 9999991)))
    assert j.find_unity() is not None
    with pytest.raises(SerializationError,
                       match=r"denominator at most 1048576 \(largest snap "
                             r"distance 1.5e-12\) has no unit"):
        ser.from_jsonable(float_doc(j))


def test_snapped_table_over_a_large_common_denominator(get_algebra,
                                                       float_doc):
    """The float file of full_real(m=2)^gamma, gamma with denominator
    9999991, snaps entry by entry (each within TOL.rel) to another unital
    Jordan table; the common denominator of the snapped entries, above
    2**20, refuses it, and the message names that denominator."""
    j = get_algebra("full_real", m=2).isotope(
        (Fraction(8922960, 9999991), 0, 0, Fraction(7368886, 9999991)))
    with pytest.raises(SerializationError,
                       match=r"denominator at most 1048576 \(largest snap "
                             r"distance 5.93e-11\) has the common "
                             r"denominator 11034557831484261704, above"):
        ser.from_jsonable(float_doc(j))


def test_file_io(tmp_path, get_algebra):
    j = get_algebra("full_real", m=2)
    path = tmp_path / "alg.json"
    ser.save(j, path)
    assert ser.load(path).c == j.c


def test_meta_survives(get_algebra):
    j = get_algebra("skew_hamiltonian", m=2)
    back = ser.loads(ser.dumps(j))
    assert back.meta["family"] == "skew_hamiltonian"
    rebuilt = ser.rebuild_from_catalog(back)
    assert rebuilt.c == j.c


def test_bad_payloads_rejected(get_algebra, float_doc):
    j = get_algebra("reals")
    doc = json.loads(ser.dumps(j))

    bad = dict(doc, format="other")
    with pytest.raises(SerializationError):
        ser.from_jsonable(bad)

    bad = dict(doc, version=99)
    with pytest.raises(SerializationError):
        ser.from_jsonable(bad)

    bad = json.loads(ser.dumps(get_algebra("quadratic", signs=(1, 1))))
    bad["c"][0][1][0] = "1/2"  # breaks c[i][k] == c[k][i]
    with pytest.raises(SerializationError) as err:
        ser.from_jsonable(bad)
    assert "not symmetric at (1, 0)" in str(err.value)

    bad = json.loads(ser.dumps(j))
    bad["c"][0] = bad["c"][0][:0]  # ragged slice
    with pytest.raises(SerializationError):
        ser.from_jsonable(bad)

    with pytest.raises(SerializationError, match="top level is a list"):
        ser.from_jsonable([1, 2])
    for key in ("mode", "c", "unity", "dim"):
        bad = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(SerializationError, match=f"missing field '{key}'"):
            ser.from_jsonable(bad)

    exact = json.loads(ser.dumps(get_algebra("quadratic", signs=(1, 1))))
    floats = float_doc(get_algebra("quadratic", signs=(1, 1)))

    def spoil(doc, *edits):
        bad = copy.deepcopy(doc)
        for path, value in edits:
            *head, last = path
            target = bad
            for key in head:
                target = target[key]
            target[last] = value
        return bad

    c000, c011, c012 = ("c", 0, 0, 0), ("c", 0, 1, 1), ("c", 0, 1, 2)
    cases = [
        # float files: non-finite or unconvertible constants
        (spoil(floats, (c000, "Infinity")), "bad entry"),
        (spoil(floats, (c000, 10 ** 400)), "bad entry"),
        # float files: a short, empty or NaN unit
        (spoil(floats, (("unity",), floats["unity"][:2])), "length 2"),
        (spoil(floats, (("unity",), [])), "length 0"),
        (spoil(floats, (("unity",), ["NaN"] * 3)), "not finite"),
        # exact files: JSON floats wherever they sit, and a zero denominator
        (spoil(exact, (c000, 1.0)), "bad entry"),
        (spoil(exact, (c012, 0.0)), "bad entry"),
        (spoil(exact, (c000, 1), (c011, 1.0)), "bad entry"),
        (spoil(exact, (("unity",), [1.0, 0, 0])), "bad entry"),
        (spoil(exact, (c012, "0/0")), "bad entry"),
    ]
    for bad, message in cases:
        with pytest.raises(SerializationError, match=message):
            ser.from_jsonable(bad)


def test_unity_is_validated(get_algebra, big_isotopes, monkeypatch):
    """A stored unit is checked, T_e == I, and not solved for; a wrong
    one still raises SerializationError, and a table without a unit
    still raises NotUnitalError."""
    doc = json.loads(ser.dumps(get_algebra("complex_field")))
    doc["unity"] = ["0", "1"]  # not the unit of this table
    with pytest.raises(SerializationError):
        ser.from_jsonable(doc)
    # the unit of the octonion table, moved in one coordinate
    doc = json.loads(ser.dumps(get_algebra("octonion_hermitian",
                                           gammas=(1, 1, 1))))
    doc["unity"][0] = "1/2" if doc["unity"][0] != "1/2" else "1"
    with pytest.raises(SerializationError, match="identity"):
        ser.from_jsonable(doc)
    doc = json.loads(ser.dumps(get_algebra("reals")))
    doc["c"] = [[["0"]]]  # the zero product has no unit
    with pytest.raises(NotUnitalError):
        ser.from_jsonable(doc)
    cases = [get_algebra("octonion_hermitian", gammas=(1, 1, 1)),
             big_isotopes["full_real(m=3)^(q=31)"]]
    texts = [ser.dumps(j) for j in cases]
    solves = []
    monkeypatch.setattr(la, "solve", lambda *a: solves.append(a))
    for j, text in zip(cases, texts):
        (x, dx), (y, dy) = ser.loads(text)._unit_int(), j._unit_int()
        assert x.dtype == y.dtype and x.tolist() == y.tolist() and dx == dy
    assert solves == []


def test_nonjson_rational_strings_rejected():
    doc = {
        "format": ser.FORMAT, "version": ser.VERSION, "mode": "rational",
        "name": "x", "dim": 1, "labels": ["a"],
        "c": [[["not-a-number"]]], "meta": {},
    }
    with pytest.raises(SerializationError):
        ser.from_jsonable(doc)
