"""JSON persistence of algebras."""

import json

import pytest

from jordanaff import serialization as ser
from jordanaff.serialization import SerializationError


def test_roundtrip_exact(get_algebra):
    j = get_algebra("hermitian_complex", m=2, gammas=(1, -1))
    text = ser.dumps(j)
    back = ser.loads(text)
    assert back.c == j.c
    assert back.name == j.name
    assert back.labels == j.labels
    assert ser.dumps(back) == text


def test_roundtrip_float(get_algebra):
    import numpy as np
    j = get_algebra("quadratic", signs=(1, 1)).to_float()
    back = ser.loads(ser.dumps(j))
    assert back.mode == j.mode
    assert np.array_equal(np.asarray(back.c, dtype=float),
                          np.asarray(j.c, dtype=float))


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


def test_bad_payloads_rejected(get_algebra):
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


def test_unity_is_validated(get_algebra):
    doc = json.loads(ser.dumps(get_algebra("complex_field")))
    doc["unity"] = ["0", "1"]  # not the unit of this table
    with pytest.raises(SerializationError):
        ser.from_jsonable(doc)


def test_nonjson_rational_strings_rejected():
    doc = {
        "format": ser.FORMAT, "version": ser.VERSION, "mode": "rational",
        "name": "x", "dim": 1, "labels": ["a"],
        "c": [[["not-a-number"]]], "meta": {},
    }
    with pytest.raises(SerializationError):
        ser.from_jsonable(doc)
