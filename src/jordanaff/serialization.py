"""JSON persistence for algebras.

An algebra serializes to a plain dict holding its structure tensor "c"
and its unit "unity", with any catalog metadata riding along so a loaded
file can be cross-checked against a fresh build.  In a rational file an
entry is a "p/q" string (JSON integers are read too, JSON floats never);
in a float file it is a finite number.  Loading hands the raw tensor to
:class:`JordanAlgebra`, the one parser of entries, which checks its
cubic shape and each distinct entry; the stored unit goes through
:meth:`JordanAlgebra.coerce`, which checks its length.  The loader then
checks the symmetry of the structure constants and that the stored unit
is the algebra's unit before handing the algebra back.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .config import FLOAT, RATIONAL, TOL
from .jordan import DimensionMismatchError, JordanAlgebra, JordanError

FORMAT = "jordanaff-algebra"
VERSION = 1


class SerializationError(JordanError):
    pass


def _encode_value(x):
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (tuple, list)):
        return [_encode_value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _encode_value(v) for k, v in x.items()}
    return x


def to_jsonable(j):
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": j.name,
        "dim": j.dim,
        "mode": j.mode,
        "labels": list(j.labels) if j.labels else None,
        "meta": _encode_value(j.meta) if j.meta else None,
        "unity": _encode_value(j.unity()),
        "c": _encode_value(j.c),
    }


def dumps(j, indent=None):
    return json.dumps(to_jsonable(j), indent=indent, sort_keys=True)


def save(j, path, indent=2):
    with open(path, "w") as fh:
        fh.write(dumps(j, indent=indent))
        fh.write("\n")


def from_jsonable(data):
    if not isinstance(data, dict):
        raise SerializationError(
            f"not an algebra file (top level is a {type(data).__name__}, "
            "not an object)")
    if data.get("format") != FORMAT:
        raise SerializationError(
            f"not an algebra file (format={data.get('format')!r})")
    if data.get("version") != VERSION:
        raise SerializationError(
            f"unsupported version {data.get('version')!r}")
    missing = [k for k in ("mode", "dim", "c", "unity") if k not in data]
    if missing:
        raise SerializationError(f"missing field {missing[0]!r}")
    mode = data["mode"]
    if mode not in (RATIONAL, FLOAT):
        raise SerializationError(f"unknown mode {mode!r}")
    meta = data.get("meta")
    try:
        j = JordanAlgebra(data["c"], mode=mode,
                          name=data.get("name", "loaded"),
                          labels=tuple(data["labels"])
                          if data.get("labels") else None,
                          meta=meta if meta else None)
        stored = j.coerce(data["unity"])
    except DimensionMismatchError as err:
        raise SerializationError(str(err)) from None
    except (ValueError, TypeError, ArithmeticError) as err:
        raise SerializationError(f"bad entry: {err}") from None
    if j.dim != data["dim"]:
        raise SerializationError(
            f"tensor has {j.dim} slices, dim says {data['dim']}")
    # the first (i, k) with k < i where slices c[i][k] and c[k][i] differ
    ci, _ = j._int_tensor()
    asym = np.argwhere(np.tril((ci != ci.transpose(1, 0, 2)).any(axis=2)))
    if len(asym):
        i, k = asym[0]
        raise SerializationError(
            f"structure constants not symmetric at ({i}, {k})")
    # the stored unit is checked, not solved for; a wrong one leaves the
    # solve to tell a unit elsewhere (SerializationError below) from none
    j.find_unity(stored)
    e = j.unity()
    # a float comparison that fails on NaN
    if (stored != e if mode == RATIONAL
            else not np.abs(stored - e).max() <= TOL.rel):
        raise SerializationError("stored unit element does not act "
                                 "as the identity")
    return j


def loads(text):
    return from_jsonable(json.loads(text))


def load(path):
    with open(path) as fh:
        text = fh.read()
    try:
        return loads(text)
    except (json.JSONDecodeError, SerializationError) as err:
        raise SerializationError(f"{path}: {err}") from None


def rebuild_from_catalog(j):
    """Rebuild from catalog metadata and check the tensors agree."""
    from . import catalog
    meta = j.meta or {}
    family = meta.get("family")
    if not family:
        raise SerializationError("algebra carries no catalog metadata")
    params = meta.get("params") or {}
    params = {k: tuple(v) if isinstance(v, list) else v
              for k, v in params.items()}
    fresh = catalog.build(family, **params)
    if fresh.dim != j.dim:
        raise SerializationError(
            f"catalog rebuild has dim {fresh.dim}, stored dim {j.dim}")
    (ci, den), (fi, fden) = j._int_tensor(), fresh._int_tensor()
    if j.mode == RATIONAL and (den != fden or not np.array_equal(ci, fi)):
        raise SerializationError("catalog rebuild disagrees with stored "
                                 "structure constants")
    return fresh
