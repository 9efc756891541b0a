"""JSON persistence for algebras.

An algebra serializes to a plain dict: exact entries become "p/q"
strings, float entries stay numbers, and any catalog metadata rides
along so a loaded file can be cross-checked against a fresh build.
Loading re-validates the symmetry of the structure constants and the
stored unit element before handing back a working algebra.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .config import FLOAT, RATIONAL, TOL
from .jordan import JordanAlgebra, JordanError

FORMAT = "jordanaff-algebra"
VERSION = 1


class SerializationError(JordanError):
    pass


def _encode_value(x):
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


def _decode_entry(x, mode):
    try:
        if mode == RATIONAL:
            return Fraction(x)
        return float(x)
    except (ValueError, TypeError) as err:
        raise SerializationError(f"bad entry {x!r}: {err}") from None


def to_jsonable(j):
    dim = j.dim
    if j.mode == RATIONAL:
        tensor = [[[str(j.c[i][k][l]) for l in range(dim)]
                   for k in range(dim)] for i in range(dim)]
        unity = [str(x) for x in j.unity()]
    else:
        arr = np.asarray(j.c, dtype=np.float64)
        tensor = arr.tolist()
        unity = [float(x) for x in j.unity()]
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": j.name,
        "dim": dim,
        "mode": j.mode,
        "labels": list(j.labels) if j.labels else None,
        "meta": _encode_value(j.meta) if j.meta else None,
        "unity": unity,
        "c": tensor,
    }


def dumps(j, indent=None):
    return json.dumps(to_jsonable(j), indent=indent, sort_keys=True)


def save(j, path, indent=2):
    with open(path, "w") as fh:
        fh.write(dumps(j, indent=indent))
        fh.write("\n")


def from_jsonable(data):
    if data.get("format") != FORMAT:
        raise SerializationError(
            f"not an algebra file (format={data.get('format')!r})")
    if data.get("version") != VERSION:
        raise SerializationError(
            f"unsupported version {data.get('version')!r}")
    dim = data["dim"]
    mode = data["mode"]
    if mode not in (RATIONAL, FLOAT):
        raise SerializationError(f"unknown mode {mode!r}")
    raw = data["c"]
    if len(raw) != dim:
        raise SerializationError(
            f"tensor has {len(raw)} slices, dim says {dim}")
    c = []
    for i in range(dim):
        if len(raw[i]) != dim:
            raise SerializationError(f"slice {i} has wrong row count")
        rows = []
        for k in range(dim):
            if len(raw[i][k]) != dim:
                raise SerializationError(
                    f"row ({i}, {k}) has wrong length")
            rows.append(tuple(_decode_entry(x, mode) for x in raw[i][k]))
        c.append(tuple(rows))
    meta = data.get("meta")
    j = JordanAlgebra(c, mode=mode, name=data.get("name", "loaded"),
                      labels=tuple(data["labels"]) if data.get("labels")
                      else None,
                      meta=meta if meta else None)
    # the first (i, k) with k < i where slices c[i][k] and c[k][i] differ
    ci, _ = j._int_tensor()
    asym = np.argwhere(np.tril((ci != ci.transpose(1, 0, 2)).any(axis=2)))
    if len(asym):
        i, k = asym[0]
        raise SerializationError(
            f"structure constants not symmetric at ({i}, {k})")
    stored = [_decode_entry(x, mode) for x in data["unity"]]
    e = j.unity()
    if mode == RATIONAL:
        if tuple(stored) != tuple(e):
            raise SerializationError("stored unit element does not act "
                                     "as the identity")
    else:
        if max(abs(a - b) for a, b in zip(stored, e)) > TOL.rel:
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
    if j.mode == RATIONAL and fresh.c != j.c:
        raise SerializationError("catalog rebuild disagrees with stored "
                                 "structure constants")
    return fresh
