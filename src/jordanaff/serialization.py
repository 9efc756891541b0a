"""JSON persistence for algebras.

An algebra serializes to a plain dict holding its structure tensor "c"
and its unit "unity", with any catalog metadata riding along so a loaded
file can be cross-checked against a fresh build.  Files are written in
"mode" "rational": an entry is a "p/q" string (JSON integers are read
too, JSON floats never).  A file of "mode" "float" holds finite numbers,
and loading snaps each distinct one, the unit's included, to the nearest
rational of denominator at most ``SNAP_DENOMINATOR``; an entry farther
from it than ``TOL.rel * max(1, |x|)`` raises SerializationError naming
the entry, and the meta of the algebra records the largest snap distance.
Each entry snaps alone, so a table whose exact entries need larger
denominators can snap to one without a unit, or to another valid table;
so the snapped entries must also share a common denominator (the lcm of
theirs) of at most ``SNAP_DENOMINATOR``, and either fault raises
SerializationError naming the denominator bound and the largest snap
distance.  From there both modes load alike.  Loading hands the raw
tensor and the stored unit to :class:`JordanAlgebra`, the one parser of
entries, which checks the tensor's cubic shape, parses each distinct
entry once, and parses the stored unit (checking its length) as the
algebra's unit hint.  The loader then checks, exactly, the symmetry of
the structure constants and that the stored unit is the algebra's unit:
:meth:`JordanAlgebra.find_unity` tests the hint, T_e == I, and solves
for the unit only when that test fails, so a wrong unit raises as
before.  Loading then hands the algebra back.  Saving writes "c" from
:attr:`JordanAlgebra.c`, whose entries are the shared Fraction objects
of the API edge.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from . import exactla as la
from .config import RATIONAL, TOL
from .jordan import DimensionMismatchError, JordanAlgebra, JordanError

FORMAT = "jordanaff-algebra"
VERSION = 1
# the mode of a file whose entries are floats, snapped on load
SNAPPED = "float"
# a float entry snaps to the nearest rational of at most this denominator
SNAP_DENOMINATOR = 2 ** 20


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
        "mode": RATIONAL,
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


def _snap(value, path, snaps):
    """The nested list ``value`` with each entry replaced by its snap
    (:func:`exactla.snap`); ``snaps`` maps each distinct float to
    (snap, distance)."""
    if isinstance(value, list):
        return [_snap(v, f"{path}[{i}]", snaps) for i, v in enumerate(value)]
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise SerializationError(f"bad entry {path}: {err}") from None
    if x not in snaps:
        if not math.isfinite(x):
            raise SerializationError(f"bad entry {path}: {x} is not finite")
        q, dist = la.snap(x, SNAP_DENOMINATOR)
        if dist > TOL.rel * max(1, abs(x)):
            raise SerializationError(
                f"entry {path} = {value!r} does not snap: no rational of "
                f"denominator at most {SNAP_DENOMINATOR} lies within "
                f"{TOL.rel:g} * max(1, |x|) of it")
        snaps[x] = (q, dist)
    return snaps[x][0]


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
    mode, c, unity = data["mode"], data["c"], data["unity"]
    snaps = {}
    if mode == SNAPPED:
        c, unity = _snap(c, "c", snaps), _snap(unity, "unity", snaps)
    elif mode != RATIONAL:
        raise SerializationError(f"unknown mode {mode!r}")
    meta = data.get("meta")
    try:
        j = JordanAlgebra(c, name=data.get("name", "loaded"),
                          labels=tuple(data["labels"])
                          if data.get("labels") else None,
                          meta=meta if meta else None, unit=unity)
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
    unital = j.find_unity() is not None
    if snaps:
        # each entry snapped alone, within TOL.rel: a table whose exact
        # entries need larger denominators can snap to one without a
        # unit, or to another valid table of a larger common denominator
        den = math.lcm(*(q.denominator for q, _ in snaps.values()))
        if not unital or den > SNAP_DENOMINATOR:
            fault = ("has no unit element" if not unital else
                     f"has the common denominator {den}, above the bound")
            raise SerializationError(
                f"the float table snapped to rationals of denominator at "
                f"most {SNAP_DENOMINATOR} (largest snap distance "
                f"{float(max(d for _, d in snaps.values())):.3g}) {fault}; "
                "its exact entries may need larger denominators")
    # both kernel pairs are in lowest terms; NotUnitalError without a unit
    (x, dx), (e, de) = j._unit, j._unit_int()
    if dx != de or not np.array_equal(x, e):
        raise SerializationError("stored unit element does not act "
                                 "as the identity")
    if snaps:
        j.meta["snap_distance"] = float(max(d for _, d in snaps.values()))
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
    if den != fden or not np.array_equal(ci, fi):
        raise SerializationError("catalog rebuild disagrees with stored "
                                 "structure constants")
    return fresh
