import json

import pytest

from fractions import Fraction

from jordanaff import catalog, serialization
from jordanaff.hypersurface import build_model
from jordanaff.structure import restricted_pair

F = Fraction

# Isotopes whose scaled-integer constants outgrow int64 inside the checks:
# two big-gamma isotopes of full_real(m=2) and a q = 31 isotope of
# full_real(m=3).  Every exact check must still certify them.
BIG_ISOTOPES = {
    "full_real(m=2)^(10^5/3)": ("full_real", {"m": 2},
                                (F(10 ** 5, 3), 0, 0, F(7, 11))),
    "full_real(m=2)^(10^9/3)": ("full_real", {"m": 2},
                                (F(10 ** 9, 3), 0, 0, F(7, 11))),
    "full_real(m=3)^(q=31)": ("full_real", {"m": 3},
                              tuple(F(x, 31) for x in
                                    (32, 0, 1, 0, 32, 1, 1, 1, 30))),
}


def _key(name, params):
    return (name, tuple(sorted(params.items())))


@pytest.fixture(scope="session")
def get_algebra():
    """Session-wide cache of catalog builds (they are immutable)."""
    cache = {}

    def _get(name, **params):
        k = _key(name, params)
        if k not in cache:
            cache[k] = catalog.build(name, **params)
        return cache[k]

    return _get


@pytest.fixture(scope="session")
def get_pair(get_algebra):
    cache = {}

    def _get(name, **params):
        k = _key(name, params)
        if k not in cache:
            cache[k] = restricted_pair(get_algebra(name, **params))
        return cache[k]

    return _get


@pytest.fixture(scope="session")
def get_model(get_algebra):
    cache = {}

    def _get(name, l1=Fraction(-1), **params):
        k = (_key(name, params), Fraction(l1))
        if k not in cache:
            cache[k] = build_model(get_algebra(name, **params),
                                   Fraction(l1))
        return cache[k]

    return _get


@pytest.fixture(scope="session")
def desk_instances():
    return catalog.desk_catalog()


@pytest.fixture(scope="session")
def big_isotopes(get_algebra):
    return {label: get_algebra(name, **params).isotope(gamma)
            for label, (name, params, gamma) in BIG_ISOTOPES.items()}


def _floats(value):
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float(Fraction(value))


@pytest.fixture(scope="session")
def float_doc():
    """The float file of an algebra, as a JSON document: its rational
    file with "mode" "float" and every entry of c and the unit float()."""
    def _doc(j):
        doc = json.loads(serialization.dumps(j))
        doc["mode"] = "float"
        doc["c"], doc["unity"] = _floats(doc["c"]), _floats(doc["unity"])
        return doc

    return _doc
