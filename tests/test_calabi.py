"""Composition of models over direct sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import exactla as la
from jordanaff.calabi import (
    check_composition,
    compose,
    compose_point,
    project_exponents,
)
from jordanaff.hypersurface import ModelError, build_model
from jordanaff.jordan import direct_sum

F = Fraction


def test_hyperbola_from_two_lines(get_model):
    line = get_model("reals", l1=F(-1))
    comp = compose([line, line], l1=F(-1))
    assert comp.model.c_squared == F(1, 4)
    assert comp.model.level_value == F(1, 16)
    assert comp.weights == (1, 1)
    # scale factors: each line sits at c_alpha = 1/2
    assert comp.scale_squares == (F(1, 4), F(1, 4))
    p = compose_point(comp, [np.array([1.0]), np.array([1.0])])
    assert math.isclose(p[0] * p[1], 0.25, rel_tol=1e-12)


def test_compose_matches_direct_sum(get_algebra):
    parts = [("quadratic", {"signs": (1, 1)}), ("reals", {})]
    algs = [get_algebra(n, **p) for n, p in parts]
    comp = compose([build_model(a, F(-1)) for a in algs], l1=F(-1))
    direct = build_model(direct_sum(algs), l1=F(-1))
    assert comp.model.c_squared == direct.c_squared
    assert comp.model.algebra.c == direct.algebra.c


def test_compose_solves_no_unit(get_algebra, monkeypatch):
    """The factor models know their units, so the composed model's
    direct sum takes them as its unit hint: compose solves nothing."""
    models = [build_model(get_algebra(n, **p), F(-1)) for n, p in
              [("quadratic", {"signs": (1, 1)}), ("full_real", {"m": 2})]]
    solves = []
    monkeypatch.setattr(la, "solve", lambda *args: solves.append(args))
    comp = compose(models, l1=F(-1))
    assert solves == []
    assert comp.model.algebra.unity() == tuple(
        x for m in models for x in m.algebra.unity())


def test_triple_composition_report(get_algebra):
    algs = [get_algebra("reals"),
            get_algebra("quadratic", signs=(1, 1)),
            get_algebra("full_real", m=2)]
    comp = compose([build_model(a, F(-1)) for a in algs], l1=F(-1))
    rep = check_composition(comp, n_samples=4, seed=0)
    assert rep.passed, rep.to_jsonable()
    names = {c.name for c in rep.checks}
    assert "composed_level_samples" in names
    assert "scale_matching" in names
    assert "block_determinant_factorization" in names


def test_mixed_curvature_factors(get_algebra):
    # factors built at different mean curvatures still compose exactly
    factors = [build_model(get_algebra("reals"), F(1)),
               build_model(get_algebra("quadratic", signs=(1, 1)), F(-1))]
    comp = compose(factors, l1=F(2))
    assert check_composition(comp, n_samples=3, seed=1).passed
    for sq in comp.scale_squares:
        assert sq > 0


def test_unbalanced_exponents_rejected(get_model):
    line = get_model("reals", l1=F(-1))
    comp = compose([line, line], l1=F(-1))
    with pytest.raises(ModelError):
        compose_point(comp, [np.array([1.0]), np.array([1.0])],
                      t=(0.3, 0.0))
    # projecting first repairs the exponents
    t = project_exponents(comp.weights, (0.3, 0.0))
    assert abs(sum(w * x for w, x in zip(comp.weights, t))) < 1e-12
    p = compose_point(comp, [np.array([1.0]), np.array([1.0])], t=t)
    assert math.isclose(p[0] * p[1], 0.25, rel_tol=1e-10)


def test_empty_composition_rejected():
    with pytest.raises(ModelError):
        compose([])


def test_offsets_partition_coordinates(get_algebra):
    algs = [get_algebra("reals"), get_algebra("complex_field")]
    comp = compose([build_model(a, F(-1)) for a in algs], l1=F(-1))
    assert comp.offsets == (0, 1)
    assert comp.model.algebra.dim == 3
    assert comp.weights == (1, 2)
