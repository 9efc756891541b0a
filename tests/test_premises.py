"""The identities proved from cached premises.

``check_triple`` proves its outer symmetry, operator form and split from
a commutative tensor, and the model proves its tangent expansion,
difference tensor and reconstruction from a commutative tensor, a
two-sided unit and a trace-free V0.  Each premise path must return the
report the full evaluation returns, and each identity must FAIL on a
named input, where a premise fails and the residuals are evaluated.
"""

import dataclasses
from fractions import Fraction

import pytest

from jordanaff import catalog
from jordanaff.hypersurface import build_model
from jordanaff.jordan import JordanAlgebra, direct_sum
from test_jordan import matrix_algebra
from test_report_digests import _cases

F = Fraction

TRIPLE_BY_PREMISE = ("outer_symmetry", "operator_form", "symmetric_part",
                     "antisymmetric_part")


def _matrix_sum():
    """M_2(R) (+) R: not commutative, and its trace form is symmetric."""
    return direct_sum([matrix_algebra(), catalog.build("reals")])


def _full_evaluation(monkeypatch):
    """Make the premise helpers fail, so every check evaluates."""
    monkeypatch.setattr(JordanAlgebra, "_asymmetry", lambda self: (0, 0))
    monkeypatch.setattr(JordanAlgebra, "_two_sided_unit", lambda self: False)


def _reports(j):
    """repr of the triple check and the three model checks that have a
    premise path: every field, the type of each residual included."""
    model = build_model(j, F(-1))
    return [repr(c) for c in (j.check_triple(n_samples=20, seed=3),
                              model.check_difference_tensor(),
                              model.check_quadratic_expansion(),
                              model.check_reconstruction())]


def test_premise_paths_match_full_evaluation(desk_instances, get_algebra,
                                             big_isotopes, monkeypatch):
    cases = dict(_cases(desk_instances, get_algebra, big_isotopes))
    cases["M_2(R) (+) R"] = _matrix_sum()
    # every case but the matrix algebra takes the premise paths
    taken = {label for label, j in cases.items()
             if build_model(j, F(-1))._by_construction()}
    assert taken == set(cases) - {"M_2(R) (+) R"}
    premise = {label: _reports(j) for label, j in cases.items()}
    _full_evaluation(monkeypatch)
    assert {label: _reports(j) for label, j in cases.items()} == premise


def _model():
    """A model on a fresh algebra, so that its caches can be corrupted."""
    return build_model(catalog.build("hermitian_complex", gammas=(1, 1, 1),
                                     m=3), F(-1))


def _moved_v0():
    """The model with one v0 entry moved by 1: tau(v0) != 0."""
    model = _model()
    v0 = [list(v) for v in model.v0]
    v0[0][0] += 1
    return dataclasses.replace(model, v0=tuple(map(tuple, v0)), _ints={})


def _moved_unit():
    """The model whose algebra's cached unit is moved by b_0: it is no
    unit, so T_e != I."""
    model = _model()
    e, de = model.algebra._unit_int()
    e = e.copy()
    e[0] += de
    model.algebra._cache["unity_int"] = (e, de)
    return model


INPUTS = {"M_2(R) (+) R": _matrix_sum, "v0[0][0] + 1": _moved_v0,
          "unit + b_0": _moved_unit}

CHECKS = {
    **{identity: lambda j: j.check_triple(n_samples=5, seed=0)
       for identity in TRIPLE_BY_PREMISE},
    "tangent_quadratic_expansion": lambda m: m.check_quadratic_expansion(),
    "difference_tensor_into_v0": lambda m: m.check_difference_tensor(),
    "reconstruction_roundtrip": lambda m: m.check_reconstruction(),
}

# (identity, the named input it FAILs on, its residual there: a triple
# detail, or the model check's max_residual)
CAN_FAIL = (
    ("outer_symmetry", "M_2(R) (+) R", F(33)),
    ("operator_form", "M_2(R) (+) R", F(12)),
    ("symmetric_part", "M_2(R) (+) R", F(18)),
    ("antisymmetric_part", "M_2(R) (+) R", F(15)),
    ("tangent_quadratic_expansion", "v0[0][0] + 1", F(3)),
    ("difference_tensor_into_v0", "v0[0][0] + 1", F(4, 3)),
    ("reconstruction_roundtrip", "unit + b_0", F(2)),
)


@pytest.mark.parametrize("identity, label, residual", CAN_FAIL,
                         ids=[identity for identity, _, _ in CAN_FAIL])
def test_every_check_can_fail(identity, label, residual):
    check = CHECKS[identity](INPUTS[label]())
    assert not check.passed
    assert check.details.get(identity, check.max_residual) == residual
