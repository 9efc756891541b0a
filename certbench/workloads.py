"""Seeded inputs, operations and the verdict oracle of the three workloads.

A workload is a list of inputs and a list of operations over them.  An
operation is one call into the library that returns an algebra or a
report: one ``catalog.build``, one ``serialization.loads`` or one target
certification.  ``generate(workload, seed)`` is a pure function of its
arguments; the library only ever sees what it generates.

Every operation carries the verdict the oracle expects:

* ``"pass"``: the input is a genuine simple Jordan algebra (a desk
  instance or an isotope of one), so every certificate must pass and
  every build or load must return the algebra;
* ``"reject"``: the input is a single-constant mutant of a degree >= 3
  desk instance, so every certificate must come back FAIL or refuse the
  input with one of ``REJECTIONS``.

Operations listed in ``KNOWN_DEFECTS`` are valid inputs on which the
library is known to raise instead of certifying, because an int64 guard
trips or a conversion to int64 overflows.  They count as failed
operations, but not as unexpected ones, so they stay visible without
failing the run; once fixed they simply pass.  The same holds for a
certificate of a mutant that raises one of ``GUARD_ERRORS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

L1 = Fraction(-1)
SAMPLES = 5  # the CLI's default --samples

WORKLOADS = ("desk_cold", "desk_json_pair", "isotope_json")

# Desk instances left out of every pass, so that a run holds several
# passes: the dim-54 instance alone costs more than a run (about 23 s of
# loads, pair and model), and each dim-27 instance adds 3 to 4 s.  The
# JSON workloads keep one dim-27 instance, DIM27.
HEAVY = ("octonion_hermitian(gammas=(1, 1, -1))", "split_octonion_hermitian",
         "complex_octonion_hermitian")
DIM27 = "octonion_hermitian(gammas=(1, 1, 1))"

# Built only in desk_cold, where catalog time is the point: its build
# (about 1.6 s of Fraction cd_mul loops) would triple the set-up time of
# the JSON workloads, which repeat their set-up.
CATALOG_HEAVY = ("skew_hamiltonian(m=3)",)

# Largest dimension whose reconstruction desk_json_pair runs; dim-27
# reconstructions take 2.3 s each.
RECONSTRUCT_MAX_DIM = 21

# Isotope denominators q, fixed per instance.  Whether check_gauss stays
# on int64 or falls back to Fraction arithmetic depends on q, so fixing
# q keeps the same two instances (q = 7 on skew_hermitian_quaternion(m=2)
# and symmetric_complex(m=3)) on the Fraction path for every seed; the
# seed draws the signs of the entries of delta.
ISOTOPE_Q = {
    "full_real(m=3)": 3,
    "full_complex(m=2)": 5,
    "full_quaternion(m=2)": 5,
    "symmetric_real(gammas=(1, 1, -1), m=3)": 2,
    "symmetric_real(gammas=(1, 1, 1), m=3)": 7,
    "hermitian_complex(gammas=(1, 1, 1), m=3)": 7,
    "hermitian_quaternion(gammas=(1, 1), m=2)": 3,
    "hermitian_quaternion(gammas=(1, 1, -1), m=3)": 5,
    "skew_hamiltonian(m=2)": 2,
    "skew_hermitian_quaternion(m=2)": 7,
    "complex_quadratic(m=3)": 3,
    "symmetric_complex(m=3)": 7,
    "skew_complex(m=2)": 2,
}

# Mutants perturb one structure constant (symmetrically) by +-1/101.
# Only instances that are not quadratic-form algebras are mutated: a
# perturbed quadratic algebra can be another quadratic form's Jordan
# algebra, which every certificate rightly accepts.
MUTANT_SOURCES = (
    "full_real(m=3)",
    "symmetric_real(gammas=(1, 1, -1), m=3)",
    "symmetric_real(gammas=(1, 1, 1), m=3)",
    "hermitian_complex(gammas=(1, 1, 1), m=3)",
    "hermitian_quaternion(gammas=(1, 1, -1), m=3)",
    "symmetric_complex(m=3)",
    "full_complex(m=2)",
    "skew_hermitian_quaternion(m=2)",
)
MUTANT_DEN = 101

# Isotopes with large coefficients that trip the library's int64 guards:
# two big-gamma isotopes of full_real(m=2) and a q = 31 isotope of
# full_real(m=3) whose cubic-form check leaves the int64 range.
# (label, family, params, gamma)
REPRODUCERS = (
    ("full_real(m=2)^(10^5/3)", "full_real", {"m": 2},
     (Fraction(10 ** 5, 3), 0, 0, Fraction(7, 11))),
    ("full_real(m=2)^(10^9/3)", "full_real", {"m": 2},
     (Fraction(10 ** 9, 3), 0, 0, Fraction(7, 11))),
    ("full_real(m=3)^(q=31)", "full_real", {"m": 3},
     tuple(Fraction(x, 31) for x in (32, 0, 1, 0, 32, 1, 1, 1, 30))),
)

# (input label, target) -> what the parent commit does instead of passing.
KNOWN_DEFECTS = {
    ("full_real(m=2)^(10^5/3)", "model"): "ModelError (reconstruction "
                                          "check exceeds integer range)",
    ("full_real(m=2)^(10^5/3)", "pair"): "PairError (derivation check "
                                         "exceeds the integer guard)",
    ("full_real(m=2)^(10^9/3)", "triple"): "OverflowError",
    ("full_real(m=2)^(10^9/3)", "model"): "OverflowError",
    ("full_real(m=2)^(10^9/3)", "pair"): "PairError (operator entries too "
                                         "large for the integer path)",
    ("full_real(m=3)^(q=31)", "model"): "ModelError (cubic form check "
                                        "exceeds integer range)",
}

# Exceptions by which a certificate may refuse a mutant.
REJECTIONS = ("NotUnitalError", "NotSemisimpleError", "NotInvertibleError")

# How the int64 guards surface: the known defect behind KNOWN_DEFECTS.
# A mutant (denominator 101) can trip them too; that is a refusal
# without a verdict, counted as a known defect, never as a pass.
GUARD_ERRORS = ("OverflowError", "exceeds integer range",
                "exceeds the integer guard", "too large for the integer path")

DESK_TARGETS = ("jordan", "fundamental", "triple", "semisimple",
                "detformula", "decompose", "model")
ISOTOPE_TARGETS = ("jordan", "triple", "model", "pair")
CALABI_PRODUCTS = 3
# Desk instances of dimension at most 4, the Calabi factors.
CALABI_FACTORS = ("reals", "complex_field", "quadratic(signs=(1, 1))",
                  "quadratic(signs=(1, -1, 1))", "full_real(m=2)",
                  "symmetric_real(gammas=(1, 1), m=2)",
                  "hermitian_complex(gammas=(1, -1), m=2)")


@dataclass
class Input:
    """One algebra the workload feeds the library."""

    label: str
    kind: str                 # desk, isotope, reproducer, mutant, calabi
    family: str = ""          # desk_cold builds from family and params
    params: dict = field(default_factory=dict)
    text: str = ""            # JSON workloads load from this text
    factors: tuple = ()       # calabi: indices of the factor inputs
    dim: int = 0
    height: int = 0           # bits of the largest numerator/denominator


@dataclass
class Op:
    """One library call of a pass and the verdict the oracle expects."""

    target: str               # build, loads or a certification target
    input: int                # index into the input list
    seed: int                 # sample seed handed to the check
    expect: str               # "pass" or "reject"
    known: str = ""           # the known defect, when the op is one


@dataclass
class Workload:
    name: str
    seed: int
    inputs: list
    ops: list

    def texts(self):
        return [inp.text for inp in self.inputs]


def instance_label(family, params):
    """The catalog's instance name, e.g. ``full_real(m=3)``."""
    if not params:
        return family
    inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{family}({inner})"


def height(j):
    """Bits of the largest numerator or denominator among the constants."""
    bits = 0
    for ci in j.c:
        for cij in ci:
            for x in cij:
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return bits


def _desk(catalog, skip):
    return [(family, params) for family, params in catalog.desk_catalog()
            if instance_label(family, params) not in skip]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _op(rng, target, index, expect="pass", label=""):
    return Op(target=target, input=index, seed=rng.randrange(1 << 16),
              expect=expect, known=KNOWN_DEFECTS.get((label, target), ""))


def _desk_cold(lib, seed):
    catalog = lib.catalog
    rng = _rng("desk_cold", seed)
    inputs = [Input(label=instance_label(f, p), kind="desk", family=f,
                    params=p) for f, p in _desk(catalog, HEAVY + (DIM27,))]
    order = list(range(len(inputs)))
    rng.shuffle(order)
    ops = []
    for i in order:
        ops.append(_op(rng, "build", i))
        ops.extend(_op(rng, t, i) for t in DESK_TARGETS)
    # Calabi products of two small desk models, built in the same pass.
    small = [i for i, inp in enumerate(inputs)
             if inp.label in CALABI_FACTORS]
    for _ in range(CALABI_PRODUCTS):
        a, b = sorted(rng.sample(small, 2))
        inputs.append(Input(label=f"calabi({inputs[a].label}, "
                                  f"{inputs[b].label})",
                            kind="calabi", factors=(a, b)))
        ops.append(_op(rng, "calabi", len(inputs) - 1))
    return inputs, ops


def _json_desk(lib, keep=None):
    """Built desk instances of the JSON workloads (those in ``keep``)."""
    return [lib.catalog.build(f, **p)
            for f, p in _desk(lib.catalog, HEAVY + CATALOG_HEAVY)
            if keep is None or instance_label(f, p) in keep]


def _json_input(lib, j, kind, label=None):
    return Input(label=label or j.name, kind=kind,
                 text=lib.serialization.dumps(j), dim=j.dim,
                 height=height(j))


def _desk_json_pair(lib, seed):
    rng = _rng("desk_json_pair", seed)
    inputs = [_json_input(lib, j, "desk") for j in _json_desk(lib)]
    order = list(range(len(inputs)))
    rng.shuffle(order)
    ops = []
    for i in order:
        ops.append(_op(rng, "loads", i))
        ops.append(_op(rng, "pair", i))
        if inputs[i].dim <= RECONSTRUCT_MAX_DIM:
            ops.append(_op(rng, "reconstruct", i))
    return inputs, ops


def _isotope(j, q, rng):
    """j.isotope(e + delta), delta in {-1, 0, 1}/q, redrawn until unital."""
    e = j.unity()
    while True:
        gamma = tuple(x + Fraction(rng.choice((-1, 0, 1)), q) for x in e)
        iso = j.isotope(gamma)
        if iso.find_unity() is not None:
            return iso


def _mutant(lib, j, rng):
    """Perturb c[a][b][k] = c[b][a][k] by +-1/101, redrawn until unital."""
    n = j.dim
    while True:
        a, b, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        delta = Fraction(rng.choice((-1, 1)), MUTANT_DEN)
        c = [[list(cij) for cij in ci] for ci in j.c]
        c[a][b][k] += delta
        if a != b:
            c[b][a][k] += delta
        sign = "+" if delta > 0 else ""
        mut = lib.JordanAlgebra(
            c, name=f"{j.name}~c[{a}][{b}][{k}]{sign}{delta}",
            labels=j.labels, meta={"mutant_of": j.name})
        if mut.find_unity() is not None:
            return mut


def _isotope_json(lib, seed):
    rng = _rng("isotope_json", seed)
    desk = {j.name: j for j in _json_desk(lib, set(ISOTOPE_Q)
                                          | set(MUTANT_SOURCES))}
    inputs = []
    for label, q in ISOTOPE_Q.items():
        iso = _isotope(desk[label], q, rng)
        inputs.append(_json_input(lib, iso, "isotope",
                                  f"{label}^(q={q})"))
    for label, family, params, gamma in REPRODUCERS:
        iso = lib.catalog.build(family, **params).isotope(gamma)
        inputs.append(_json_input(lib, iso, "reproducer", label))
    for label in MUTANT_SOURCES:
        inputs.append(_json_input(lib, _mutant(lib, desk[label], rng),
                                  "mutant"))
    order = list(range(len(inputs)))
    rng.shuffle(order)
    ops = []
    for i in order:
        inp = inputs[i]
        expect = "reject" if inp.kind == "mutant" else "pass"
        ops.append(_op(rng, "loads", i, label=inp.label))
        ops.extend(_op(rng, t, i, expect, inp.label)
                   for t in ISOTOPE_TARGETS)
    return inputs, ops


_GENERATORS = {"desk_cold": _desk_cold, "desk_json_pair": _desk_json_pair,
               "isotope_json": _isotope_json}


def generate(lib, workload, seed):
    """The workload's inputs and operations; a pure function of the seed."""
    inputs, ops = _GENERATORS[workload](lib, seed)
    return Workload(name=workload, seed=seed, inputs=inputs, ops=ops)
