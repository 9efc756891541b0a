"""Command line interface, driven through main() in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordanaff
from jordanaff import catalog, cli, serialization as ser
from jordanaff.jordan import JordanAlgebra


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert "full_real" in out and "octonion_hermitian" in out
    assert len([ln for ln in out.splitlines() if ln.strip()]) >= 17


def test_catalog_desk(capsys, monkeypatch, desk_instances, get_algebra):
    built = [get_algebra(name, **params) for name, params in desk_instances]

    def no_build(name, **params):
        raise AssertionError(f"catalog --desk built {name}")

    monkeypatch.setattr(catalog, "build", no_build)
    code, out, _ = run(capsys, ["catalog", "--desk"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.strip()]
    assert len(rows) == 28  # header + 27 desk instances
    assert "dim" in rows[0]
    for row, j in zip(rows[1:], built):
        assert row.split()[-2:] == [str(j.dim), str(catalog.degree(j))]
        assert row.startswith(j.name + " ")


def test_verify_jordan(capsys):
    code, out, _ = run(capsys, ["verify", "jordan", "--family",
                                "full_real", "--params", '{"m": 2}'])
    assert code == 0
    assert "pass" in out.lower()


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, ["verify", "pair", "--family", "quadratic",
                                "--params", '{"signs": [1, -1, 1]}',
                                "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert doc["checks"]["kp_in_p"]["pass"] is True
    # each check carries its details, such as the ideal dims
    code, out, _ = run(capsys, ["verify", "decompose", "--family",
                                "complex_quadratic", "--params", '{"m": 3}',
                                "--json"])
    assert code == 0
    details = json.loads(out)["checks"]["ideal_decomposition"]["details"]
    assert details == {"ideal_dims": [6]}


def test_verify_detformula_and_gauss(capsys):
    for target in ("detformula", "gauss", "semisimple", "triple"):
        code, out, _ = run(capsys, ["verify", target, "--family",
                                    "complex_field", "--samples", "3"])
        assert code == 0, (target, out)


def test_verify_model_l1(capsys):
    code, _, _ = run(capsys, ["verify", "model", "--family", "quadratic",
                              "--params", '{"signs": [1, 1]}',
                              "--l1", "2", "--samples", "3"])
    assert code == 0


def test_verify_calabi(capsys):
    code, _, _ = run(capsys, ["verify", "calabi", "--factors", "reals",
                              'quadratic:{"signs": [1, 1]}',
                              "--samples", "3"])
    assert code == 0


def test_sample_csv(capsys, tmp_path):
    out_file = tmp_path / "pts.csv"
    code, _, _ = run(capsys, ["sample", "--family", "complex_field",
                              "--count", "5", "-o", str(out_file)])
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "x0,x1"
    assert len(rows) == 6
    x0, x1 = map(float, rows[1].split(","))
    assert abs(x0 * x0 + x1 * x1 - 0.25) < 1e-8


def test_build_then_verify_file(capsys, tmp_path, float_doc):
    path = tmp_path / "alg.json"
    code, _, _ = run(capsys, ["build", "--family", "skew_hamiltonian",
                              "--params", '{"m": 2}', "-o", str(path)])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "jordan", "--file", str(path)])
    assert code == 0
    # a float file snaps to rationals and certifies through the same
    # exact checks
    float_path = tmp_path / "alg_float.json"
    float_path.write_text(json.dumps(float_doc(ser.load(path))))
    for target in ("semisimple", "triple"):
        code, out, _ = run(capsys, ["verify", target, "--file",
                                    str(float_path), "--samples", "4",
                                    "--json"])
        assert code == 0, (target, out)
        report = json.loads(out)
        assert report["mode"] == "rational", target
        assert all(c["max_residual"] == 0
                   for c in report["checks"].values()), target


def test_reconstruct_roundtrip(capsys):
    code, out, _ = run(capsys, ["reconstruct", "--family", "full_real",
                                "--params", '{"m": 2}'])
    assert code == 0
    assert "match" in out.lower() or "pass" in out.lower()


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "jordan", "--family",
                                "made_up"])
    assert code == 2
    assert err.strip()


def test_failing_check_exits_1(capsys, tmp_path):
    from fractions import Fraction as F
    dual = JordanAlgebra([[[F(1), F(0)], [F(0), F(1)]],
                          [[F(0), F(1)], [F(0), F(0)]]],
                         name="dual_numbers")
    path = tmp_path / "dual.json"
    ser.save(dual, path)
    code, out, _ = run(capsys, ["verify", "semisimple", "--file",
                                str(path)])
    assert code == 1
    assert "fail" in out.lower()


def test_decompose_without_rational_ideals_exits_2(capsys, tmp_path):
    """R[x]/(x^2 - 2) splits over R but not over Q: decompose names the
    factor and exits 2 instead of handing back uncertified ideals."""
    from fractions import Fraction as F
    sqrt2 = JordanAlgebra([[[F(1), F(0)], [F(0), F(1)]],
                           [[F(0), F(1)], [F(2), F(0)]]], name="sqrt2")
    path = tmp_path / "sqrt2.json"
    ser.save(sqrt2, path)
    code, _, err = run(capsys, ["verify", "decompose", "--file", str(path)])
    assert code == 2
    assert "x^2 - 2" in err


def test_desk_sweep_and_spelling_aliases(capsys, tmp_path):
    code, out, _ = run(capsys, ["verify", "semisimple", "--desk"])
    assert code == 0
    assert out.count("RESULT: PASS") == 27

    code, _, _ = run(capsys, ["catalog", "list"])
    assert code == 0

    path = tmp_path / "alg.json"
    run(capsys, ["build", "--family", "complex_field", "-o", str(path)])
    code, out, _ = run(capsys, ["verify", "model", "--alg", str(path),
                                "--L1", "2"])
    assert code == 0
    assert "PASS" in out


def test_malformed_file_exits_2_with_path(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "jordan-algebra", ')
    code, _, err = run(capsys, ["verify", "jordan", "--file", str(path)])
    assert code == 2
    assert "broken.json" in err


@pytest.mark.parametrize("edit, names", [
    (lambda doc: doc["c"][0][0].__setitem__(0, "Infinity"), "c[0][0][0]"),
    (lambda doc: doc.__setitem__("unity", []), "length 0"),
    (lambda doc: doc["c"][0][1].__setitem__(1, 0.1234567891234),
     "c[0][1][1] = 0.1234567891234"),
], ids=["infinite_entry", "empty_unity", "unsnappable_entry"])
def test_bad_float_file_exits_2_with_path(capsys, tmp_path, float_doc, edit,
                                          names):
    doc = float_doc(catalog.build("quadratic", signs=(1, 1)))
    edit(doc)
    path = tmp_path / "bad_float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "jordan", "--file", str(path)])
    assert code == 2
    assert "bad_float.json" in err and names in err


def _without(key):
    doc = json.loads(ser.dumps(catalog.build("full_real", m=2)))
    del doc[key]
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    "[1, 2]", _without("mode"), _without("c"), _without("unity"),
    _without("dim"),
], ids=["top_level_list", "no_mode", "no_c", "no_unity", "no_dim"])
def test_malformed_algebra_file_exits_2(capsys, tmp_path, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, _, err = run(capsys, ["verify", "jordan", "--file", str(path)])
    assert code == 2
    assert "malformed.json" in err


@pytest.mark.parametrize("argv", [
    ["build", "--family", "full_real", "--params", "{m: 3}"],
    ["build", "--family", "full_real", "--params", "[3]"],
    ["build", "--family", "full_real", "--params", '{"n": 3}'],
    ["build", "--family", "full_real", "--params", "{}"],
    ["verify", "model", "--family", "reals", "--l1", "abc"],
    ["build", "--family", "full_real", "--params", '{"m": "x"}'],
    ["build", "--family", "quadratic", "--params", '{"signs": 3}'],
    ["verify", "jordan", "--family", "reals", "--samples", "-1"],
    ["verify", "triple", "--family", "reals", "--samples", "-3"],
    ["sample", "--family", "reals", "--count", "-2"],
    ["sample", "--family", "reals", "--steps", "-1"],
    ["verify", "jordan", "--family", "reals", "--samples", "2.5"],
], ids=["not_json", "not_an_object", "unknown_name", "missing_name",
        "bad_l1", "size_not_an_integer", "signs_not_a_list",
        "negative_samples", "negative_triple_samples", "negative_count",
        "negative_steps", "samples_not_an_integer"])
def test_bad_arguments_exit_2(capsys, argv):
    """argparse rejects a bad value with SystemExit(2), a negative count
    included; a parameter set the family builder cannot bind, or a
    parameter value of the wrong type, is a BadParameterError, also
    exit 2."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("target", ["jordan", "triple"])
def test_zero_samples_pass(capsys, target):
    """--samples 0 leaves the exhaustive part of each check."""
    assert cli.main(["verify", target, "--family", "full_real", "--params",
                     '{"m": 2}', "--samples", "0"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["model", "decompose"])
def test_one_shot_verify_imports_neither_scipy_nor_sympy(target):
    """A fresh process running one `verify model` or `verify decompose`
    on complex_quadratic(m=3), whose center is C, loads neither scipy
    nor sympy."""
    src = str(Path(jordanaff.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from jordanaff.cli import main\n"
            f"code = main(['verify', {target!r}, '--family', "
            "'complex_quadratic', '--params', '{\"m\": 3}'])\n"
            "print(code, sorted({'scipy', 'sympy'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []", out


def test_detformula_needs_a_catalog_family(capsys, tmp_path):
    """It does not: the norm comes from the tensor, so a file without
    catalog meta, or with an unknown family in it, passes verify
    detformula with the degree of its algebra."""
    doc = json.loads(ser.dumps(catalog.build("full_real", m=2)))
    path = tmp_path / "alg.json"
    for meta in (None, {"family": "nope"}):
        doc["meta"] = meta
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["verify", "detformula", "--file",
                                    str(path), "--json"])
        assert code == 0, meta
        details = json.loads(out)["checks"]["det_closed_form"]["details"]
        assert (details["degree"], details["exponent"]) == (2, 4)


def test_detformula_refuses_an_isotope(capsys, tmp_path):
    """It no longer refuses one: an isotope's meta keeps its base's
    family, which the norm does not read, so verify_det_formula passes
    the isotope in process and verify detformula exits 0 on its file."""
    iso = catalog.build("full_real", m=2).isotope((2, 0, 0, 3))
    assert iso.check_jordan().passed
    res = catalog.verify_det_formula(iso)
    assert res.passed and res.max_residual == 0
    path = tmp_path / "iso.json"
    path.write_text(ser.dumps(iso))
    code, out, _ = run(capsys, ["verify", "detformula", "--file",
                                str(path)])
    assert code == 0 and "PASS" in out


def test_detformula_degree_needs_no_samples(capsys):
    """verify detformula --samples 0 checks the unit alone and still
    reports the degree, whose draws do not depend on the sample count."""
    code, out, _ = run(capsys, ["verify", "detformula", "--family",
                                "full_real", "--params", '{"m": 3}',
                                "--samples", "0", "--json"])
    assert code == 0
    check = json.loads(out)["checks"]["det_closed_form"]
    assert check["samples"] == 1
    assert check["details"]["degree"] == 3
