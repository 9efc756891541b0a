"""Command line interface, driven through main() in-process."""

import json

import pytest

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


def test_build_then_verify_file(capsys, tmp_path):
    path = tmp_path / "alg.json"
    code, _, _ = run(capsys, ["build", "--family", "skew_hamiltonian",
                              "--params", '{"m": 2}', "-o", str(path)])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "jordan", "--file", str(path)])
    assert code == 0


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
