import json

import pytest

from folgal import corpus
from folgal.cli import main
from folgal.foliation import from_strings
from folgal.parsing import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_galois_cubic(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--inline",
        "field: g^2-g+1; A: x*y; B: g*y^2+x^3",
        "--no-numeric",
    )
    assert code == 0
    assert "galois via discriminant_square" in out
    assert "3(3)_1" in out


def test_analyze_not_galois_quartic(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--inline",
        "field: g^2-4*g+6; A: (y^2+x^3)*x; B: (g/6*y^2+4*x^3)*g*y",
        "--no-numeric",
    )
    assert code == 1
    assert "chi=3/2" in out


def test_analyze_degenerate_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--inline", "A: x; B: y")
    assert code > 2
    assert "degenerate" in err


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--inline",
        "A: y+x^2; B: -1/3*x^3",
        "--json",
        "--no-numeric",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["degree"] == 3
    # every embedded polynomial string re-parses to identical canonical form
    F = from_strings(rep["input"]["field"], rep["input"]["A"], rep["input"]["B"])
    a_again = parse_poly(rep["vector_field"]["A"], F.field, ("x", "y"))
    assert a_again == F.A
    for comp in rep["inflection"]["components"]:
        p = parse_poly(comp["curve"], F.field, ("x", "y", "z"))
        from folgal.multipoly import poly_str

        assert poly_str(p) == comp["curve"]


def test_classify1d_commands(capsys):
    code, out, _ = run_cli(capsys, "classify1d", "z^5")
    assert code == 0 and "Cyclic(5)" in out
    code, out, _ = run_cli(
        capsys, "classify1d", "((z^8+14*z^4+1)^3)/(108*z^4*(z^4-1)^4)"
    )
    assert code == 0 and "Octahedral" in out
    code, out, _ = run_cli(capsys, "classify1d", "z^3-z^2")
    assert code == 1 and "NotGalois" in out


def test_classify1d_json(capsys):
    code, out, _ = run_cli(capsys, "classify1d", "z^3-z^2", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["klein_class"] == "NotGalois"
    assert sorted(tuple(p) for p, w in rep["branching_entries"]) == [(2, 1), (3,)]


def test_deck_command(capsys):
    code, out, _ = run_cli(capsys, "deck", "--inline", "A: x^3; B: y^3")
    assert code == 0
    assert "3 verified deck transformations" in out


def test_deform_command(capsys, tmp_path):
    out_file = tmp_path / "deformed.fol"
    code, out, _ = run_cli(
        capsys,
        "deform",
        "--inline",
        "A: x^3; B: y^3",
        "--u",
        "x+1",
        "--v",
        "y",
        "--rows",
        "1,0,0,0,1,0",
        "--out",
        str(out_file),
        "--analyze",
    )
    assert code == 0
    assert "re-analysis: galois" in out
    text = out_file.read_text()
    assert "A:" in text and "B:" in text


def test_tangent_command(capsys):
    code, out, _ = run_cli(
        capsys, "tangent", "--inline", "field: g^2-g+1; A: x*y; B: g*y^2+x^3"
    )
    assert code == 0
    assert out.strip() == "9"


def test_file_input(capsys, tmp_path):
    spec = tmp_path / "f.fol"
    spec.write_text("field: g^2-g+1\nA: x*y\nB: g*y^2+x^3\n")
    code, out, _ = run_cli(capsys, "analyze", str(spec), "--no-numeric")
    assert code == 0

def test_missing_input(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 3


def test_classify1d_homogeneous_pair(capsys):
    code, out, _ = run_cli(capsys, "classify1d", "x^3, y^3")
    assert code == 0 and "Cyclic(3)" in out
    code, _, err = run_cli(capsys, "classify1d", "x^3, y^2")
    assert code == 3 and "equal degree" in err


def test_analyze_modular_quintic_end_to_end(capsys):
    # the inflection polynomial factors over Q(sqrt 5) into 14 lines
    field, a_text, b_text = corpus.FOLIATION_SPECS["modular_quintic"]
    code, out, _ = run_cli(
        capsys, "analyze", "--inline", f"field: {field}; A: {a_text}; B: {b_text}", "--json"
    )
    assert code == 1  # not Galois
    rep = json.loads(out)
    assert rep["verdict"]["status"] == "not_galois"
    inflection = rep["inflection"]
    assert inflection["total_degree"] == 3 * rep["degree"]
    F = from_strings(field, a_text, b_text)
    finite = [c for c in inflection["components"] if c["curve"] != "z"]
    assert len(finite) == 14
    for c in finite:
        assert c["multiplicity"] == 1
        assert parse_poly(c["curve"], F.field, ("x", "y", "z")).total_degree() == 1


def test_analyze_degree_one(capsys):
    # a degree-one Gauss map is an isomorphism: Galois, with no branching
    code, out, _ = run_cli(capsys, "analyze", "--inline", "A: y; B: -x")
    assert code == 0
    assert "galois" in out


@pytest.mark.parametrize("command, spec", [
    ("analyze", "field: u^2-1; A: x^2; B: u*y^2"),
    ("deck", "field: u^2-1; A: x^3; B: y^3"),
    ("analyze", "field: u^4+2*u^2+1; A: x^2; B: u*y^2"),
])
def test_reducible_field_spec_is_an_input_error(capsys, command, spec):
    code, _, err = run_cli(capsys, command, "--inline", spec)
    assert code == 3
    assert "error:" in err
