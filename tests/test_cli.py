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
    )
    assert code == 1
    assert "chi=3/2" in out


def test_analyze_numeric_disagreement_keeps_the_exact_exit_code(capsys):
    # at seed 901 the two pencils of halfchi_quartic see different branch
    # points; the numeric block is marked unreliable, the verdict stands
    code, out, err = run_cli(
        capsys,
        "analyze",
        "--inline",
        "field: g^2-4*g+6; A: (y^2+x^3)*x; B: (g/6*y^2+4*x^3)*g*y",
        "--numeric",
        "--seed",
        "901",
        "--json",
    )
    assert code == 1 and not err
    rep = json.loads(out)
    assert rep["verdict"]["status"] == "not_galois"
    assert rep["monodromy"] == {
        "certified": False, "reliable": False, "reason": "independent pencils disagree",
    }


def test_analyze_seed_reaches_only_the_numeric_check(capsys):
    # the exact routes read the foliation's one pool of generic polars, so
    # without the numeric check the seed changes nothing in the report
    reports = []
    for seed in ("5", "7"):
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--inline",
            "field: g^2-4*g+6; A: (y^2+x^3)*x; B: (g/6*y^2+4*x^3)*g*y",
                "--seed",
            seed,
            "--json",
        )
        assert code == 1 and not err
        rep = json.loads(out)
        del rep["timings"]
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["singular_points"]


@pytest.mark.parametrize("command", [
    ["deck"], ["deform", "--u", "x", "--v", "y", "--rows", "1,0,0,0,1,0"], ["tangent"],
], ids=["deck", "deform", "tangent"])
def test_only_analyze_takes_a_seed(capsys, command):
    code, _, err = run_cli(capsys, *command, "--inline", "A: x^3; B: y^3", "--seed", "5")
    assert code == 3 and "unrecognized arguments: --seed" in err


@pytest.mark.parametrize("command", [
    ["deform", "--u", "x", "--v", "y", "--rows", "1,0,0,0,1,0"], ["tangent"],
], ids=["deform", "tangent"])
def test_only_analyze_and_deck_take_json(capsys, command):
    code, _, err = run_cli(capsys, *command, "--inline", "A: x^3; B: y^3", "--json")
    assert code == 3 and "unrecognized arguments: --json" in err


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


def test_deck_json(capsys):
    code, out, _ = run_cli(capsys, "deck", "--inline", "A: x^3; B: y^3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["count"] == len(rep["decks"]) == 3
    assert all(deck["verified"] for deck in rep["decks"])


def test_deck_of_a_non_galois_foliation(capsys):
    spec = "A: {1}; B: {2}".format(*corpus.FOLIATION_SPECS["fermat_3_perturbed"])
    code, out, err = run_cli(capsys, "deck", "--inline", spec)
    assert code == 1 and not err
    assert out == "verdict: not_galois; no deck transformations\n"


def test_deck_without_realization_is_inconclusive(capsys):
    # convex_qh_34 is Galois by symmetry reduction, a certificate with no decks
    code, out, err = run_cli(capsys, "deck", "--inline", "A: x^5; B: y^4+x^4*y")
    assert code == 2
    assert "verdict: galois via symmetry_reduction; no deck realization" in out
    assert not err


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
    code, out, _ = run_cli(capsys, "analyze", str(spec))
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
    code, out, _ = run_cli(capsys, "analyze", "--inline", "A: y; B: -x", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == {
        "status": "galois", "method": "low_degree", "certificate": {"reason": "degree one"},
    }


@pytest.mark.parametrize("command, spec", [
    ("analyze", "field: u^2-1; A: x^2; B: u*y^2"),
    ("deck", "field: u^2-1; A: x^3; B: y^3"),
    ("analyze", "field: u^4+2*u^2+1; A: x^2; B: u*y^2"),
])
def test_reducible_field_spec_is_an_input_error(capsys, command, spec):
    code, _, err = run_cli(capsys, command, "--inline", spec)
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("spec, message", [
    ("fields: g^2+1; A: x^2; B: y^2", "unknown key 'fields'"),
    ("A: x^2; A: x^3; B: y^2", "repeated key 'a'"),
    ("A: x^2; B: y^2; a: x^3", "repeated key 'a'"),
])
def test_unknown_or_repeated_spec_key_is_an_input_error(capsys, spec, message):
    code, out, err = run_cli(capsys, "analyze", "--inline", spec)
    assert code == 3
    assert message in err and "internal" not in err
    assert not out


@pytest.mark.parametrize("argv, column", [
    (("classify1d", "z/0"), 3),
    (("analyze", "--inline", "A: x/0; B: y^2"), 3),
    (("deck", "--inline", "A: x^2; B: y^2/(1-1)"), 5),
    (("classify1d", "z^2*(z-z)^-1"), 5),
])
def test_division_by_zero_is_an_input_error(capsys, argv, column):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "error:" in err and "internal" not in err
    assert f"(column {column})" in err


def test_tangent_of_another_degree_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "tangent", "--inline", "A: x^2; B: y^2")
    assert code == 3
    assert "degree 3" in err and "internal" not in err


@pytest.mark.parametrize("option", [["--no-numeric"], ["--dump-paths", "paths.csv"]],
                         ids=["no-numeric", "dump-paths"])
def test_removed_numeric_options_are_rejected(capsys, option):
    # the numeric check runs only with --numeric, and tracks no paths to a file
    code, _, err = run_cli(capsys, "analyze", *option, "--inline", "A: x^2; B: y^2")
    assert code == 3 and f"unrecognized arguments: {option[0]}" in err
