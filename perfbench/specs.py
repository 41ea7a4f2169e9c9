"""Frozen inputs, known answers and per-call limits of the benchmark workloads.

Pure data: importing this module does not import folgal.  The spec strings
are copied here rather than read from ``folgal.corpus``, so an edit to the
corpus cannot change what is measured.  Every known answer comes from the
acceptance suite (``tests/test_acceptance.py``, criteria 1-7) or the unit
tests, never from folgal's output:

* statuses and Klein tags: criteria 1, 3, 5 and 6 (icosahedral: criterion 5x);
* branching and genus: criteria 1, 2 and 7, plus the genus-0 entries of
  criterion 9 and ``test_polar_genus_values``;
* the line-map table: criterion 4 and ``test_cusp_cubic_profile``;
* deck count = degree: ``test_decks_power_cubic``, ``test_decks_tetrahedral_order_12``.
"""

from __future__ import annotations

# name -> (field spec, A, B)
FOLIATIONS = {
    "cyclic_cubic_qh23": ("g^2-g+1", "x*y", "g*y^2+x^3"),
    "parabola_cubic_qh12": (None, "y+x^2", "-1/3*x^3"),
    "halfchi_quartic": ("g^2-4*g+6", "(y^2+x^3)*x", "(g/6*y^2+4*x^3)*g*y"),
    "fermat_3": (None, "x^3", "y^3"),
    "fermat_4": (None, "x^4", "y^4"),
    "fermat_5": (None, "x^5", "y^5"),
    "fermat_3_perturbed": (None, "x^3-x", "y^3-y"),
    "hessian_pencil_4": (None, "-x*(2*y^3-x^3-1)", "y*(2*x^3-y^3-1)"),
    "modular_quintic": (
        "g^2-5",
        "(x^2-1)*(x^2-(g-2)^2)*(x+g*y)",
        "(y^2-1)*(y^2-(g-2)^2)*(y+g*x)",
    ),
    "dihedral_4": (None, "(x^2+y^2)^2", "(x^2-y^2)^2"),
    "dihedral_6": (None, "(x^3+y^3)^2", "(x^3-y^3)^2"),
    "tetrahedral_12": (
        "g^2+3",
        "(x^4+2*g*x^2*y^2+y^4)^3",
        "(x^4-2*g*x^2*y^2+y^4)^3",
    ),
    "octahedral_24": (None, "(x^8+14*x^4*y^4+y^8)^3", "(x*y*(x^4-y^4))^4"),
    "icosahedral_60": (
        None,
        "(x^20-228*x^15*y^5+494*x^10*y^10+228*x^5*y^15+y^20)^3",
        "(x*y*(x^10+11*x^5*y^5-y^10))^5",
    ),
    "convex_qh_34": (None, "x^5", "y^4+x^4*y"),
}

# name -> known answer of analyze(); absent keys are not checked
ANALYZE_ANSWERS = {
    "cyclic_cubic_qh23": {"status": "galois", "klein": "Cyclic(3)",
                          "branching_str": "3(3)_1", "genus": 1},
    "parabola_cubic_qh12": {"status": "galois", "branching_str": "3(3)_1", "genus": 1},
    "halfchi_quartic": {"status": "not_galois"},
    "fermat_3": {"status": "galois", "klein": "Cyclic(3)", "genus": 0},
    "fermat_4": {"status": "galois", "klein": "Cyclic(4)"},
    "fermat_5": {"status": "galois", "klein": "Cyclic(5)"},
    "fermat_3_perturbed": {"status": "not_galois"},
    "hessian_pencil_4": {"status": "not_galois"},
    "modular_quintic": {"status": "not_galois"},
    "dihedral_4": {"status": "galois", "klein": "Dihedral(2)"},
    "dihedral_6": {"status": "galois", "klein": "Dihedral(3)"},
    "tetrahedral_12": {"status": "galois", "klein": "Tetrahedral"},
    "octahedral_24": {"status": "galois", "klein": "Octahedral"},
    "icosahedral_60": {"status": "galois", "klein": "Icosahedral"},
    "convex_qh_34": {"status": "galois", "genus": 0},
}

# name -> (field spec, map in z)
LINE_MAPS = {
    "power_3": (None, "z^3"),
    "power_5": (None, "z^5"),
    "power_7": (None, "z^7"),
    "dihedral_2": (None, "((z^2+1)^2)/(4*z^2)"),
    "dihedral_3": (None, "((z^3+1)^2)/(4*z^3)"),
    "dihedral_4": (None, "((z^4+1)^2)/(4*z^4)"),
    "tetrahedral": ("g^2+3", "((z^4+2*g*z^2+1)^3)/((z^4-2*g*z^2+1)^3)"),
    "octahedral": (None, "((z^8+14*z^4+1)^3)/(108*z^4*(z^4-1)^4)"),
    "icosahedral": (
        None,
        "((z^20-228*z^15+494*z^10+228*z^5+1)^3)/(-1728*z^5*(z^10+11*z^5-1)^5)",
    ),
    "cusp_cubic": (None, "z^3-z^2"),
}

# name -> known answer of klein1d.classify(); branching as [[profile], count] pairs
CLASSIFY_ANSWERS = {
    "power_3": {"galois": True, "klein": "Cyclic(3)", "branching": [[[3], 2]], "genus": 0},
    "power_5": {"galois": True, "klein": "Cyclic(5)", "branching": [[[5], 2]], "genus": 0},
    "power_7": {"galois": True, "klein": "Cyclic(7)", "branching": [[[7], 2]], "genus": 0},
    "dihedral_2": {"galois": True, "klein": "Dihedral(2)",
                   "branching": [[[2, 2], 3]], "genus": 0},
    "dihedral_3": {"galois": True, "klein": "Dihedral(3)",
                   "branching": [[[2, 2, 2], 2], [[3, 3], 1]], "genus": 0},
    "dihedral_4": {"galois": True, "klein": "Dihedral(4)",
                   "branching": [[[2, 2, 2, 2], 2], [[4, 4], 1]], "genus": 0},
    "tetrahedral": {"galois": True, "klein": "Tetrahedral",
                    "branching": [[[2] * 6, 1], [[3] * 4, 2]], "genus": 0},
    "octahedral": {"galois": True, "klein": "Octahedral",
                   "branching": [[[2] * 12, 1], [[3] * 8, 1], [[4] * 6, 1]], "genus": 0},
    "icosahedral": {"galois": True, "klein": "Icosahedral",
                    "branching": [[[2] * 30, 1], [[3] * 20, 1], [[5] * 12, 1]], "genus": 0},
    "cusp_cubic": {"galois": False, "genus": 0},
}

# Every Galois corpus entry with a deck realization, except icosahedral_60.
# The calls that finish take 0.1-1.5 s each; the more of them a pass has, the
# less one slow second of the host moves geomean_call_s.
DECK_DEGREES = {"fermat_3": 3, "fermat_4": 4, "fermat_5": 5, "cyclic_cubic_qh23": 3,
                "parabola_cubic_qh12": 3, "dihedral_4": 4, "dihedral_6": 6,
                "tetrahedral_12": 12, "octahedral_24": 24}

# Criterion 7 draws 5 members per degree from random.Random(20240813); the
# benchmark keeps the first DEFORM_PER_DEGREE of each degree from that draw.
ACCEPTANCE_DRAW_SEED = 20240813
DEFORM_DEGREES = (3, 4, 5)
DEFORM_DRAWN_PER_DEGREE = 5
DEFORM_PER_DEGREE = 3

# Per-call limits in seconds.  corpus: dihedral_6 (numeric monodromy) takes
# 12-21 s and must pass; deform: members take 0.4-10 s.  decks: every call
# that can finish takes under 1.6 s; the limit is about twice that, so the
# charges of the calls that hit it do not swamp the measured work.  Today
# tetrahedral_12 (42-46 s) and octahedral_24 (134 s) are limit failures.
LIMITS = {"corpus": 30.0, "deform": 30.0, "decks": 3.0}


def _foliation_input(kind, name, expect):
    field, a, b = FOLIATIONS[name]
    return {"kind": kind, "name": name, "field": field, "A": a, "B": b,
            "expect": expect}


def workload_inputs(workload: str, draw_seed: int = ACCEPTANCE_DRAW_SEED) -> list[dict]:
    """The operations of one pass, in canonical order."""
    if workload == "corpus":
        inputs = [_foliation_input("analyze", n, ANALYZE_ANSWERS[n]) for n in FOLIATIONS]
        inputs += [
            {"kind": "classify", "name": f"map:{n}", "field": f, "map": m,
             "expect": CLASSIFY_ANSWERS[n]}
            for n, (f, m) in LINE_MAPS.items()
        ]
        return inputs
    if workload == "deform":
        return [
            {"kind": "deform", "name": f"deform_d{d}_{k}", "degree": d, "member": k,
             "draw_seed": draw_seed,
             "expect": {"status": "galois", "branching": [[[d], 2]], "genus": 0}}
            for d in DEFORM_DEGREES for k in range(DEFORM_PER_DEGREE)
        ]
    if workload == "decks":
        return [_foliation_input("decks", n, {"decks": d}) for n, d in DECK_DEGREES.items()]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = tuple(LIMITS)
