"""JSON-serializable analysis reports.

Every polynomial is embedded as its canonical text form, so the report can
be re-parsed into identical objects; the schema is versioned for corpus
stability.
"""

from __future__ import annotations

from .analyze import AnalysisResult, UnreliableMonodromy
from .multipoly import MultiPoly, poly_str
from .numberfield import NumberField
from .ratfunc import RationalFunction

SCHEMA_VERSION = "1"


def _scalar(v):
    if isinstance(v, (int, bool, float, str)) or v is None:
        return v
    return str(v)


def _poly(p):
    return poly_str(p) if isinstance(p, MultiPoly) else str(p)


def _ratfunc(r: RationalFunction):
    return {"num": _poly(r.num), "den": _poly(r.den)}


def field_description(field) -> dict | None:
    if not isinstance(field, NumberField):
        return None
    layers = []
    for layer in field.chain():
        coeffs = [str(c) for c in layer.min_poly]
        layers.append(
            {
                "generator": layer.name,
                "min_poly_coeffs": coeffs,
                "embedding": [layer.embedding.real, layer.embedding.imag],
            }
        )
    return {"layers": layers}


def verdict_payload(verdict) -> dict:
    cert = {}
    for key, value in verdict.certificate.items():
        if isinstance(value, MultiPoly):
            cert[key] = _poly(value)
        elif isinstance(value, RationalFunction):
            cert[key] = _ratfunc(value)
        elif isinstance(value, list) and value and isinstance(value[0], RationalFunction):
            cert[key] = [_ratfunc(v) for v in value]
        elif key == "invariants":
            continue  # reported separately in the singular table
        elif key in ("symmetry", "reduction", "klein"):
            continue  # reported in the symmetry block
        else:
            cert[key] = _scalar(value)
    return {
        "status": verdict.status,
        "method": verdict.method,
        "certificate": cert,
    }


def branching_payload(bw) -> dict | None:
    if bw is None:
        return None
    return {
        "entries": [[list(p), w] for p, w in bw.as_sorted()],
        "size": bw.size(),
        "text": str(bw),
    }


def monodromy_payload(mon) -> dict | None:
    if mon is None:
        return None
    if isinstance(mon, UnreliableMonodromy):
        return {"certified": False, "reliable": False, "reason": mon.reason}
    return {
        "certified": False,
        "reliable": True,
        "group_order": mon.group_order,
        "cycle_types": [list(ct) for ct in mon.cycle_types],
        "numeric_genus": mon.numeric_genus,
        "galois_flag": mon.galois_flag,
        "base_parameter": [mon.base_parameter.real, mon.base_parameter.imag],
        "branch_parameters": [
            [c.real, c.imag, r] for c, r in mon.branch_parameters
        ],
    }


def analysis_report(result: AnalysisResult, input_echo: dict) -> dict:
    F = result.foliation
    singular = []
    for inv in result.invariants:
        singular.append(
            {
                "point": str(inv.point),
                "multiplicity": inv.multiplicity,
                "class_size": inv.class_size,
                "nu": inv.nu,
                "tau": inv.tau,
                "beta": inv.beta,
                "chi": str(inv.chi),
                "in_sigma_ram": inv.in_sigma_ram,
                "sigma_status": str(inv.sigma_rho_status),
            }
        )
    inflection = None
    if result.inflection is not None:
        inflection = {
            "every_point_inflectional": result.inflection.every_point_inflectional,
            "total_degree": result.inflection.total_degree,
            "components": [
                {
                    "curve": _poly(c.curve),
                    "multiplicity": c.multiplicity,
                    "kind": c.kind,
                    "rho": c.rho,
                }
                for c in result.inflection.components
            ],
        }
    symmetry = None
    if result.symmetry is not None:
        blk = result.symmetry
        symmetry = {
            "normal_form": blk.symmetry.normal_form,
            "weights": list(blk.symmetry.weights) if blk.symmetry.weights else None,
            "epsilon": _scalar(blk.symmetry.epsilon_normalized
                               if blk.symmetry.epsilon_normalized is not None
                               else blk.symmetry.epsilon),
            "reduced_map": {
                "num": _poly(blk.reduction.num),
                "den": _poly(blk.reduction.den),
            },
            "klein_class": str(blk.klein.klein),
            "reduction_branching": str(blk.klein.branching),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_echo,
        "degree": F.degree,
        "field": field_description(F.field),
        "vector_field": {"A": _poly(F.A), "B": _poly(F.B)},
        "singular_points": singular,
        "inflection": inflection,
        "verdict": verdict_payload(result.verdict),
        "routes": {name: v.status for name, v in result.routes.items()},
        "symmetry": symmetry,
        "branching": branching_payload(result.branching),
        "genus": result.genus,
        "monodromy": monodromy_payload(result.monodromy),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }


def deck_report(verdict, decks) -> dict:
    """What ``folgal deck --json`` prints: the verdict and, for each deck
    transformation, its two coordinate maps and whether it was verified."""
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": verdict.status,
        "method": verdict.method,
        "count": len(decks),
        "decks": [
            {
                "x": {"num": str(t.tau_x.num), "den": str(t.tau_x.den)},
                "y": {"num": str(t.tau_y.num), "den": str(t.tau_y.den)},
                "verified": t.verified,
            }
            for t in decks
        ],
    }
