"""Command-line front end.

Subcommands: analyze, classify1d, deform, deck, tangent.  Exit codes:
0 = Galois, 1 = not Galois, 2 = inconclusive, 3 = usage or input error,
4 = internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analyze import analyze
from .foliation import DegenerateFoliationError, from_strings
from .klein1d import BinaryRationalMap, classify
from .numberfield import QQ
from .parsing import ParseError, parse_rational
from .report import SCHEMA_VERSION, analysis_report, deck_report

EXIT_GALOIS = 0
EXIT_NOT_GALOIS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_foliation_spec(text: str):
    """'field: <minpoly>; A: <poly>; B: <poly>' with the field part optional.

    Keys are case-insensitive; an unknown or repeated key is an input error.
    """
    entries = {}
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk or chunk.startswith("#"):
            continue
        if ":" not in chunk:
            raise CliError(f"expected 'key: value' in {chunk!r}")
        key, val = chunk.split(":", 1)
        key = key.strip().lower()
        if key not in ("field", "a", "b"):
            raise CliError(f"unknown key {key!r} in {chunk!r}; expected field, A or B")
        if key in entries:
            raise CliError(f"repeated key {key!r} in {chunk!r}")
        entries[key] = val.strip()
    if "a" not in entries or "b" not in entries:
        raise CliError("spec needs 'A:' and 'B:' entries")
    return entries.get("field"), entries["a"], entries["b"]


def _load_spec(args) -> tuple:
    if getattr(args, "inline", None):
        return _parse_foliation_spec(args.inline)
    if getattr(args, "path", None):
        with open(args.path, "r", encoding="utf-8") as handle:
            return _parse_foliation_spec(handle.read())
    raise CliError("provide --inline or an input file")


def _status_exit(status: str) -> int:
    return {"galois": EXIT_GALOIS, "not_galois": EXIT_NOT_GALOIS}.get(
        status, EXIT_INCONCLUSIVE
    )


def _print_human_report(rep: dict):
    print(f"degree: {rep['degree']}")
    if rep["field"]:
        gens = ", ".join(l["generator"] for l in rep["field"]["layers"])
        print(f"field generators: {gens}")
    print(f"verdict: {rep['verdict']['status']} via {rep['verdict']['method']}")
    print("routes: " + ", ".join(f"{k}={v}" for k, v in rep["routes"].items()))
    print("singular points (nu, tau, beta, chi):")
    for s in rep["singular_points"]:
        print(
            f"  {s['point']}: nu={s['nu']} tau={s['tau']} beta={s['beta']} "
            f"chi={s['chi']} ram={s['in_sigma_ram']} [{s['sigma_status']}]"
        )
    if rep["inflection"]:
        print(f"inflection divisor (degree {rep['inflection']['total_degree']}):")
        for c in rep["inflection"]["components"]:
            extra = f" rho={c['rho']}" if c["rho"] else ""
            print(f"  ({c['curve']})^{c['multiplicity']} {c['kind']}{extra}")
    if rep["symmetry"]:
        sym = rep["symmetry"]
        print(
            f"symmetry: {sym['normal_form']} weights={sym['weights']} "
            f"-> {sym['klein_class']}, reduction branching {sym['reduction_branching']}"
        )
    if rep["branching"]:
        print(f"branching type: {rep['branching']['text']}  genus: {rep['genus']}")
    if rep["monodromy"]:
        m = rep["monodromy"]
        if not m["reliable"]:
            print(f"numeric monodromy unreliable: {m['reason']}")
        else:
            print(
                f"numeric monodromy (not certified): order {m['group_order']}, "
                f"genus {m['numeric_genus']}"
            )


def cmd_analyze(args) -> int:
    field_spec, a_text, b_text = _load_spec(args)
    try:
        F = from_strings(field_spec, a_text, b_text)
    except ParseError as exc:
        raise CliError(str(exc))
    result = analyze(F, numeric=args.numeric, seed=args.seed)
    echo = {"field": field_spec, "A": a_text, "B": b_text}
    rep = analysis_report(result, echo)
    if args.json:
        json.dump(rep, sys.stdout, indent=2)
        print()
    else:
        _print_human_report(rep)
    return _status_exit(result.status)


def cmd_classify1d(args) -> int:
    text = args.map
    field = QQ
    if args.field:
        from .foliation import field_from_spec

        field = field_from_spec(args.field)
    try:
        if "," in text:
            # homogeneous pair "A, B" in (x, y): the induced self-map of the
            # line in the coordinate z = y/x
            from .galois import line_map
            from .parsing import parse_poly

            a_text, b_text = text.split(",", 1)
            A = parse_poly(a_text, field, ("x", "y"))
            B = parse_poly(b_text, field, ("x", "y"))
            if not (A.is_homogeneous() and B.is_homogeneous()):
                raise CliError("pair entries must be homogeneous")
            if A.total_degree() != B.total_degree():
                raise CliError("pair entries must have equal degree")
            fmap = line_map(A, B, field)
        else:
            rf = parse_rational(text, field, ("z",))
            fmap = BinaryRationalMap.make(rf.num, rf.den)
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc))
    outcome = classify(fmap)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": text,
        "degree": fmap.degree,
        "klein_class": str(outcome.klein),
        "branching_type": str(outcome.branching),
        "branching_entries": [[list(p), w] for p, w in outcome.branching.as_sorted()],
        "genus": outcome.genus,
        "records": [
            {
                "locus": "infinity" if r.locus is None else str(r.locus),
                "profile": list(r.profile),
                "weight": r.weight,
            }
            for r in outcome.records
        ],
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(f"degree {fmap.degree}: {outcome.klein}")
        print(f"branching type: {outcome.branching}; genus {outcome.genus}")
        for r in payload["records"]:
            print(f"  branch locus {r['locus']}: profile {tuple(r['profile'])}")
    return EXIT_GALOIS if outcome.klein.is_galois() else EXIT_NOT_GALOIS


def cmd_deck(args) -> int:
    from .galois import UseAnotherMethod, deck_transformations, verdict

    field_spec, a_text, b_text = _load_spec(args)
    F = from_strings(field_spec, a_text, b_text)
    v = verdict(F)
    if not v.is_galois:
        print(f"verdict: {v.status}; no deck transformations")
        return _status_exit(v.status)
    try:
        decks = deck_transformations(F, v)
    except UseAnotherMethod:
        print(f"verdict: galois via {v.method}; no deck realization for this certificate")
        return EXIT_INCONCLUSIVE
    if args.json:
        json.dump(deck_report(v, decks), sys.stdout, indent=2)
        print()
    else:
        print(f"{len(decks)} verified deck transformations:")
        for t in decks:
            print(f"  {t}")
    return EXIT_GALOIS


def cmd_deform(args) -> int:
    from .galois import lr_deformation
    from .parsing import parse_poly

    field_spec, a_text, b_text = _load_spec(args)
    F = from_strings(field_spec, a_text, b_text)
    rows_vals = [Fraction(v) for v in args.rows.split(",")]
    if len(rows_vals) != 6:
        raise CliError("--rows needs 6 comma-separated rationals a,c,l,b,d,m")
    rows = (tuple(rows_vals[:3]), tuple(rows_vals[3:]))
    u = parse_poly(args.u, F.field, ("x", "y"))
    v = parse_poly(args.v, F.field, ("x", "y"))
    Fd = lr_deformation(F, u, v, rows)
    spec_text = f"A: {Fd.A}; B: {Fd.B}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            if field_spec:
                handle.write(f"field: {field_spec}\n")
            handle.write(f"A: {Fd.A}\nB: {Fd.B}\n")
        print(f"wrote {args.out}")
    else:
        print(spec_text)
    if args.analyze:
        result = analyze(Fd)
        print(f"re-analysis: {result.status} via {result.verdict.method}")
        return _status_exit(result.status)
    return EXIT_GALOIS


def cmd_tangent(args) -> int:
    from .galois import UseAnotherMethod, tangent_dim_bound_g3

    field_spec, a_text, b_text = _load_spec(args)
    F = from_strings(field_spec, a_text, b_text)
    try:
        bound = tangent_dim_bound_g3(F)
    except UseAnotherMethod as exc:
        raise CliError(str(exc))
    print(bound)
    return EXIT_GALOIS


def build_parser() -> _Parser:
    parser = _Parser(prog="folgal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", nargs="?", help="input file with field/A/B lines")
        p.add_argument("--inline", help="inline spec 'field: ...; A: ...; B: ...'")

    p = sub.add_parser("analyze", help="full Galois analysis of a plane foliation")
    add_common(p)
    p.add_argument("--json", action="store_true", help="JSON report on stdout")
    p.add_argument("--numeric", action="store_true",
                   help="attach the numeric monodromy cross-check")
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the numeric monodromy cross-check")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify1d", help="Klein classification of a line self-map")
    p.add_argument("map", help="rational map in z, e.g. 'z^5' or '(z^2+1)/(2*z)'")
    p.add_argument("--field", help="optional coefficient field spec, e.g. 'g^2+3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify1d)

    p = sub.add_parser("deck", help="verified deck transformations of the Gauss map")
    add_common(p)
    p.add_argument("--json", action="store_true", help="JSON report on stdout")
    p.set_defaults(func=cmd_deck)

    p = sub.add_parser("deform", help="left-right deformation of a homogeneous field")
    add_common(p)
    p.add_argument("--u", required=True, help="first substitution polynomial")
    p.add_argument("--v", required=True, help="second substitution polynomial")
    p.add_argument("--rows", required=True,
                   help="mixing rows a,c,l,b,d,m (6 rationals)")
    p.add_argument("--out", help="write the deformed spec to a file")
    p.add_argument("--analyze", action="store_true", help="re-analyze the result")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("tangent", help="degree-3 tangent dimension bound")
    add_common(p)
    p.set_defaults(func=cmd_tangent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, DegenerateFoliationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
