#!/usr/bin/env python3
"""Analyze every corpus foliation and the criterion-7 deformation members, and
print a one-line summary per entry; then classify every corpus line map
(``corpus.MAP_SPECS``) and the non-Galois maps of ``GENERIC_MAPS``, and print
each one's class, branching entries, genus and branch records (locus,
profile, weight), one line per map.  The generic maps reach what the Galois
corpus maps do not: loci of full degree, annihilators with several factors,
and a critical point at infinity with a finite value.

The deformation members are the 15 that ``tests/test_acceptance.py`` draws
for criterion 7: five of each degree 3, 4 and 5 from
``random.Random(20240813)``, named ``deform_d<degree>_<k>``.

Each line ends with the elapsed time and then the time of each analysis stage
(``res.timings``), so a slow stage shows without the benchmark.

With ``--json`` each line is instead the entry's ``analysis_report`` (what
``folgal analyze --json`` prints) without its ``timings``, and each line map's
classification as JSON, so the outputs of two checkouts compare with one
``diff``.

Usage: python scripts/run_corpus.py [--numeric [--seed N]] [--json]

``--seed`` seeds the numeric monodromy cross-check, so it takes effect only
with ``--numeric``.
"""

import argparse
import json
import random
import sys
import time

from folgal import corpus
from folgal.analyze import analyze
from folgal.foliation import field_from_spec
from folgal.klein1d import BinaryRationalMap, classify
from folgal.numberfield import QQ
from folgal.parsing import parse_rational
from folgal.report import analysis_report

DEFORM_SEED = 20240813
DEFORM_DEGREES = (3, 4, 5)
DEFORM_PER_DEGREE = 5

# (field spec or None for Q, map in z), printed as generic_<index>
GENERIC_MAPS = (
    (None, "z^3 - 3*z"),
    (None, "(z^4 + z + 1)/(z^2 - 3)"),
    (None, "(z^8 + 3*z^3 - z + 2)/(z^7 - 2*z^4 + 5)"),
    ("g^2+1", "z^3 + 3*z"),
    ("g^2+1", "(z^4 + g*z^2 + 2*z)/(z^4 + z - g)"),
)


def entries():
    """``(name, foliation, echo)`` for the corpus, then the deformation members."""
    for name, (field_spec, a_text, b_text) in corpus.FOLIATION_SPECS.items():
        yield name, corpus.foliation(name), {"field": field_spec, "A": a_text, "B": b_text}
    rng = random.Random(DEFORM_SEED)
    for d in DEFORM_DEGREES:
        k = 0
        while k < DEFORM_PER_DEGREE:
            F = corpus.random_deformation_member(rng, d)
            if F.degree != d:
                continue  # degenerate draw, skipped as criterion 7 skips it
            yield f"deform_d{d}_{k}", F, {"field": None, "A": str(F.A), "B": str(F.B)}
            k += 1


def line_maps():
    """``(name, map)`` for the corpus line maps, then ``GENERIC_MAPS``."""
    for name in corpus.MAP_SPECS:
        yield f"map_{name}", corpus.line_map(name)
    for k, (spec, text) in enumerate(GENERIC_MAPS):
        rf = parse_rational(text, field_from_spec(spec) if spec else QQ, ("z",))
        yield f"generic_{k}", BinaryRationalMap.make(rf.num, rf.den)


def line_map_summary(outcome) -> dict:
    """A line map's classification ``outcome`` as plain data."""
    return {
        "class": str(outcome.klein),
        "branching": [[list(profile), w] for profile, w in outcome.branching.as_sorted()],
        "genus": outcome.genus,
        "records": [[None if r.locus is None else str(r.locus), list(r.profile), r.weight]
                    for r in outcome.records],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--numeric", action="store_true",
                        help="attach the numeric monodromy cross-check")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the numeric cross-check; only with --numeric")
    parser.add_argument("--json", action="store_true",
                        help="print each analysis_report, timings dropped")
    args = parser.parse_args()

    failures = 0
    for name, F, echo in entries():
        start = time.perf_counter()
        try:
            res = analyze(F, numeric=args.numeric, seed=args.seed)
            elapsed = time.perf_counter() - start
            if args.json:
                rep = analysis_report(res, echo)
                del rep["timings"]
                print(json.dumps({"name": name, "report": rep}, sort_keys=True))
                continue
            klein = (
                str(res.symmetry.klein.klein) if res.symmetry is not None else "-"
            )
            bw = str(res.branching) if res.branching is not None else "-"
            genus = res.genus if res.genus is not None else "-"
            stages = " ".join(f"{k}={v:.2f}" for k, v in res.timings.items())
            print(
                f"{name:24s} d={F.degree:<3d} {res.status:12s} "
                f"via {res.verdict.method:20s} group={klein:12s} "
                f"bw={bw:12s} genus={genus!s:3s} ({elapsed:6.2f}s) {stages}"
            )
        except Exception as exc:  # pragma: no cover - reporting script
            failures += 1
            print(f"{name:24s} ERROR {type(exc).__name__}: {exc}")
    for name, f in line_maps():
        try:
            outcome = classify(f)
        except Exception as exc:  # pragma: no cover - reporting script
            failures += 1
            print(f"{name:24s} ERROR {type(exc).__name__}: {exc}")
            continue
        if args.json:
            print(json.dumps({"name": name, "line_map": line_map_summary(outcome)},
                             sort_keys=True))
        else:
            print(f"{name:24s} {outcome}; records: {'; '.join(map(str, outcome.records))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
