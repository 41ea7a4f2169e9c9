#!/usr/bin/env python3
"""Build the deck transformations of corpus foliations and print one line each.

For every corpus foliation (or only the named ones), the line gives the
number of decks that ``deck_transformations(F, verdict(F))`` returns, whether
every one of them is verified, and the seconds that call took; the verdict
itself is not timed.  This is what ``folgal deck`` runs.  An entry that is
not Galois, or whose certificate has no deck realization, says so instead.
``icosahedral_60`` takes under a second.

With ``--json`` each line is instead ``{"name": ..., "report": ...}``, the
report being what ``folgal deck --json`` prints, or null with a ``reason``
when there are no decks, so the decks of two checkouts compare with one
``diff``.

Usage: python scripts/run_decks.py [--json] [NAME ...]
"""

import argparse
import json
import sys
import time

from folgal import corpus
from folgal.galois import UseAnotherMethod, deck_transformations, verdict
from folgal.report import deck_report


def _no_decks(name: str, reason: str, as_json: bool):
    if as_json:
        print(json.dumps({"name": name, "reason": reason, "report": None}, sort_keys=True))
    else:
        print(f"{name:24s} {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"corpus entries, default all: {', '.join(corpus.FOLIATION_SPECS)}")
    parser.add_argument("--json", action="store_true",
                        help="print each entry's deck report, without timings")
    args = parser.parse_args()
    unknown = [n for n in args.names if n not in corpus.FOLIATION_SPECS]
    if unknown:
        parser.error(f"not corpus entries: {', '.join(unknown)}")

    failures = 0
    for name in args.names or corpus.FOLIATION_SPECS:
        F = corpus.foliation(name)
        v = verdict(F)
        if not v.is_galois:
            _no_decks(name, f"{v.status}: no decks", args.json)
            continue
        start = time.perf_counter()
        try:
            decks = deck_transformations(F, v)
        except UseAnotherMethod:
            _no_decks(name, f"galois via {v.method}: no deck realization", args.json)
            continue
        elapsed = time.perf_counter() - start
        verified = all(t.verified for t in decks)
        failures += not verified
        if args.json:
            print(json.dumps({"name": name, "report": deck_report(v, decks)}, sort_keys=True))
            continue
        print(f"{name:24s} decks={len(decks):<3d} all_verified={verified!s:5s} ({elapsed:7.2f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
