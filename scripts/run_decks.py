#!/usr/bin/env python3
"""Build the deck transformations of corpus foliations and print one line each.

For every corpus foliation (or only the named ones), the line gives the
number of decks that ``deck_transformations(F, verdict(F))`` returns, whether
every one of them is verified, and the seconds that call took; the verdict
itself is not timed.  This is what ``folgal deck`` runs.  An entry that is
not Galois, or whose certificate has no deck realization, says so instead.
``icosahedral_60`` takes minutes.

Usage: python scripts/run_decks.py [NAME ...]
"""

import argparse
import sys
import time

from folgal import corpus
from folgal.galois import UseAnotherMethod, deck_transformations, verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"corpus entries, default all: {', '.join(corpus.FOLIATION_SPECS)}")
    args = parser.parse_args()
    unknown = [n for n in args.names if n not in corpus.FOLIATION_SPECS]
    if unknown:
        parser.error(f"not corpus entries: {', '.join(unknown)}")

    failures = 0
    for name in args.names or corpus.FOLIATION_SPECS:
        F = corpus.foliation(name)
        v = verdict(F)
        if not v.is_galois:
            print(f"{name:24s} {v.status}: no decks")
            continue
        start = time.perf_counter()
        try:
            decks = deck_transformations(F, v)
        except UseAnotherMethod:
            print(f"{name:24s} galois via {v.method}: no deck realization")
            continue
        elapsed = time.perf_counter() - start
        verified = all(t.verified for t in decks)
        failures += not verified
        print(f"{name:24s} decks={len(decks):<3d} all_verified={verified!s:5s} ({elapsed:7.2f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
