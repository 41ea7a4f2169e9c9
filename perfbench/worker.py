"""Benchmark worker: builds one workload's inputs, then runs one call per request.

Protocol, one JSON object per line.  The parent writes the setup message
``{"root": ..., "inputs": [...], "trace": bool}``; the worker imports folgal
from ``<root>/src``, builds every input, warms up and answers
``{"ready": true}``.  For each request ``{"run": i}`` it forks a child and
writes ``{"child": pid}``.  The child writes one result to its own pipe: the
call's seconds, its outcome (``ok``, ``wrong``, ``inconclusive`` or
``error``), its peak resident memory, the stage timings of an ``analyze`` call
and, when tracing, the layer counters and spans of that call.  Once the child
has ended, normally or killed by the parent, the worker writes
``{"ended": pid, "status": ..., "reply": result}``, with ``reply`` null when
the child left no whole result.  End of input ends the worker.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

import specs


def _import_folgal(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import folgal

    if not os.path.abspath(folgal.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"folgal was imported from {folgal.__file__}, not from {src}")
    # The first sympy import is lazy inside folgal; pay it here, in set-up.
    import sympy  # noqa: F401

    from folgal import monodromy, report  # noqa: F401  (imported lazily by analyze)


def _foliation(item):
    from folgal.foliation import from_strings

    return from_strings(item["field"], item["A"], item["B"])


def _line_map(item):
    from folgal.foliation import field_from_spec
    from folgal.klein1d import BinaryRationalMap
    from folgal.numberfield import QQ
    from folgal.parsing import parse_rational

    field = field_from_spec(item["field"]) if item["field"] else QQ
    rf = parse_rational(item["map"], field, ("z",))
    return BinaryRationalMap.make(rf.num, rf.den)


def _draw_member(rng, d):
    """One draw of acceptance criterion 7, through folgal's public calls."""
    from folgal.foliation import from_strings
    from folgal.galois import lr_deformation
    from folgal.linalg import rank
    from folgal.numberfield import QQ
    from folgal.parsing import parse_poly

    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)
        )
        if rank([list(r) for r in rows], QQ) == 2:
            break
    while True:
        u = parse_poly(
            f"{rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y + {rng.randint(-2, 2)}",
            QQ, ("x", "y"),
        )
        v = parse_poly(
            f"{rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y + {rng.randint(-2, 2)}",
            QQ, ("x", "y"),
        )
        mono = [(0, 0), (1, 0), (0, 1)]
        m = [
            [u.terms.get(e, Fraction(0)) for e in mono],
            [v.terms.get(e, Fraction(0)) for e in mono],
        ]
        if rank(m, QQ) == 2:
            break
    return lr_deformation(from_strings(None, f"x^{d}", f"y^{d}"), u, v, rows)


def deformation_members(draw_seed: int) -> dict:
    """Criterion 7's draw: 5 members of each degree 3, 4, 5, in order."""
    rng = random.Random(draw_seed)
    members = {}
    for d in specs.DEFORM_DEGREES:
        produced = 0
        while produced < specs.DEFORM_DRAWN_PER_DEGREE:
            F = _draw_member(rng, d)
            if F.degree != d:
                continue  # degenerate draw, skipped as criterion 7 does
            members[(d, produced)] = F
            produced += 1
    return members


def build_inputs(items: list[dict]) -> list:
    draws = {}
    built = []
    for item in items:
        kind = item["kind"]
        if kind in ("analyze", "decks"):
            built.append(_foliation(item))
        elif kind == "classify":
            built.append(_line_map(item))
        elif kind == "deform":
            seed = item["draw_seed"]
            if seed not in draws:
                draws[seed] = deformation_members(seed)
            built.append(draws[seed][(item["degree"], item["member"])])
        else:
            raise ValueError(f"unknown input kind {kind!r}")
    return built


def warm_up():
    """Fill folgal's and sympy's lazy state with calls outside every workload,
    so the first timed call of a worker pays no more than the others."""
    from folgal.analyze import analyze
    from folgal.klein1d import classify

    analyze(_foliation({"field": None, "A": "x^2", "B": "y^2"}), numeric=False)
    classify(_line_map({"field": None, "map": "z^2"}))


def _branching_entries(expected_pairs):
    return {tuple(profile): count for profile, count in expected_pairs}


def _check_analysis(res, expect: dict) -> list[str]:
    wrong = []
    if res.status != expect["status"]:
        wrong.append(f"status {res.status} != {expect['status']}")
    if "klein" in expect:
        got = str(res.symmetry.klein.klein) if res.symmetry is not None else None
        if got != expect["klein"]:
            wrong.append(f"klein {got} != {expect['klein']}")
    if "branching_str" in expect and str(res.branching) != expect["branching_str"]:
        wrong.append(f"branching {res.branching} != {expect['branching_str']}")
    if "branching" in expect:
        got = res.branching.entries if res.branching is not None else None
        if got != _branching_entries(expect["branching"]):
            wrong.append(f"branching {got} != {expect['branching']}")
    if "genus" in expect and res.genus != expect["genus"]:
        wrong.append(f"genus {res.genus} != {expect['genus']}")
    return wrong


def run_call(item: dict, obj):
    """Run one operation; return (seconds, mismatches, status, stage timings)."""
    from folgal.analyze import analyze
    from folgal.galois import deck_transformations, verdict
    from folgal.klein1d import classify
    from folgal.report import analysis_report

    kind, expect = item["kind"], item["expect"]
    if kind == "deform":
        start = time.perf_counter()
        res = analyze(obj)  # the CLI defaults: numeric=None, seed=7
        seconds = time.perf_counter() - start
        return seconds, _check_analysis(res, expect), res.status, dict(res.timings)
    if kind == "analyze":
        start = time.perf_counter()
        res = analyze(obj)
        rep = analysis_report(res, {k: item[k] for k in ("field", "A", "B")})
        text = json.dumps(rep)  # what `folgal analyze --json` prints
        seconds = time.perf_counter() - start
        wrong = _check_analysis(res, expect)
        if json.loads(text)["verdict"]["status"] != res.status:
            wrong.append("report status differs from the verdict")
        return seconds, wrong, res.status, dict(res.timings)
    if kind == "classify":
        start = time.perf_counter()
        out = classify(obj)
        seconds = time.perf_counter() - start
        wrong = []
        if out.klein.is_galois() != expect["galois"]:
            wrong.append(f"galois {out.klein.is_galois()} != {expect['galois']}")
        if "klein" in expect and str(out.klein) != expect["klein"]:
            wrong.append(f"klein {out.klein} != {expect['klein']}")
        if "branching" in expect and out.branching.entries != _branching_entries(
            expect["branching"]
        ):
            wrong.append(f"branching {out.branching.entries} != {expect['branching']}")
        if out.genus != expect["genus"]:
            wrong.append(f"genus {out.genus} != {expect['genus']}")
        return seconds, wrong, None, {}
    if kind == "decks":
        start = time.perf_counter()
        decks = deck_transformations(obj, verdict(obj))
        seconds = time.perf_counter() - start
        wrong = []
        if len(decks) != expect["decks"]:
            wrong.append(f"{len(decks)} decks != {expect['decks']}")
        unverified = sum(1 for t in decks if not t.verified)
        if unverified:
            wrong.append(f"{unverified} decks not verified")
        return seconds, wrong, None, {}
    raise ValueError(f"unknown input kind {kind!r}")


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _answer(item, obj, tracer) -> dict:
    """Run one call and describe its outcome."""
    if tracer is not None:
        tracer.reset()
    reply = {"timings": {}}
    start = time.perf_counter()
    cpu0 = time.process_time()
    try:
        seconds, wrong, status, timings = run_call(item, obj)
    except Exception as exc:
        reply["seconds"] = time.perf_counter() - start
        reply["outcome"] = "error"
        reply["detail"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    else:
        reply["seconds"] = seconds
        reply["timings"] = timings
        if status == "inconclusive":
            reply["outcome"], reply["detail"] = "inconclusive", "inconclusive verdict"
        elif wrong:
            reply["outcome"], reply["detail"] = "wrong", "; ".join(wrong)
        else:
            reply["outcome"], reply["detail"] = "ok", ""
    reply["cpu_s"] = time.process_time() - cpu0
    reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        reply["trace"] = tracer.snapshot()
    return reply


def main() -> int:
    setup = json.loads(sys.stdin.readline())
    _import_folgal(setup["root"])
    items = setup["inputs"]
    built = build_inputs(items)
    warm_up()
    tracer = None
    if setup["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    _send({"ready": True})
    # Each call runs in a child forked from this ready state, so no call sees
    # caches filled by another and the call order cannot change a timing.
    # The parent kills a child that runs past the limit; this process lives on.
    for line in sys.stdin:
        index = json.loads(line)["run"]
        go_read, go_write = os.pipe()
        out_read, out_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(go_write)
            os.close(out_read)
            os.dup2(2, 1)  # stray prints go to stderr, not into the protocol
            os.read(go_read, 1)  # wait until the parent knows this pid
            try:
                with os.fdopen(out_write, "w") as out:
                    out.write(json.dumps(_answer(items[index], built[index], tracer)))
            finally:
                os._exit(0)
        os.close(go_read)
        os.close(out_write)
        _send({"child": pid})
        os.write(go_write, b"x")
        os.close(go_write)
        with os.fdopen(out_read) as out:
            text = out.read()  # ends when the child exits or is killed
        _, status = os.waitpid(pid, 0)
        try:
            reply = json.loads(text)
        except ValueError:
            reply = None  # killed before or while writing its reply
        _send({"ended": pid, "status": status, "reply": reply})
    return 0


if __name__ == "__main__":
    sys.exit(main())
