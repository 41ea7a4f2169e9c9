"""Full analysis of one foliation: every applicable decision route, the
singularity table, the inflection decomposition and branching data, with
route agreement enforced, and the numeric monodromy cross-check on request."""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .foliation import PlaneFoliation, inflection_divisor
from .galois import (
    GaloisVerdict,
    UseAnotherMethod,
    branching_and_genus,
    discriminant_square_test,
    extremal_type_report,
    low_degree_verdict,
    symmetry_verdict,
)
from .klein1d import WeightedBranchingType


@dataclass
class SymmetryBlock:
    symmetry: object
    reduction: object
    klein: object


@dataclass
class UnreliableMonodromy:
    """Numeric monodromy that gave no consistent answer: tracking failed, or
    the two independent pencils disagreed.  ``reason`` is the tracker's
    message; the exact verdict stands."""

    reason: str


@dataclass
class AnalysisResult:
    foliation: PlaneFoliation
    verdict: GaloisVerdict
    routes: dict
    invariants: list
    inflection: object
    symmetry: SymmetryBlock | None = None
    branching: object | None = None
    genus: int | None = None
    monodromy: object | None = None
    timings: dict = dc_field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.verdict.status


def analyze(
    F: PlaneFoliation,
    numeric: bool = False,
    seed: int = 7,
) -> AnalysisResult:
    """Run every applicable route and cross-check their statuses.

    The routes run in the order ``discriminant_square``,
    ``symmetry_reduction``, ``local_conditions``, and the verdict is the
    first that decides, after the low-degree verdict
    (:func:`~folgal.galois.low_degree_verdict`) in degree 1, and in degree 2
    without the discriminant route.  The local-invariant route (singularity
    table and inflection divisor) is expensive for high-degree symmetric
    foliations; it runs when the degree is at most 8 or when no other route
    decided.

    The local route builds the inflection divisor itself unless its chi test
    decides first, and the ``inflection`` stage then reuses it: that stage
    takes about 0 s, and the divisor's time falls inside ``local``.  The
    divisor is built as squarefree invariant and transverse parts, which is
    all the local route reads; no stage factors it.  Its irreducible
    components are factored when first read, by the report.

    Numeric monodromy runs only when ``numeric`` is True, after the exact
    routes, and never changes the verdict.  When the exact genus and
    branching type exist, the numeric genus and the sum of the numeric cycle
    types must equal them.  A numeric run that fails to track, or whose two
    pencils disagree, leaves the verdict alone: ``monodromy`` is then an
    :class:`UnreliableMonodromy`.
    ``seed`` seeds only the numeric run, as ``seed + 100``; the exact routes
    draw their generic polars from :data:`folgal.local.POLAR_SEED`.
    """
    timings: dict = {}
    routes: dict = {}
    d = F.degree

    t0 = time.perf_counter()
    if d in (2, 3):
        try:
            routes["discriminant_square"] = discriminant_square_test(F)
        except UseAnotherMethod:
            pass
    timings["discriminant"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sym_block = None
    sym_verdict = symmetry_verdict(F) if d >= 2 else None
    if sym_verdict is not None:
        routes["symmetry_reduction"] = sym_verdict
        cert = sym_verdict.certificate
        sym_block = SymmetryBlock(cert["symmetry"], cert["reduction"], cert["klein"])
    timings["symmetry"] = time.perf_counter() - t0

    decided_already = any(v.status != "inconclusive" for v in routes.values())
    want_local = not decided_already or d <= 8

    invariants = []
    inflection = None
    if want_local:
        t0 = time.perf_counter()
        local_report = extremal_type_report(F)
        routes["local_conditions"] = local_report.verdict
        invariants = local_report.invariants
        timings["local"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        inflection = local_report.inflection
        if inflection is None:
            inflection = inflection_divisor(F)
        timings["inflection"] = time.perf_counter() - t0

    decided = [v for v in routes.values() if v.status != "inconclusive"]
    if len({v.status for v in decided}) > 1:
        raise AssertionError(
            f"decision routes disagree: "
            + ", ".join(f"{k}:{v.status}" for k, v in routes.items())
        )

    low = None if "discriminant_square" in routes else low_degree_verdict(d)
    # above degree 8 the local route runs only when nothing else decided
    main = low or (decided[0] if decided else routes["local_conditions"])

    bw = genus = None
    t0 = time.perf_counter()
    if main.is_galois:
        best = main
        local = routes.get("local_conditions")
        if not main.certificate.get("extremal") and local and local.certificate.get("extremal"):
            best = local
        data = branching_and_genus(F, best)
        if data is not None:
            bw, genus = data
    timings["branching"] = time.perf_counter() - t0

    result = AnalysisResult(
        foliation=F,
        verdict=main,
        routes=routes,
        invariants=invariants,
        inflection=inflection,
        symmetry=sym_block,
        branching=bw,
        genus=genus,
        timings=timings,
    )

    if numeric:
        t0 = time.perf_counter()
        from .monodromy import TrackingFailure, cross_check

        try:
            mon = cross_check(F, seed=seed + 100)
        except TrackingFailure as exc:
            result.monodromy = UnreliableMonodromy(str(exc))
        else:
            result.monodromy = mon
            if genus is not None and mon.numeric_genus != genus:
                raise AssertionError(
                    "numeric genus disagrees with the symbolic certificate"
                )
            numeric_bw = WeightedBranchingType.from_pairs(mon.degree, mon.numeric_bw)
            if bw is not None and numeric_bw != bw:
                raise AssertionError(
                    "numeric cycle types disagree with the symbolic branching type"
                )
        timings["monodromy"] = time.perf_counter() - t0
    return result
