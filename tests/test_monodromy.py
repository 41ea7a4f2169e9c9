import importlib
import itertools
import math
import random

import numpy as np
import pytest

from folgal import corpus
from folgal import monodromy as mon
from folgal.analyze import analyze
from folgal.klein1d import WeightedBranchingType


def test_generators_compose_to_identity():
    r = mon.monodromy_of_foliation(corpus.foliation("fermat_3"), seed=3)
    d = r.degree
    prod = tuple(range(d))
    for g in r.generators:
        prod = tuple(g[prod[i]] for i in range(d))
    assert prod == tuple(range(d))


def test_power_cubic_foliation():
    r = mon.monodromy_of_foliation(corpus.foliation("fermat_3"), seed=3)
    assert r.group_order == 3 and r.galois_flag
    assert r.numeric_genus == 0


def test_cyclic_cubic_genus_one():
    r = mon.monodromy_of_foliation(corpus.foliation("cyclic_cubic_qh23"), seed=3)
    assert r.group_order == 3
    assert r.numeric_genus == 1


def test_halfchi_quartic_order():
    r = mon.monodromy_of_foliation(corpus.foliation("halfchi_quartic"), seed=3)
    assert r.group_order > 4
    assert r.group_order % 4 == 0
    assert not r.galois_flag


def test_cross_check_two_pencils_agree():
    r = mon.cross_check(corpus.foliation("parabola_cubic_qh12"), seed=3)
    assert r.group_order == 3
    assert r.numeric_genus == 1


def test_order_divisible_by_degree():
    for name in ("fermat_3", "halfchi_quartic", "parabola_cubic_qh12"):
        F = corpus.foliation(name)
        r = mon.monodromy_of_foliation(F, seed=13)
        assert r.group_order % F.degree == 0


# -- the tracker's step test and fibre representation --------------------------------


def _fibre(roots):
    """Unit homogeneous coordinates of roots given as complex or None (infinity)."""
    cols = [(1.0, 0.0) if u is None else (u, 1.0) for u in roots]
    arr = np.array(cols, dtype=complex).T
    return arr / np.sqrt((np.abs(arr) ** 2).sum(axis=0))


def _chordal(u, v):
    if u is None and v is None:
        return 0.0
    if u is None or v is None:
        w = v if u is None else u
        return 1.0 / math.sqrt(1.0 + abs(w) ** 2)
    return abs(u - v) / math.sqrt((1.0 + abs(u) ** 2) * (1.0 + abs(v) ** 2))


def test_dist_is_the_chordal_metric():
    roots = [0.3 - 2j, None, 5.0, -1e-3j, None]
    dist = mon._dist(_fibre(roots), _fibre(roots))
    for i, u in enumerate(roots):
        for j, v in enumerate(roots):
            assert dist[i, j] == pytest.approx(_chordal(u, v), abs=1e-15)
    assert dist[1, 4] == 0.0
    assert dist[0, 1] == pytest.approx(1 / math.sqrt(1 + abs(0.3 - 2j) ** 2))


def test_fiber_points_are_unit_and_see_infinity():
    # q_s(u) = s u^2 + u - 1: a root at infinity at s = 0
    table = np.array([[1, 0, 0], [0, 1, -1]], dtype=complex)
    fib = mon.Fibration(2, table, [])
    for s, roots in ((0.0, [None, 1.0]), (2.0, [0.5, -1.0])):
        pts = mon._fiber_points(fib, s)
        np.testing.assert_allclose((np.abs(pts) ** 2).sum(axis=0), 1.0)
        dist = mon._dist(pts, _fibre(roots))
        assert dist.min(axis=1).max() < 1e-12
        assert sorted(dist.argmin(axis=1)) == [0, 1]


def _brute_assignment(prev, cur):
    """The bijection minimising the summed chordal distance, by enumeration."""
    dist = mon._dist(prev, cur)
    n = dist.shape[0]
    return min(
        itertools.permutations(range(n)),
        key=lambda p: sum(dist[i, p[i]] for i in range(n)),
    )


def _random_root(rng, scale):
    if rng.random() < 0.1:
        return None
    return complex(rng.gauss(0, scale), rng.gauss(0, scale))


@pytest.mark.parametrize("seed", range(6))
def test_accepted_steps_match_the_optimal_assignment(seed):
    rng = random.Random(seed)
    accepted = 0
    for _ in range(150):
        d = rng.randint(2, 6)
        scale = 10 ** rng.uniform(-2, 1)
        old = [_random_root(rng, scale) for _ in range(d)]
        if old.count(None) > 1:
            continue
        jitter = 10 ** rng.uniform(-4, 0) * scale
        new = [
            None if u is None else u + complex(rng.gauss(0, jitter), rng.gauss(0, jitter))
            for u in old
        ]
        order = list(range(d))
        rng.shuffle(order)
        prev, cur = _fibre(old), _fibre([new[k] for k in order])
        prev_gaps, cur_gaps = mon._gaps(prev), mon._gaps(cur)
        stepped = mon._accept_step(prev, prev_gaps, cur, 1e-8)
        best = list(_brute_assignment(prev, cur))
        moves = mon._dist(prev, cur)[range(d), best]
        if cur_gaps.min() >= 1e-8 and np.all(
            moves <= 0.33 * np.maximum(cur_gaps[best], prev_gaps)
        ):
            # the optimal assignment passes the per-root test, so the
            # nearest-point map must not collide
            assert stepped is not None
        if stepped is None:
            continue
        accepted += 1
        np.testing.assert_array_equal(stepped[0], cur[:, best])
        assert list(mon._match(prev, cur)[0]) == best
    assert accepted > 20


def test_collision_is_rejected():
    # both old points lie nearest the new point 0.1
    prev, cur = _fibre([0.0, 0.2]), _fibre([0.1, 3.0])
    assert mon._match(prev, cur) is None
    assert mon._accept_step(prev, mon._gaps(prev), cur, 1e-8) is None


# -- reusing each loop's way out ------------------------------------------------------


def _round_trip_generators(fib, result):
    """Generators from tracking base -> circle -> base in full."""
    base = result.base_parameter
    start = mon._fiber_points(fib, base)
    gens = []
    for c, r in result.branch_parameters:
        circle = mon._loop_circles(base, [c], {c: r})[0]
        end = mon._track_path(fib, [base] + circle + [base], start)[-1]
        perm, moves = mon._match(end, start)
        assert moves.max() <= 0.2 * mon._gaps(start).min()
        if any(perm[i] != i for i in range(len(perm))):
            gens.append(tuple(int(j) for j in perm))
    return gens


def test_out_leg_reuse_matches_round_trip_for_foliation():
    rng = random.Random(3)
    fib = mon.pencil_fibration(corpus.foliation("fermat_3"), rng)
    r = mon.track_loops(fib, rng)
    assert r.generators == _round_trip_generators(fib, r)


# -- the group kernel against the breadth-first closure -------------------------------


def _closure_order(gens, degree) -> int:
    """Order of the group that ``gens`` generate, by listing its elements."""
    idp = tuple(range(degree))
    seen = {idp}
    frontier = [idp]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = tuple(g[h[i]] for i in range(degree))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def _cycle_type(perm) -> tuple:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            l += 1
        out.append(l)
    return tuple(sorted(out, reverse=True))


def test_group_kernel_matches_the_closure_on_random_generators():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randint(3, 6)
        gens = [tuple(rng.sample(range(d), d)) for _ in range(rng.randint(1, 3))]
        order, cycle_types = mon._order_and_cycle_types(gens)
        assert order == _closure_order(gens, d)
        assert cycle_types == [_cycle_type(g) for g in gens]


@pytest.mark.parametrize("name, seed", [
    ("fermat_3", 3), ("cyclic_cubic_qh23", 3), ("halfchi_quartic", 3), ("dihedral_6", 107),
])
def test_group_kernel_matches_the_closure_on_tracked_generators(name, seed):
    r = mon.monodromy_of_foliation(corpus.foliation(name), seed=seed)
    assert r.generators
    assert r.group_order == _closure_order(r.generators, r.degree)
    assert r.cycle_types == [_cycle_type(g) for g in r.generators]


# -- the dihedral cross-checks --------------------------------------------------------


@pytest.mark.parametrize("name, order, cycle_types", [
    ("dihedral_4", 4, [(2, 2)] * 3),
    ("dihedral_6", 6, [(2, 2, 2), (2, 2, 2), (3, 3)]),
])
def test_dihedral_cross_check(name, order, cycle_types):
    r = mon.cross_check(corpus.foliation(name), seed=107)
    assert r.group_order == order
    assert sorted(r.cycle_types) == cycle_types
    assert r.numeric_genus == 0


def test_analyze_reaches_monodromy_without_scipy(run_python):
    code = (
        "import sys\n"
        "from folgal import corpus\n"
        "from folgal.analyze import analyze\n"
        "r = analyze(corpus.foliation('dihedral_6'), numeric=True)\n"
        "assert r.monodromy is not None\n"
        "print('scipy' in sys.modules)\n"
    )
    assert run_python(code) == "False"


def test_import_folgal_loads_no_numpy(run_python):
    # the numeric monodromy names are exported lazily: numpy loads on first use
    code = (
        "import sys\n"
        "import folgal\n"
        "print('numpy' in sys.modules)\n"
        "names = ('cross_check', 'monodromy_of_foliation')\n"
        "assert set(names) <= set(folgal.__all__)\n"
        "from folgal import monodromy\n"
        "assert all(getattr(folgal, n) is getattr(monodromy, n) for n in names)\n"
    )
    assert run_python(code) == "False"


def test_exact_branching_keeps_monodromy_off_the_default_path():
    # the line map gives dihedral_6 its exact branching, so the default
    # analysis runs no numeric monodromy
    r = analyze(corpus.foliation("dihedral_6"))
    assert r.branching is not None
    assert r.monodromy is None
    assert "monodromy" not in r.timings


@pytest.mark.parametrize("name", ["dihedral_4", "dihedral_6", "fermat_4"])
def test_numeric_cycle_types_match_the_exact_branching(name):
    r = analyze(corpus.foliation(name), numeric=True)
    numeric = WeightedBranchingType.from_pairs(r.monodromy.degree, r.monodromy.numeric_bw)
    assert numeric == r.branching
    assert r.monodromy.numeric_genus == r.genus == 0


def test_numeric_monodromy_runs_only_on_request(monkeypatch):
    # without its exact branching, fermat_3 is a Galois verdict that the
    # numeric check would once have run for by default
    analyze_module = importlib.import_module("folgal.analyze")
    monkeypatch.setattr(analyze_module, "branching_and_genus", lambda F, verdict: None)
    r = analyze(corpus.foliation("fermat_3"))
    assert r.status == "galois" and r.branching is None
    assert r.monodromy is None
    assert "monodromy" not in r.timings
    r = analyze(corpus.foliation("fermat_3"), numeric=True)
    assert isinstance(r.monodromy, mon.MonodromyResult)
    assert "monodromy" in r.timings
    assert r.monodromy.numeric_genus == 0


def test_numeric_branching_disagreement_raises(monkeypatch):
    # fermat_3 has two totally ramified branch points; an exact type of
    # three, with the right genus, must fail against the numeric cycle types
    analyze_module = importlib.import_module("folgal.analyze")

    def wrong(F, verdict, seed=23):
        return WeightedBranchingType(F.degree, {(F.degree,): 3}), 0

    monkeypatch.setattr(analyze_module, "branching_and_genus", wrong)
    with pytest.raises(AssertionError, match="cycle types"):
        analyze(corpus.foliation("fermat_3"), numeric=True)


def test_numeric_genus_disagreement_raises(monkeypatch):
    # the right branching type with a wrong exact genus fails too
    analyze_module = importlib.import_module("folgal.analyze")
    wrong = lambda F, verdict: (WeightedBranchingType(F.degree, {(F.degree,): 2}), 1)
    monkeypatch.setattr(analyze_module, "branching_and_genus", wrong)
    with pytest.raises(AssertionError, match="numeric genus"):
        analyze(corpus.foliation("fermat_3"), numeric=True)
