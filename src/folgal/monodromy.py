"""Floating-point monodromy of tangency fibrations.

Tracks the d tangency points of a foliation along loops in a generic pencil
of lines, recovers the permutation generators, the group order and cycle
types (by sympy's permutation groups), and a numeric genus via
Riemann-Hurwitz.  Results are never certified; they corroborate the symbolic
verdicts.  Nothing runs it unless asked: ``analyze(F, numeric=True)`` or
``folgal analyze --numeric``.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multipoly import MultiPoly
from .polyops import resultant, squarefree_part
from .foliation import PlaneFoliation

SU = ("s", "u")

# the tracker's constants: fibre points closer than COLLISION (chordal) are a
# collision, and a step shorter than FLOOR in parameter length gives up
COLLISION = 1e-8
FLOOR = 1e-12
PENCIL_ATTEMPTS = 5  # random pencils tried by pencil_fibration
FIBRATION_ATTEMPTS = 5  # fibrations tracked before the monodromy gives up
CLUSTER_TOL = 1e-6  # relative distance under which branch candidates merge


class TrackingFailure(Exception):
    pass


class DegeneratePencil(Exception):
    pass


@dataclass
class Fibration:
    """Family q_s(u) of degree-d fibre polynomials with numeric coefficients.

    ``table[r, k]`` is the coefficient of s^(m-r) u^(d-k): rows run high to
    low in s and columns high to low in u, so one Horner pass over the rows
    gives the coefficients of q_s in the order ``np.roots`` takes.
    """

    degree: int
    table: np.ndarray
    branch_candidates: list

    def coeffs_at(self, s: complex) -> np.ndarray:
        acc = self.table[0]
        for row in self.table[1:]:
            acc = acc * s + row
        return acc  # high to low in u


@dataclass
class MonodromyResult:
    base_parameter: complex
    branch_parameters: list
    generators: list
    group_order: int
    cycle_types: list
    numeric_bw: list
    numeric_genus: int
    degree: int
    galois_flag: bool | None = None


# -- fibration construction ---------------------------------------------------------


def _numeric_roots(poly: MultiPoly, var: str) -> list[complex]:
    """Roots of the squarefree part, so every numeric root is simple."""
    if poly.total_degree() > 0:
        poly = squarefree_part(poly)
    vec = [complex(c) for c in poly.coefficients(var)]
    arr = np.array(list(reversed(vec)), dtype=complex)
    arr = np.trim_zeros(arr, "f")
    if arr.size <= 1:
        return []
    return list(np.roots(arr))


def _fibration(q: MultiPoly, candidates: list, d: int) -> Fibration:
    """Numeric fibration of q(s, u), degree d in u, with the branch
    ``candidates`` and the roots of its leading coefficient in u."""
    coeffs = q.univariate_coeffs("u")  # low to high in u
    candidates = list(candidates)
    if not coeffs[d].is_constant():
        candidates += _numeric_roots(coeffs[d], "s")
    m = max(c.degree_in("s") for c in coeffs)
    table = np.zeros((m + 1, d + 1), dtype=complex)
    for k, cpoly in enumerate(coeffs):
        for e, c in cpoly.terms.items():
            table[m - e[0], d - k] = complex(c)
    return Fibration(d, table, candidates)


def pencil_fibration(F: PlaneFoliation, rng: random.Random) -> Fibration:
    """Tangency fibration over a generic pencil of lines through a random point.

    The pencil parameter is twisted by a random rational direction frame so
    that no branch value sits at the parameter's infinity (verified later by
    the product-identity check).
    """
    d = F.degree
    field = F.field
    last_error = None
    for _ in range(PENCIL_ATTEMPTS):
        a0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        b0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-4, 4))
        c4 = Fraction(rng.randint(1, 4))
        # direction (lambda, mu) = (1 + c2*s, c4*s + c3)
        c3 = Fraction(rng.randint(-4, 4))
        s = MultiPoly.variable(field, SU, "s")
        u = MultiPoly.variable(field, SU, "u")
        lam = 1 + s.scale(c2)
        mu = s.scale(c4) + MultiPoly.constant(field, SU, c3)
        ca = MultiPoly.constant(field, SU, a0)
        cb = MultiPoly.constant(field, SU, b0)
        # point on line: (a + lam*u, b + mu*u); tangency: mu*A - lam*B = 0
        xs = ca + lam * u
        ys = cb + mu * u
        sub = {"x": xs, "y": ys}
        abar = F.a_bar.substitute(sub, target=SU)
        bbar = F.b_bar.substitute(sub, target=SU)
        cbar = F.c_bar.substitute(sub, target=SU)
        const = mu * ca - lam * cb
        q = mu * abar - lam * bbar + const * cbar
        if q.degree_in("u") != d:
            last_error = "tangency family dropped degree"
            continue
        disc = resultant(q, q.derivative("u"), "u")  # Res_u(q, dq/du), in s
        if disc.is_zero():
            last_error = "discriminant vanished identically"
            continue
        return _fibration(q, _numeric_roots(disc, "s"), d)
    raise DegeneratePencil(
        f"foliation too degenerate for a numeric pencil: {last_error}"
    )


# -- tracking --------------------------------------------------------------------------


def _fiber_points(fib: Fibration, s: complex) -> np.ndarray:
    """Roots of q_s as points of the sphere in unit homogeneous coordinates.

    Column i of the 2 x d result is (a_i, b_i) with |a_i|^2 + |b_i|^2 = 1 and
    root a_i / b_i; b_i = 0 at infinity.  Leading coefficients below 1e-11 of
    the largest, and roots beyond 1e9, count as roots at infinity.
    """
    arr = fib.coeffs_at(s)
    size = np.abs(arr)
    scale = size.max()
    if scale == 0:
        raise TrackingFailure("fibre polynomial vanished identically")
    pad = int(np.argmax(size >= 1e-11 * scale))
    u = np.concatenate([np.full(pad, np.inf, dtype=complex), np.roots(arr[pad:])])
    finite = np.abs(u) <= 1e9
    norm = np.sqrt(1.0 + np.abs(np.where(finite, u, 0)) ** 2)
    return np.array([np.where(finite, u, 1), finite]) / norm


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Chordal distances: entry (i, j) is |a_i b'_j - b_i a'_j| between point
    i of ``p`` and point j of ``q``.  For finite roots u, v this is
    |u - v| / sqrt((1 + |u|^2)(1 + |v|^2)); a finite u lies at
    1 / sqrt(1 + |u|^2) from infinity, and infinity at 0 from itself."""
    return np.abs(np.outer(p[0], q[1]) - np.outer(p[1], q[0]))


def _gaps(p: np.ndarray) -> np.ndarray:
    """Each point's chordal distance to its nearest neighbour in ``p``."""
    dist = _dist(p, p)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _match(prev: np.ndarray, cur: np.ndarray):
    """Nearest-point map prev -> cur in the chordal metric.

    Returns ``(perm, moves)`` with ``perm[i]`` the index in ``cur`` nearest to
    point i of ``prev`` and ``moves[i]`` that distance, or None when two
    points of ``prev`` share a nearest point.  An injective map takes every
    row's minimum, so it is an optimal assignment.  Conversely, let a
    bijection pi move each point k by d_k <= c * max(gap of k in ``prev``,
    gap of pi(k) in ``cur``) with c < 1/2.  If point i were no farther from
    pi(k), k != i, than from pi(i), the triangle inequality would bound all
    four of those gaps by 2 d_i or d_i + d_k, and then d_i, d_k <= c times
    the larger of the two forces c >= 1/2.  So the map is pi, and with the
    tracker's constants (0.33 per step, 0.2 of the smallest gap at a loop's
    end) a collision here fails every test that an optimal assignment could
    have passed.
    """
    dist = _dist(prev, cur)
    perm = dist.argmin(axis=1)
    if len(set(perm.tolist())) < len(perm):
        return None
    return perm, dist[np.arange(len(perm)), perm]


def _accept_step(prev, prev_gaps, nxt, collision):
    """One step of ``_track_path``'s test: ``nxt`` reordered to continue
    ``prev``, with its gaps, or None if the step is rejected."""
    nxt_gaps = _gaps(nxt)
    if nxt_gaps.min() < collision:
        return None
    matched = _match(prev, nxt)
    if matched is None:
        return None
    perm, moves = matched
    if np.any(moves > 0.33 * np.maximum(nxt_gaps[perm], prev_gaps)):
        return None
    return nxt[:, perm], nxt_gaps[perm]


def _track_path(fib, path, start):
    """Follow the fibre along a piecewise-linear path.

    Returns the fibre at every vertex of ``path``, each ordered as continued
    from ``start``.  A step from fibre P to fibre N is accepted iff the
    nearest-point map sigma: P -> N is injective, no two points of N are
    closer than ``COLLISION``, and every point i moves at most
    0.33 * max(gap_N(sigma(i)), gap_P(i)), where a point's gap is its
    distance to its nearest neighbour in its own fibre.  Each root is thus
    held to its own neighbourhood: roots in a tight cluster take small steps
    while an isolated root does not throttle them.  Since 0.33 < 1/2, every
    accepted sigma is the optimal assignment (see ``_match``).  A rejected
    step halves, down to ``FLOOR`` in parameter length.
    """
    pts = start
    gaps = _gaps(start)
    fibres = [start]
    for seg_start, seg_end in zip(path, path[1:]):
        cur_t = 0.0
        step = 0.25
        while cur_t < 1.0 - 1e-15:
            target = min(1.0, cur_t + step)
            s_next = seg_start + (seg_end - seg_start) * target
            stepped = _accept_step(pts, gaps, _fiber_points(fib, s_next), COLLISION)
            if stepped is None:
                step /= 2
                if step * abs(seg_end - seg_start) < FLOOR:
                    raise TrackingFailure(f"step floor reached near s={s_next}")
                continue
            pts, gaps = stepped
            cur_t = target
            step = min(0.25, step * 1.6)
        fibres.append(pts)
    return fibres


def _loop_circles(base: complex, centers: list, radii: dict):
    """One closed polygon of 24 chords around each centre, starting and
    ending at the point that faces ``base``."""
    circles = []
    for c in centers:
        direction = (c - base) / abs(c - base)
        narc = 24
        circle = [
            c - direction * radii[c] * cmath.exp(2j * cmath.pi * k / narc)
            for k in range(narc)
        ]
        circles.append(circle + circle[:1])
    return circles

def track_loops(fib: Fibration, rng: random.Random) -> MonodromyResult:
    """Permutation generators around every branch parameter, with the order
    and the cycle types of the group they generate."""
    d = fib.degree
    centers = _cluster(fib.branch_candidates)
    if not centers:
        return MonodromyResult(0j, [], [], 1, [], [], 1 - d, d)
    spread = max(abs(c) for c in centers) + 1.0
    # base point far away, at a random angle; prefer angles whose rays clear
    # every foreign disk, but accept crowded geometries on later attempts
    # (a ray's lift is undone on the way back, so it never winds a foreign
    # point; only numerical root collisions matter, and the tracker guards
    # those)
    for attempt in range(16):
        lenient = attempt >= 8
        theta = rng.uniform(0, 2 * cmath.pi)
        base = 3.0 * spread * cmath.exp(1j * theta)
        radii = {}
        ok = True
        for c in centers:
            others = [abs(c - o) for o in centers if o != c]
            r = min([abs(base - c) / 3.0] + [o / 3.0 for o in others])
            if r <= 0:
                ok = False
                break
            radii[c] = r
        if not ok:
            continue

        def clears(cj):
            seg = cj - base
            for ck in centers:
                if ck == cj:
                    continue
                tt = ((ck - base).conjugate() * seg).real / abs(seg) ** 2
                tt = min(1.0, max(0.0, tt))
                dist = abs(base + tt * seg - ck)
                if dist < 2.2 * radii[ck]:
                    return False
            return True

        if not lenient and not all(clears(c) for c in centers):
            continue
        ordered = sorted(centers, key=lambda c: cmath.phase(c - base))
        circles = _loop_circles(base, ordered, radii)
        start = _fiber_points(fib, base)
        if _gaps(start).min() < COLLISION:
            continue
        gens = []
        try:
            for circle in circles:
                # lift the way out once: the way back retraces it, so its
                # lift inverts the outbound one and the loop lift from
                # start[i] ends at start[j] when psi[i] lands on phi[j]
                fibres = _track_path(fib, [base] + circle, start)
                phi, psi = fibres[1], fibres[-1]
                matched = _match(psi, phi)
                if matched is None or matched[1].max() > 0.2 * _gaps(phi).min():
                    raise TrackingFailure("loop did not close on its start fibre")
                gens.append(tuple(int(j) for j in matched[0]))
        except TrackingFailure:
            continue
        prod = tuple(range(d))
        for g in gens:
            prod = tuple(g[prod[i]] for i in range(d))
        if any(prod[i] != i for i in range(d)):
            # a branch value sits at the parameter's infinity: the fibration
            # needs a different twist, which the caller controls
            raise TrackingFailure("nontrivial monodromy around parameter infinity")
        nontrivial = [g for g in gens if any(g[i] != i for i in range(d))]
        if d > 1 and not nontrivial:
            continue
        order, cycle_types = _order_and_cycle_types(nontrivial)
        ram = sum(sum(e - 1 for e in ct) for ct in cycle_types)
        if ram % 2:
            continue
        genus = 1 - d + ram // 2
        bw = [(ct, 1) for ct in cycle_types]
        return MonodromyResult(
            base, [(c, radii[c]) for c in ordered], nontrivial, order,
            cycle_types, bw, genus, d,
        )
    raise TrackingFailure("could not obtain a consistent loop system")


def _order_and_cycle_types(gens) -> tuple:
    """The order of the group that the permutations ``gens`` (image tuples)
    generate, and the cycle type of each, longest cycle first.  sympy's
    permutation groups are imported here, so only a numeric run loads them."""
    from sympy.combinatorics import Permutation, PermutationGroup

    perms = [Permutation(list(g)) for g in gens]
    cycle_types = [
        tuple(sorted((l for l, n in g.cycle_structure.items() for _ in range(n)), reverse=True))
        for g in perms
    ]
    return (PermutationGroup(perms).order() if perms else 1), cycle_types


def _cluster(values):
    if not values:
        return []
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(v) for v in vals))
    out = []
    for v in vals:
        for i, c in enumerate(out):
            if abs(v - c[0]) < CLUSTER_TOL * scale:
                out[i] = ((c[0] * c[1] + v) / (c[1] + 1), c[1] + 1)
                break
        else:
            out.append((v, 1))
    return [c[0] for c in out]


# -- top-level cross-checks ---------------------------------------------------------


def monodromy_of_foliation(F: PlaneFoliation, seed: int = 11) -> MonodromyResult:
    """Track the pencils that ``pencil_fibration`` draws until one gives a
    consistent loop system; the last failure is raised otherwise."""
    rng = random.Random(seed)
    for _ in range(FIBRATION_ATTEMPTS):
        fib = pencil_fibration(F, rng)
        try:
            result = track_loops(fib, rng)
        except TrackingFailure as exc:
            last = exc
            continue
        result.galois_flag = result.group_order == F.degree
        return result
    raise last


def cross_check(F: PlaneFoliation, seed: int = 11) -> MonodromyResult:
    """Monodromy from two independent pencils; they must agree on the order
    and the multiset of cycle types."""
    first = monodromy_of_foliation(F, seed)
    second = monodromy_of_foliation(F, seed + 1000)
    if first.group_order != second.group_order or sorted(
        first.cycle_types
    ) != sorted(second.cycle_types):
        raise TrackingFailure("independent pencils disagree")
    return first
