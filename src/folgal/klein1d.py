"""Galois decision and Klein-group classification for rational self-maps of
the projective line.

The branch data is extracted exactly from the Wronskian: the critical
points and their indices from its squarefree parts, the branch values as
annihilator polynomials of the map's image in the quotient ring modulo each
part, factored into irreducible loci, and the points over each locus counted
by one gcd.  No root of a locus is adjoined and no fibre is decomposed (see
:func:`ramification_profile`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .multipoly import MultiPoly
from .numberfield import _trim, invert, poly_divmod, poly_gcd, poly_invmod
from .polyops import mpoly_gcd, squarefree_decompose
from .ratfunc import RationalFunction
from .sympy_bridge import factor_irreducible

ZVAR = ("z",)


class ClassificationContradiction(Exception):
    """Regular type with no matching finite Möbius group: internal bug."""


@dataclass(frozen=True)
class BinaryRationalMap:
    """Degree-d self-map of the line, f(z) = num(z)/den(z) in lowest terms."""

    num: MultiPoly
    den: MultiPoly

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> "BinaryRationalMap":
        if len(num.vars) != 1 or len(den.vars) != 1:
            raise ValueError("expected univariate data")
        if num.vars != ZVAR:
            num = num.rename_vars({num.vars[0]: "z"})
        if den.vars != ZVAR:
            den = den.rename_vars({den.vars[0]: "z"})
        if den.is_zero():
            raise ValueError("zero denominator; not a self-map")
        if num.is_zero():
            raise ValueError("zero map")
        reduced = RationalFunction(num, den)
        return BinaryRationalMap(reduced.num, reduced.den)

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def __str__(self):
        return f"({self.num}) / ({self.den})"


@dataclass
class BranchPointRecord:
    """One branch point class: locus (irreducible over the field, or None for
    the point at infinity) and the ramification profile of its fibre."""

    locus: MultiPoly | None
    profile: tuple
    weight: int

    def __str__(self):
        where = "infinity" if self.locus is None else str(self.locus)
        return f"{where}: {self.profile} (weight {self.weight})"


class WeightedBranchingType:
    """Multiset of (profile partition, weight)."""

    def __init__(self, degree: int, entries: dict):
        self.degree = degree
        self.entries = dict(entries)

    @classmethod
    def from_pairs(cls, degree: int, pairs) -> "WeightedBranchingType":
        """Sum the weights of ``(profile, weight)`` pairs per profile."""
        entries: dict = {}
        for profile, weight in pairs:
            entries[profile] = entries.get(profile, 0) + weight
        return cls(degree, entries)

    def size(self) -> int:
        """|b^w| = sum of weight * (degree - number of parts)."""
        return sum(w * (self.degree - len(p)) for p, w in self.entries.items())

    def as_sorted(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        return (
            isinstance(other, WeightedBranchingType)
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for profile, w in sorted(self.entries.items(), key=lambda kv: (-kv[0][0], kv)):
            rhos = set(profile)
            if len(rhos) == 1:
                body = f"({profile[0]})_{len(profile)}"
            else:
                body = "(" + ",".join(str(r) for r in profile) + ")"
            parts.append(body if w == 1 else f"{w}{body}")
        return " + ".join(parts)


@dataclass(frozen=True)
class KleinClass:
    tag: str  # cyclic | dihedral | tetrahedral | octahedral | icosahedral | not_galois
    order: int | None = None  # group order for Galois tags

    def is_galois(self) -> bool:
        return self.tag != "not_galois"

    def __str__(self):
        if self.tag == "cyclic":
            return f"Cyclic({self.order})"
        if self.tag == "dihedral":
            return f"Dihedral({self.order // 2})"
        return self.tag.capitalize() if self.is_galois() else "NotGalois"


# -- dense quotient-ring helpers -----------------------------------------------------


def _poly_mulmod(a, b, mod, fld):
    prod = [fld.zero()] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                prod[i + j] = prod[i + j] + x * y
    _, rem = poly_divmod(prod, mod, fld)
    return rem


def _value_annihilator(num, den, modulus, fld):
    """Monic minimal polynomial ``ann`` of ``w = num/den`` in
    ``fld[z]/(modulus)``, and the powers ``w^0, ..., w^deg(ann)`` modulo
    ``modulus`` (coefficient lists, low to high).  Each power is eliminated
    against the echelon rows of the ones before it, each row carrying the
    combination of powers it stands for; the first power that reduces to
    zero depends on the ones before it, and its combination is ``ann``.
    """
    n = len(modulus) - 1
    zero, one = fld.zero(), fld.one()
    inv_den = poly_invmod(den, modulus, fld)
    assert inv_den is not None, "denominator must be invertible here"
    w = _poly_mulmod(_trim(list(num)), inv_den, modulus, fld)
    powers = [[one]]
    rows = []  # (pivot, row with 1 at the pivot, combination of powers)
    while True:
        vec = powers[-1] + [zero] * (n - len(powers[-1]))
        combo = [zero] * (len(powers) - 1) + [one]
        for pivot, row, rcombo in rows:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
                combo = [a - c * b for a, b in zip(combo, rcombo)] + combo[len(rcombo):]
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            return combo, powers
        scale = invert(fld, vec[pivot])
        rows.append((pivot, [a * scale for a in vec], [a * scale for a in combo]))
        powers.append(_poly_mulmod(powers[-1], w, modulus, fld))


# -- profiles -------------------------------------------------------------------------


def _profile(d: int, counts: Counter) -> tuple:
    """Sorted profile: ``counts[e]`` points of index ``e > 1``, ones up to ``d``."""
    parts = [e for e, c in sorted(counts.items(), reverse=True) for _ in range(c)]
    assert sum(parts) <= d, "a fibre's indices must sum to at most the degree"
    return tuple(parts + [1] * (d - sum(parts)))


def ramification_profile(f: BinaryRationalMap) -> list[BranchPointRecord]:
    """Branch point records with loci over the working field, counted from
    the squarefree parts of the Wronskian ``W = num' den - num den'``.

    *Indices.*  As ``num`` and ``den`` are coprime, ``ord_z W = e_z - 1`` at
    every finite ``z``: off the poles ``f' = W / den^2``, and at a pole
    ``(1/f)' = -W / num^2`` with ``num(z) != 0``.  The ``e_z - 1`` sum to
    ``2d - 2`` (Riemann-Hurwitz), so ``e_inf - 1 = 2d - 2 - deg W``, and
    infinity maps to ``num_d / den_d``, or to infinity when ``deg den < d``.
    So the roots of the part of ``W`` of multiplicity ``m`` are the finite
    points of index ``m + 1``: those of ``gcd(part, den)`` over infinity,
    the roots ``z_j`` of the rest, ``work``, over finite values.

    *Counts.*  ``work`` is squarefree, so evaluation at the ``z_j`` embeds
    ``K[z]/(work)`` in a product of fields and sends ``w = num/den`` to the
    ``f(z_j)``; the minimal polynomial of ``w`` is the product of ``y - v``
    over the distinct values.  The ``z_j`` over the roots of one irreducible
    factor ``L`` are the roots of ``gcd(work, L(w))``, and the Galois group
    of ``K`` permutes the roots of ``L`` transitively, and the points over
    them with them; so each root of ``L`` has ``deg gcd / deg L`` of them.
    The other points of a fibre are unramified, and its indices sum to ``d``.
    """
    d = f.degree
    if d < 1:
        raise ValueError("constant map")
    if d == 1:
        return []
    field = f.field
    num, den = f.num, f.den
    wr = num.derivative("z") * den - num * den.derivative("z")
    if wr.is_zero():
        raise AssertionError("Wronskian vanished for a non-constant reduced map")
    ncoeffs, dcoeffs = num.coefficients("z"), den.coefficients("z")
    fibres: dict[MultiPoly, Counter] = {}  # locus -> index -> points over each value
    at_infinity: Counter = Counter()

    for fac, mult in squarefree_decompose(wr):
        # poles among these critical points map to infinity
        pole_part = mpoly_gcd(fac, den)
        work = fac
        if not pole_part.is_constant():
            at_infinity[mult + 1] += pole_part.total_degree()
            work = fac.exact_div(pole_part)
        if work.is_constant():
            continue
        mod = work.monic().coefficients("z")
        ann, powers = _value_annihilator(ncoeffs, dcoeffs, mod, field)
        values = MultiPoly.from_dict(field, ("y",), {(i,): c for i, c in enumerate(ann)})
        placed = 0
        for locus, _ in factor_irreducible(values):
            image = [field.zero()] * (len(mod) - 1)  # L(w) modulo work
            for c, power in zip(locus.coefficients("y"), powers):
                image[: len(power)] = [a + c * b for a, b in zip(image, power)]
            points = len(poly_gcd(mod, image, field)) - 1
            assert points % locus.total_degree() == 0, "conjugate values must split evenly"
            fibres.setdefault(locus, Counter())[mult + 1] += points // locus.total_degree()
            placed += points
        assert placed == len(mod) - 1, "every critical point must have one value"

    if wr.total_degree() < 2 * d - 2:  # critical point at infinity
        index = 2 * d - 1 - wr.total_degree()
        if len(dcoeffs) <= d:
            at_infinity[index] += 1
        else:
            value = (ncoeffs[d] if len(ncoeffs) > d else field.zero()) * invert(field, dcoeffs[d])
            locus = MultiPoly.from_dict(field, ("y",), {(1,): field.one(), (0,): -value})
            fibres.setdefault(locus, Counter())[index] += 1

    records = [BranchPointRecord(p, _profile(d, c), p.total_degree()) for p, c in fibres.items()]
    if at_infinity:
        records.append(BranchPointRecord(None, _profile(d, at_infinity), 1))
    total_ram = sum(r.weight * sum(e - 1 for e in r.profile) for r in records)
    if total_ram != 2 * d - 2:
        raise AssertionError(
            f"global ramification {total_ram} violates the degree bound {2*d-2}"
        )
    return records


def regular_type_test(f: BinaryRationalMap):
    """True iff every profile is constant (d/k parts of size k)."""
    records = ramification_profile(f)
    for rec in records:
        if len(set(rec.profile)) != 1:
            return False, rec, records
    return True, None, records


_TRIANGLE_ROWS = {
    # aggregated (index -> total locus weight) per Klein's table
    (12, ((2, 1), (3, 2))): ("tetrahedral", 12),
    (24, ((2, 1), (3, 1), (4, 1))): ("octahedral", 24),
    (60, ((2, 1), (3, 1), (5, 1))): ("icosahedral", 60),
}


@dataclass
class KleinOutcome:
    klein: KleinClass
    branching: WeightedBranchingType
    genus: int
    records: list

    def __str__(self):
        return f"{self.klein}; b^w = {self.branching}; genus {self.genus}"


def classify(f: BinaryRationalMap) -> KleinOutcome:
    """Klein class, weighted branching type and source genus of the map."""
    d = f.degree
    if d == 1:
        return KleinOutcome(
            KleinClass("cyclic", 1), WeightedBranchingType(1, {}), 0, []
        )
    regular, witness, records = regular_type_test(f)
    bw = WeightedBranchingType.from_pairs(d, ((r.profile, r.weight) for r in records))
    genus2 = 2 - 2 * d + bw.size()
    assert genus2 % 2 == 0
    genus = genus2 // 2
    if not regular:
        return KleinOutcome(KleinClass("not_galois"), bw, genus, records)

    if genus != 0:
        raise ClassificationContradiction(
            f"regular type with source genus {genus}; impossible on the line"
        )
    entries = bw.entries
    tag = None
    if set(entries) == {(d,) * 1} and entries[(d,)] == 2:
        tag = KleinClass("cyclic", d)
    elif d % 2 == 0:
        n = d // 2
        dihedral = {(2,) * n: 2, (n, n): 1} if n != 2 else {(2, 2): 3}
        if entries == dihedral:
            tag = KleinClass("dihedral", d)
    if tag is None:
        triangle: dict[int, int] = {}
        ok = True
        for profile, w in entries.items():
            rhos = set(profile)
            if len(rhos) != 1:
                ok = False
                break
            rho = next(iter(rhos))
            triangle[rho] = triangle.get(rho, 0) + w
        if ok:
            key = (d, tuple(sorted(triangle.items())))
            if key in _TRIANGLE_ROWS:
                name, order = _TRIANGLE_ROWS[key]
                tag = KleinClass(name, order)
    if tag is None:
        raise ClassificationContradiction(
            f"regular type map of degree {d} matches no finite Möbius group: {bw}"
        )
    return KleinOutcome(tag, bw, genus, records)
