"""Galois decision and Klein-group classification for rational self-maps of
the projective line.

The branch data is extracted exactly: critical points from the Wronskian's
squarefree structure, branch values as annihilator polynomials of the map's
image in the quotient ring modulo each critical factor, and ramification
profiles from squarefree decompositions of the fibre polynomial.  A
nonlinear branch locus is factored into irreducible loci, and each is
evaluated once over the field with one of its roots adjoined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import kernel_basis
from .multipoly import MultiPoly
from .numberfield import _trim, adjoin_root, invert, poly_divmod, poly_invmod
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
    """Monic annihilator of num/den in fld[z]/(modulus); roots = value set.

    The columns of the matrix are the powers 1, w, ..., w^n of w = num/den
    in the basis 1, z, ..., z^(n-1).  Its first free column is the first
    power that depends on the ones before it, and every pivot row to its
    right is zero there, so the first kernel vector is the monic minimal
    polynomial of w.
    """
    n = len(modulus) - 1
    inv_den = poly_invmod(den, modulus, fld)
    assert inv_den is not None, "denominator must be invertible here"
    w = _poly_mulmod(_trim(list(num)), inv_den, modulus, fld)
    powers = [[fld.one()]]
    for _ in range(n):
        powers.append(_poly_mulmod(powers[-1], w, modulus, fld))
    matrix = [[p[i] if i < len(p) else fld.zero() for p in powers] for i in range(n)]
    return _trim(kernel_basis(matrix, fld)[0])


# -- profiles -------------------------------------------------------------------------


def _fiber_profile(d: int, fib: MultiPoly) -> tuple:
    """Sorted ramification profile of a degree-``d`` map's fibre with the
    fibre polynomial ``fib``: ``num - value * den`` over a finite value,
    ``den`` over infinity.  The degree that ``fib`` lacks is the
    multiplicity at z = infinity."""
    if fib.is_zero():
        raise ValueError("constant map has no fibres")
    parts = []
    drop = d - fib.total_degree()
    if drop > 0:
        parts.append(drop)
    for fac, mult in squarefree_decompose(fib):
        parts.extend([mult] * fac.total_degree())
    assert sum(parts) == d, "profile must partition the degree"
    return tuple(sorted(parts, reverse=True))


def _infinity_value_locus(f: BinaryRationalMap):
    """Value of f at z = infinity: None for infinity, else a linear locus root."""
    d = f.degree
    if f.den.degree_in("z") < d:
        return None  # value infinity
    ntop = f.num.coefficients("z")
    ncoef = ntop[d] if len(ntop) > d else f.field.zero()
    return ncoef * invert(f.field, f.den.leading_coefficient())


def ramification_profile(f: BinaryRationalMap) -> list[BranchPointRecord]:
    """Branch point records with loci over the working field."""
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

    finite_loci: list[MultiPoly] = []
    has_infinity_value = False

    def note_value_linear(v):
        z = MultiPoly.variable(field, ("y",), "y")
        finite_loci.append(z - MultiPoly.constant(field, ("y",), v))

    for fac, _mult in squarefree_decompose(wr):
        # poles among these critical points map to infinity
        pole_part = mpoly_gcd(fac, den)
        work = fac
        if not pole_part.is_constant():
            has_infinity_value = True
            work = fac.exact_div(pole_part)
        if work.is_constant():
            continue
        mod = work.monic().coefficients("z")
        ann = _value_annihilator(num.coefficients("z"), den.coefficients("z"), mod, field)
        finite_loci.append(MultiPoly.from_dict(field, ("y",), {(i,): c for i, c in enumerate(ann)}))

    if wr.total_degree() < 2 * d - 2:  # critical point at infinity
        v = _infinity_value_locus(f)
        if v is None:
            has_infinity_value = True
        else:
            note_value_linear(v)

    # split into irreducible loci and deduplicate
    seen: list[MultiPoly] = []
    for locus in finite_loci:
        for p, _ in factor_irreducible(locus):
            if all(p != q for q in seen):
                seen.append(p)

    records = []
    for locus in seen:
        value_field, value = adjoin_root(locus, "w")
        fib = num.to_field(value_field) - den.to_field(value_field).scale(value)
        records.append(BranchPointRecord(locus, _fiber_profile(d, fib), locus.total_degree()))

    if has_infinity_value:
        records.append(BranchPointRecord(None, _fiber_profile(d, den), 1))

    records = [r for r in records if any(e > 1 for e in r.profile)]
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
