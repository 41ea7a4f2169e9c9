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

from .multipoly import MultiPoly
from .numberfield import _trim, extend, fresh_name, invert, poly_divmod
from .polyops import mpoly_gcd, squarefree_decompose
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
        g = mpoly_gcd(num, den)
        if not g.is_constant():
            num = num.exact_div(g)
            den = den.exact_div(g)
        inv = invert(num.field, den.leading_coefficient())
        return BinaryRationalMap(num.scale(inv), den.scale(inv))

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def eval_complex(self, zval: complex) -> complex:
        return self.num.eval_complex({"z": zval}) / self.den.eval_complex({"z": zval})

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
    def from_records(cls, degree: int, records) -> "WeightedBranchingType":
        entries: dict = {}
        for rec in records:
            entries[rec.profile] = entries.get(rec.profile, 0) + rec.weight
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


def _coeff_list(p: MultiPoly):
    return [c.constant_value() for c in p.univariate_coeffs(p.vars[0])]


def _from_coeffs(field, coeffs, var="z") -> MultiPoly:
    return MultiPoly.from_dict(field, (var,), {(i,): c for i, c in enumerate(coeffs)})


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


def _poly_invmod(a, mod, fld):
    """Inverse of ``a`` modulo ``mod`` over a field layer, or None."""
    r0, s0 = list(mod), []
    r1, s1 = _trim(list(a)), [fld.one()]
    while r1:
        if len(r1) == 1:
            inv = invert(fld, r1[0])
            out = [c * inv for c in s1]
            _, rem = poly_divmod(out, mod, fld)
            return rem
        q, r = poly_divmod(r0, r1, fld)
        new_s = list(s0)
        need = len(q) + len(s1) - 1
        while len(new_s) < need:
            new_s.append(fld.zero())
        for i, qc in enumerate(q):
            if not qc:
                continue
            for j, sc in enumerate(s1):
                if sc:
                    new_s[i + j] = new_s[i + j] - qc * sc
        r0, s0 = r1, s1
        r1, s1 = _trim(r), _trim(new_s)
    return None


def _value_annihilator(num, den, modulus, fld):
    """Monic annihilator of num/den in fld[z]/(modulus); roots = value set."""
    n = len(modulus) - 1
    inv_den = _poly_invmod(den, modulus, fld)
    assert inv_den is not None, "denominator must be invertible here"
    w = _poly_mulmod(_trim(list(num)), inv_den, modulus, fld)
    # incremental echelon over fld; rows: (vector, pivot, combo)
    zero = fld.zero()
    one = fld.one()
    rows = []
    power = [one] + [zero] * (n - 1)
    combos = []
    k = 0
    while True:
        vec = list(power) + [zero] * (n - len(power))
        combo = [zero] * (k + 1)
        combo[k] = one
        for rvec, pivot, rcombo in rows:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, rvec)]
                size = max(len(combo), len(rcombo))
                ca = combo + [zero] * (size - len(combo))
                cb = rcombo + [zero] * (size - len(rcombo))
                combo = [a - c * b for a, b in zip(ca, cb)]
        if not any(vec):
            # monic annihilator of degree k from the combo
            inv = invert(fld, combo[k])
            return [c * inv for c in combo]
        pivot = next(i for i, c in enumerate(vec) if c)
        inv = invert(fld, vec[pivot])
        vec = [c * inv for c in vec]
        combo = [c * inv for c in combo]
        rows.append((vec, pivot, combo))
        power = _poly_mulmod(power, w, modulus, fld)
        k += 1
        if k > n:
            raise AssertionError("annihilator search exceeded the ring dimension")


# -- profiles -------------------------------------------------------------------------


def _fiber_profile(f: BinaryRationalMap, value_field, value) -> tuple:
    """Sorted ramification profile of the fibre over a finite value."""
    num = f.num.to_field(value_field) if value_field is not f.field else f.num
    den = f.den.to_field(value_field) if value_field is not f.field else f.den
    fib = num - den.scale(value)
    if fib.is_zero():
        raise ValueError("constant map has no fibres")
    d = f.degree
    parts = []
    drop = d - fib.total_degree()
    if drop > 0:
        parts.append(drop)
    for fac, mult in squarefree_decompose(fib):
        parts.extend([mult] * fac.total_degree())
    assert sum(parts) == d, "profile must partition the degree"
    return tuple(sorted(parts, reverse=True))


def _infinity_profile(f: BinaryRationalMap) -> tuple:
    d = f.degree
    parts = []
    drop = d - f.den.total_degree()
    if drop > 0:
        parts.append(drop)
    for fac, mult in squarefree_decompose(f.den):
        parts.extend([mult] * fac.total_degree())
    assert sum(parts) == d
    return tuple(sorted(parts, reverse=True))


def _infinity_value_locus(f: BinaryRationalMap):
    """Value of f at z = infinity: None for infinity, else a linear locus root."""
    d = f.degree
    ntop = f.num.univariate_coeffs("z")
    dtop = f.den.univariate_coeffs("z")
    ncoef = ntop[d].constant_value() if len(ntop) > d else None
    dcoef = dtop[d].constant_value() if len(dtop) > d else None
    if dcoef is None or not dcoef:
        return None  # value infinity
    if ncoef is None:
        ncoef = f.field.zero()
    return ncoef * invert(f.field, dcoef)


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
        mod = _coeff_list(work.monic())
        ann = _value_annihilator(_coeff_list(num), _coeff_list(den), mod, field)
        finite_loci.append(_from_coeffs(field, ann, "y"))

    if wr.total_degree() < 2 * d - 2:  # critical point at infinity
        v = _infinity_value_locus(f)
        if v is None:
            has_infinity_value = True
        else:
            note_value_linear(v)

    # split into irreducible loci and deduplicate
    seen: list[MultiPoly] = []
    for locus in finite_loci:
        pieces = [(locus, 1)] if locus.total_degree() == 1 else factor_irreducible(locus)
        for p, _ in pieces:
            p = p.monic()
            if all(p != q for q in seen):
                seen.append(p)

    records = []
    for locus in seen:
        deg = locus.total_degree()
        coeffs = _coeff_list(locus)
        if deg == 1:
            profile = _fiber_profile(f, field, -coeffs[0])
        else:
            ext = extend(field, fresh_name(field, "w"), coeffs[:-1])
            profile = _fiber_profile(f, ext, ext.gen())
        records.append(BranchPointRecord(locus, profile, deg))

    if has_infinity_value:
        records.append(BranchPointRecord(None, _infinity_profile(f), 1))

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
    bw = WeightedBranchingType.from_records(d, records)
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
