"""u-adic lattices with exact Laurent-polynomial generator matrices.

The comparison side of the package.  A lattice is a full-rank module over
the local ring at u inside F_q(u), held by a canonical generator matrix so
that equality is plain matrix comparison.  On top of the elementary-divisor
type sit the coweight chains, cell and variety membership, the
four-condition two-lattice test, and the transfer that sends a validated
special-fiber point to its lattice pair together with the fiber bookkeeping
matching cells against (h, l) labels.

Two rank parities occur.  Even rank uses the base lattice with the first
half of the standard basis divided by u and satisfies dual(L) = u*L on its
locus; odd rank uses the plain integral lattice and dual(L) = L.  All
arithmetic is exact rational-function arithmetic; no truncation enters any
check.
"""

from __future__ import annotations

from .errors import (AmbientMismatch, BadParameters, ConstructionFailed,
                     InvalidPoint, NotInGrassmannian, NotInZ, Singular,
                     UnrecognizedType)
from .linalg import Matrix, Subspace, inverse, smith_form_local
from .points import ModelPoint, invariants
from .rings import FunctionField, PrimeField

VARIANTS = ("selfdual", "pimodular")


def _check_variant(variant: str, n: int = None):
    if variant not in VARIANTS:
        raise BadParameters(f"unknown variant {variant!r}")
    if n is not None:
        if variant == "pimodular" and n % 2 != 0:
            raise BadParameters("the pimodular variant needs even rank")
        if variant == "selfdual" and n % 2 == 0:
            raise BadParameters("the selfdual variant needs odd rank")


def laurent_text(x) -> str:
    """Canonical string form of a Laurent polynomial: terms in descending
    exponent order, literal * and ^, coefficient always printed."""
    if x.is_zero():
        return "0"
    lo, coeffs = x.laurent_coeffs()
    var = x.ring.var
    parts = []
    for off in range(len(coeffs) - 1, -1, -1):
        c = coeffs[off]
        if c.is_zero():
            continue
        e = lo + off
        if e == 0:
            parts.append(repr(c))
        elif e == 1:
            parts.append(f"{c!r}*{var}")
        else:
            parts.append(f"{c!r}*{var}^{e}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _hermite_columns(field: FunctionField, cols, n: int) -> Matrix:
    """Column Hermite form over the local ring at the field's variable.

    Pivoting is by minimal valuation, so the result is lower triangular
    with exact variable-power pivots; entries left of each pivot are the
    Laurent tails below the pivot exponent.  The form is the unique such
    representative of the column span, which makes lattice equality a
    matrix comparison.  Raises Singular when the span has rank below n.
    """
    work = []
    for c in cols:
        c = [field.coerce(x) for x in c]
        if len(c) != n:
            raise AmbientMismatch("column length does not match the rank")
        if any(not x.is_zero() for x in c):
            work.append(c)
    pivots = []
    for i in range(n):
        best = None
        for idx, c in enumerate(work):
            if c[i].is_zero():
                continue
            v = c[i].valuation()
            if best is None or v < best[0]:
                best = (v, idx)
        if best is None:
            raise Singular("columns do not span a full-rank lattice")
        v, idx = best
        p = work.pop(idx)
        unit = field.monomial(v) / p[i]
        p = [unit * x for x in p]
        uv = field.monomial(v)
        for c in work:
            if not c[i].is_zero():
                q = c[i] / uv
                for r in range(i, n):
                    c[r] = c[r] - q * p[r]
        pivots.append((v, p))
        work = [c for c in work if any(not x.is_zero() for x in c)]
    # reduce entries left of each pivot to their tail below the pivot power
    for i in range(1, n):
        ai, pcol = pivots[i]
        ua = field.monomial(ai)
        for j in range(i):
            cj = pivots[j][1]
            x = cj[i]
            if x.is_zero():
                continue
            rem = x.truncate_below(ai)
            q = (x - rem) / ua
            if not q.is_zero():
                for r in range(i, n):
                    cj[r] = cj[r] - q * pcol[r]
    data = [[pivots[j][1][i] for j in range(n)] for i in range(n)]
    return Matrix(field, data, coerce=False)


class LaurentLattice:
    """Full-rank lattice in field^n, canonicalized on construction.

    ``gens`` may be a Matrix whose columns generate the lattice (any number
    of columns at least n) or an iterable of column vectors.
    """

    __slots__ = ("ring", "n", "matrix")

    def __init__(self, field: FunctionField, gens):
        if not isinstance(field, FunctionField):
            raise BadParameters("lattices live over a rational function field")
        if isinstance(gens, Matrix):
            if gens.ring is not field:
                raise AmbientMismatch("generator matrix over the wrong field")
            n = gens.nrows
            cols = gens.cols()
        else:
            cols = [list(c) for c in gens]
            if not cols:
                raise BadParameters("a lattice needs at least one generator")
            n = len(cols[0])
        self.ring = field
        self.n = n
        self.matrix = _hermite_columns(field, cols, n)

    def scaled(self, c) -> "LaurentLattice":
        c = self.ring.coerce(c)
        if c.is_zero():
            raise BadParameters("cannot scale a lattice by zero")
        return LaurentLattice(self.ring, self.matrix * c)

    def contains_vector(self, vec) -> bool:
        v = [self.ring.coerce(x) for x in vec]
        if len(v) != self.n:
            raise AmbientMismatch("vector length does not match the rank")
        sol = inverse(self.matrix).apply_to_vector(v)
        return all(x.is_integral() for x in sol)

    def __eq__(self, other):
        return (isinstance(other, LaurentLattice) and other.ring is self.ring
                and other.matrix == self.matrix)

    def __hash__(self):
        return hash((id(self.ring), self.matrix))

    def __repr__(self):
        diag = ", ".join(laurent_text(self.matrix.data[i][i])
                         for i in range(self.n))
        return f"LaurentLattice(rank {self.n}, diag [{diag}])"

    def to_json_dict(self):
        return {
            "rank": self.n,
            "matrix": [[laurent_text(x) for x in row]
                       for row in self.matrix.data],
        }


def standard_lattice(field: FunctionField, n: int, index: int) -> LaurentLattice:
    """The lattice whose first ``index`` standard basis vectors are divided
    by the variable; index 0 is the plain integral lattice."""
    if not 0 <= index <= n:
        raise BadParameters("index must lie between 0 and the rank")
    uinv = field.monomial(-1)
    entries = [uinv] * index + [field.one] * (n - index)
    return LaurentLattice(field, Matrix.diagonal(field, entries))


def base_lattice(field: FunctionField, n: int, variant: str) -> LaurentLattice:
    """The reference lattice of each variant: half-shifted for even rank,
    integral for odd rank."""
    _check_variant(variant, n)
    return standard_lattice(field, n, n // 2 if variant == "pimodular" else 0)


def hermitian_gram(field: FunctionField, n: int) -> Matrix:
    """Gram matrix of the split form in the standard basis: antidiagonal
    identity, its own inverse."""
    z, o = field.zero, field.one
    return Matrix(field, [[o if i + j == n - 1 else z for j in range(n)]
                          for i in range(n)], coerce=False)


def lattice_dual(L: LaurentLattice, form: str = "hermitian-phi") -> LaurentLattice:
    """Dual lattice.

    "hermitian-phi" uses the split sesquilinear form (variable sign-twist
    on the left argument, antidiagonal Gram); "symmetric-trace" uses its
    half-trace, which shifts the hermitian dual down by one power of the
    variable.  Both are involutions and obey dual(c*L) = twist(c)^-1 dual(L).
    """
    if form not in ("hermitian-phi", "symmetric-trace"):
        raise BadParameters(f"unknown dual form {form!r}")
    field = L.ring
    twisted = inverse(L.matrix).transpose().map_entries(lambda x: x.sigma())
    g = hermitian_gram(field, L.n) * twisted
    if form == "symmetric-trace":
        g = g * field.monomial(-1)
    return LaurentLattice(field, g)


def lattice_type(L: LaurentLattice, base: LaurentLattice):
    """Sorted elementary-divisor exponents of L relative to base."""
    if L.ring is not base.ring or L.n != base.n:
        raise AmbientMismatch("type needs two lattices of the same rank")
    rel = inverse(base.matrix) * L.matrix
    _, _, _, exps = smith_form_local(rel)
    return list(exps)


def quotient_profile(outer: LaurentLattice, inner: LaurentLattice):
    """Exponent profile of inner relative to outer, ascending.  All entries
    nonnegative exactly when inner is contained in outer; the sum is then
    the length of the quotient."""
    return lattice_type(inner, outer)


def lattice_contains(outer: LaurentLattice, inner: LaurentLattice) -> bool:
    return all(e >= 0 for e in quotient_profile(outer, inner))


# ---------------------------------------------------------------------------
# coweights and cells
# ---------------------------------------------------------------------------

class CoweightLabel:
    """Minuscule-chain coweight: index i within rank n, with the type
    vector (1 repeated i, 0 repeated n-2i, -1 repeated i)."""

    __slots__ = ("index", "variant", "n")

    def __init__(self, index: int, variant: str, n: int):
        _check_variant(variant, n)
        if not 0 <= index <= n // 2:
            raise BadParameters("coweight index must lie between 0 and n//2")
        self.index = index
        self.variant = variant
        self.n = n

    def type_vector(self):
        i = self.index
        return (1,) * i + (0,) * (self.n - 2 * i) + (-1,) * i

    def representative(self, field: FunctionField) -> Matrix:
        """Diagonal matrix translating the base lattice into this cell."""
        i, m = self.index, self.n // 2
        u = field.monomial(1)
        uinv_neg = field.monomial(-1, -1)
        entries = [u] * i + [field.one] * (m - i)
        if self.n % 2 == 1:
            entries.append(field.coerce(-1) if i % 2 == 1 else field.one)
        entries += [field.one] * (m - i) + [uinv_neg] * i
        return Matrix.diagonal(field, entries)

    def translated_base(self, field: FunctionField) -> LaurentLattice:
        base = base_lattice(field, self.n, self.variant)
        return LaurentLattice(field, self.representative(field) * base.matrix)

    def __eq__(self, other):
        return (isinstance(other, CoweightLabel) and other.index == self.index
                and other.variant == self.variant and other.n == self.n)

    def __hash__(self):
        return hash((self.index, self.variant, self.n))

    def __repr__(self):
        return f"CoweightLabel({self.index}, {self.variant!r}, n={self.n})"


def admissible_set(variant: str, s: int, m: int):
    """The descending coweight chain for signature parameter s.

    Odd-rank chains step by one down to index 0; even-rank chains step by
    two and end at index 1 or 0 according to the parity of s.
    """
    _check_variant(variant)
    if not 0 <= s <= m:
        raise BadParameters("need 0 <= s <= m")
    n = 2 * m if variant == "pimodular" else 2 * m + 1
    step = 2 if variant == "pimodular" else 1
    return [CoweightLabel(i, variant, n) for i in range(s, -1, -step)]


def schubert_dimension(i: int, n: int) -> int:
    """Dimension of the closure of the cell with index i in rank n."""
    if not 0 <= i <= n // 2:
        raise BadParameters("cell index out of range")
    return i * (n - i)


def schubert_cell(L: LaurentLattice, variant: str) -> int:
    """The unique cell index of a lattice on the variant's duality locus.

    Raises NotInGrassmannian when the duality fails and UnrecognizedType
    when the relative type is not a coweight type vector.
    """
    _check_variant(variant, L.n)
    d = lattice_dual(L)
    target = L.scaled(L.ring.monomial(1)) if variant == "pimodular" else L
    if d != target:
        raise NotInGrassmannian("lattice does not satisfy the duality relation")
    t = lattice_type(L, base_lattice(L.ring, L.n, variant))
    plus = sum(1 for e in t if e == 1)
    minus = sum(1 for e in t if e == -1)
    zero = sum(1 for e in t if e == 0)
    if plus != minus or plus + minus + zero != L.n:
        raise UnrecognizedType(f"type {tuple(t)} is not a coweight type")
    return plus


def in_schubert_variety(L: LaurentLattice, i: int, variant: str) -> bool:
    """Closure membership: cell index at most i, and matching parity in the
    even-rank variant."""
    return _in_closure(schubert_cell(L, variant), i, variant)


def _in_closure(k: int, i: int, variant: str) -> bool:
    """Whether cell k lies in the closure of cell i."""
    return k <= i and (variant == "selfdual" or (i - k) % 2 == 0)


# ---------------------------------------------------------------------------
# two-lattice membership test
# ---------------------------------------------------------------------------

class DemazureReport:
    """Outcome of the four printed conditions on a lattice pair."""

    __slots__ = ("variant", "index", "conditions", "details")

    def __init__(self, variant, index, conditions, details):
        self.variant = variant
        self.index = index
        self.conditions = tuple(conditions)
        self.details = tuple(details)

    @property
    def ok(self):
        return all(self.conditions)

    def to_json_dict(self):
        return {
            "variant": self.variant,
            "index": self.index,
            "conditions": list(self.conditions),
            "details": list(self.details),
        }

    def __repr__(self):
        marks = ", ".join("pass" if c else "FAIL" for c in self.conditions)
        return f"DemazureReport(i={self.index}, [{marks}])"


def _free_quotient(outer: LaurentLattice, inner: LaurentLattice, rank: int):
    """(bool, text): inner inside outer with quotient free of the given
    rank and killed by the variable, i.e. exponent profile all 0s and 1s
    with exactly ``rank`` ones."""
    prof = quotient_profile(outer, inner)
    want = [0] * (outer.n - rank) + [1] * rank
    okay = prof == want
    return okay, f"profile {tuple(prof)} vs expected {tuple(want)}"


def demazure_membership(L: LaurentLattice, Lp: LaurentLattice, i: int,
                        variant: str) -> DemazureReport:
    """Check the four conditions of the two-lattice description at index i.

    Even-rank variant: (1) L lies in the closure of cell i; (2) Lp sits
    under its shifted dual with a rank-2i quotient, inside the shifted Lp;
    (3) Lp under the base lattice with rank-i quotient; (4) Lp under L with
    rank-i quotient.  Odd-rank variant: (2) expects rank n-2i and the
    inclusions of (3) and (4) run the other way.
    """
    _check_variant(variant, L.n)
    if Lp.ring is not L.ring or Lp.n != L.n:
        raise AmbientMismatch("lattice pair must share field and rank")
    if not 0 <= i <= L.n // 2:
        raise BadParameters("index out of range for the pair test")
    return _pair_test(L, Lp, i, variant, schubert_cell(L, variant))


def _pair_test(L: LaurentLattice, Lp: LaurentLattice, i: int, variant: str,
               cell: int) -> DemazureReport:
    """demazure_membership on checked arguments, given the cell index of L."""
    n = L.n
    field = L.ring
    uinv = field.monomial(-1)
    lam = base_lattice(field, n, variant)

    c1 = _in_closure(cell, i, variant)
    d1 = f"cell closure at index {i}"

    shifted_dual = lattice_dual(Lp).scaled(uinv)
    shifted = Lp.scaled(uinv)
    rank2 = 2 * i if variant == "pimodular" else n - 2 * i
    inner_ok, d2 = _free_quotient(shifted_dual, Lp, rank2)
    dual_inside = lattice_contains(shifted, shifted_dual)
    c2 = inner_ok and dual_inside
    if not dual_inside:
        d2 += "; shifted dual escapes the shifted lattice"

    if variant == "pimodular":
        c3, d3 = _free_quotient(lam, Lp, i)
        c4, d4 = _free_quotient(L, Lp, i)
    else:
        c3, d3 = _free_quotient(Lp, lam, i)
        c4, d4 = _free_quotient(Lp, L, i)

    return DemazureReport(variant, i, (c1, c2, c3, c4), (d1, d2, d3, d4))


# ---------------------------------------------------------------------------
# transfer from special-fiber points
# ---------------------------------------------------------------------------

def lattice_from_point(component, frame) -> LaurentLattice:
    """Preimage lattice of a special-fiber component.

    ``component`` is a Subspace, a rows Matrix, or an iterable of rows of
    length 2n in frame coordinates; it must be stable under the frame's
    square-zero operator.  The result is generated by the coordinate lifts
    of a basis together with the square-scaled base lattice, and always
    sits between that scaled copy and the base lattice itself.
    """
    ring = frame.ring
    if not isinstance(ring, PrimeField) or not frame.pi.is_zero():
        raise InvalidPoint("the transfer is defined on the special fiber")
    n, m = frame.n, frame.m
    if isinstance(component, Subspace):
        rows = [list(r) for r in component.basis]
        if component.ambient != 2 * n:
            raise InvalidPoint("component ambient dimension must be 2n")
    elif isinstance(component, Matrix):
        rows = component.rows()
    else:
        rows = [list(r) for r in component]
    for r in rows:
        if len(r) != 2 * n:
            raise InvalidPoint("component rows must have length 2n")
    span = Subspace(ring, 2 * n, [[ring.coerce(x) for x in r] for r in rows])
    for w in span.basis:
        if not span.contains_vector(frame.t_apply(list(w))):
            raise InvalidPoint("component is not stable under the operator")

    field = FunctionField(ring, "u")
    uinv = field.monomial(-1)
    u = field.monomial(1)
    cols = []
    for w in span.basis:
        col = []
        for j in range(n):
            a = field.coerce(w[j]) if not w[j].is_zero() else field.zero
            b = field.coerce(w[n + j]) if not w[n + j].is_zero() else field.zero
            if j < m:
                col.append(a * uinv + b)
            else:
                col.append(a + b * u)
        cols.append(col)
    lam = standard_lattice(field, n, m)
    usq = field.monomial(2)
    cols.extend((lam.matrix * usq).cols())
    L = LaurentLattice(field, Matrix.from_cols(field, cols))
    if not (lattice_contains(lam, L) and lattice_contains(L, lam.scaled(usq))):
        raise ConstructionFailed("transferred lattice leaves its window")
    return L


class PhiImage:
    """Lattice pair attached to a point of the closed smooth component,
    with its verification data."""

    __slots__ = ("first", "second", "cell", "label", "demazure", "square_ok")

    def __init__(self, first, second, cell, label, demazure, square_ok):
        self.first = first
        self.second = second
        self.cell = cell
        self.label = label
        self.demazure = demazure
        self.square_ok = square_ok

    @property
    def ok(self):
        return self.demazure.ok and self.square_ok

    def to_json_dict(self):
        return {
            "first": self.first.to_json_dict(),
            "second": self.second.to_json_dict(),
            "cell": self.cell,
            "label": {"h": self.label.h, "l": self.label.l},
            "demazure": self.demazure.to_json_dict(),
            "square_ok": self.square_ok,
        }

    def __repr__(self):
        return (f"PhiImage(cell={self.cell}, label={tuple(self.label)}, "
                f"ok={self.ok})")


def phi_map(point: ModelPoint, variant: str = "pimodular") -> PhiImage:
    """Send a validated point with full self-pairing kernel to its lattice
    pair and verify the pair test at index s plus the commuting square
    (cell index of the first lattice equals the point's h).

    Raises NotInZ when the kernel is smaller than s.  Only the even-rank
    variant is wired to special-fiber points.
    """
    if variant != "pimodular":
        _check_variant(variant)
        raise BadParameters(
            "only the even-rank variant transfers special-fiber points")
    label = invariants(point)
    if label.l != point.s:
        raise NotInZ(f"self-pairing kernel has dimension {label.l}, "
                     f"not {point.s}")
    return _phi_image(point, label, *_shifted_cell(point, variant))


def _shifted_cell(point: ModelPoint, variant: str):
    """(first, cell): the F-lattice of a validated point scaled by u^-1, and
    its cell index, the lattice data tau_fiber_check and phi_map share."""
    LF = lattice_from_point(point.F_rows, point.frame)
    first = LF.scaled(LF.ring.monomial(-1))
    return first, schubert_cell(first, variant)


def _phi_image(point: ModelPoint, label, first: LaurentLattice,
               cell: int) -> PhiImage:
    """phi_map of a point with l = s whose label, shifted F-lattice and cell
    are already known."""
    LG = lattice_from_point(point.G_rows, point.frame)
    second = lattice_dual(LG).scaled(first.ring.monomial(1))
    dem = _pair_test(first, second, point.s, "pimodular", cell)
    return PhiImage(first, second, cell, label, dem, cell == label.h)


# ---------------------------------------------------------------------------
# fiber bookkeeping
# ---------------------------------------------------------------------------

class TauFiberReport:
    """Cells seen across a batch of points, the labels each cell carries,
    and any mismatches against the expected fiber structure."""

    __slots__ = ("s", "variant", "exhaustive", "cells", "counts", "problems")

    def __init__(self, s, variant, exhaustive, cells, counts, problems):
        self.s = s
        self.variant = variant
        self.exhaustive = exhaustive
        self.cells = cells
        self.counts = counts
        self.problems = tuple(problems)

    @property
    def ok(self):
        return not self.problems

    def to_json_dict(self):
        return {
            "s": self.s,
            "variant": self.variant,
            "exhaustive": self.exhaustive,
            "cells": [{"cell": k,
                       "labels": [{"h": h, "l": l}
                                  for h, l in sorted(self.cells[k])],
                       "count": self.counts[k]}
                      for k in sorted(self.cells)],
            "problems": list(self.problems),
        }

    def __repr__(self):
        body = ", ".join(f"{k}:{sorted(self.cells[k])}"
                         for k in sorted(self.cells))
        return f"TauFiberReport({{{body}}}, ok={self.ok})"


def tau_fiber_check(points, variant: str = "pimodular",
                    exhaustive: bool = True, s: int = None) -> TauFiberReport:
    """Group validated points by the cell of the shifted F-lattice and
    check the fiber structure.

    Within each cell the h-invariant must be constant and equal to the
    cell index.  In exhaustive mode the l-values seen in cell k must be
    exactly the values between k and s with the parity of s.
    """
    _check_variant(variant)
    return _fiber_report(((p.s, invariants(p), _shifted_cell(p, variant)[1])
                          for p in points), variant, exhaustive, s)


def _fiber_report(rows, variant: str, exhaustive: bool,
                  s: int = None) -> TauFiberReport:
    """tau_fiber_check from (G-rank, label, cell) rows, one per point."""
    cells = {}
    counts = {}
    problems = []
    for point_s, label, k in rows:
        if s is None:
            s = point_s
        elif point_s != s:
            raise AmbientMismatch("points with mixed G-ranks in one batch")
        cells.setdefault(k, set()).add((label.h, label.l))
        counts[k] = counts.get(k, 0) + 1
        if label.h != k:
            problems.append(f"cell {k} saw a point with h = {label.h}")
    if s is None:
        raise BadParameters("empty batch and no explicit s")
    if exhaustive:
        for k in sorted(cells):
            expected = {l for l in range(k, s + 1) if (l - s) % 2 == 0}
            got = {l for _, l in cells[k]}
            if got != expected:
                problems.append(
                    f"cell {k} carries l-values {sorted(got)}, "
                    f"expected {sorted(expected)}")
    return TauFiberReport(s, variant, exhaustive, cells, counts, problems)


# ---------------------------------------------------------------------------
# randomized material for property checks
# ---------------------------------------------------------------------------

def random_window_lattice(field: FunctionField, n: int, rng,
                          degree: int = 2) -> LaurentLattice:
    """Random lattice between the shifted-down and shifted-up copies of the
    even-rank base lattice: contains u*base and lies in u^-1*base."""
    if n % 2 != 0:
        raise BadParameters("the window is built around the even-rank base")
    base = base_lattice(field, n, "pimodular")
    rand = Matrix(field, [[field.random_poly(rng, degree) for _ in range(n)]
                          for _ in range(n)], coerce=False)
    upper = base.matrix * rand * field.monomial(-1)
    lower = base.matrix * field.monomial(1)
    return LaurentLattice(field, Matrix.from_cols(
        field, upper.cols() + lower.cols()))


def random_unit_matrix(field: FunctionField, n: int, rng,
                       degree: int = 2) -> Matrix:
    """Random integral matrix with unit determinant at the variable:
    unipotent lower times unipotent upper times nonzero constant diagonal."""
    lo = Matrix.identity(field, n).copy_data()
    up = Matrix.identity(field, n).copy_data()
    for i in range(n):
        for j in range(i):
            lo[i][j] = field.random_poly(rng, degree)
            up[j][i] = field.random_poly(rng, degree)
    base = field.base
    diag = []
    for _ in range(n):
        c = base.random(rng)
        while c.is_zero():
            c = base.random(rng)
        diag.append(field.coerce(c))
    return (Matrix(field, lo, coerce=False)
            * Matrix.diagonal(field, diag)
            * Matrix(field, up, coerce=False))
