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
locus; odd rank uses the plain integral lattice and dual(L) = L.

The transfer runs on window lattices.  A lattice L between u^2*lam and
u^-2*lam, lam = standard_lattice(n, n/2) with columns lam_j, is the full
preimage of its image in W = u^-2*lam / u^2*lam, a u-stable subspace that
determines L exactly.  W has the F_q-basis u^k*lam_j, k = -2, -1, 0, 1, in
blocks of n coordinates by ascending k, and every step is row reduction:
- a frame row (a, b) lifts to sum_j (a_j + b_j*u)*lam_j: a in block 0, b in
  block 1, and the frame operator acts as u;
- u^d*L is the image under u^d (d > 0) or the preimage (d < 0), refused
  with ConstructionFailed when it would leave the window;
- u^-1*dual(L) is the orthogonal for B(u^k lam_i, u^l lam_j) = (-1)^k s_i
  if k + l = -1 and j = n-1-i, else 0 (s_i = -1 for i < n/2, else +1), the
  u^-2 coefficient of the hermitian-phi form;
- block k holds one pivot per exponent e <= k of L relative to lam; the
  other exponents are 2;
- outer/inner is free of rank r and killed by u exactly when inner <= outer,
  u*outer <= inner, and the dimensions differ by r.
k(u) lattices are built on that path only for output (the pair phi_map
returns, failure certificates), and the k(u) operations are the reference
the window operations are tested against.  No arithmetic is truncated.
"""

from __future__ import annotations

from .errors import (AmbientMismatch, BadParameters, ConstructionFailed,
                     InvalidPoint, NotInGrassmannian, NotInZ, Singular,
                     UnrecognizedType)
from .frame import _h_antidiag
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
        unit = p[i].inverse().shift(v)
        p = [unit * x for x in p]
        for c in work:
            if not c[i].is_zero():
                q = c[i].shift(-v)
                for r in range(i, n):
                    c[r] = c[r] - q * p[r]
        pivots.append((v, p))
        work = [c for c in work if any(not x.is_zero() for x in c)]
    # reduce entries left of each pivot to their tail below the pivot power
    for i in range(1, n):
        ai, pcol = pivots[i]
        for j in range(i):
            cj = pivots[j][1]
            x = cj[i]
            if x.is_zero():
                continue
            q = (x - x.truncate_below(ai)).shift(-ai)
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

    def shifted(self, d: int) -> "LaurentLattice":
        """u^d * L."""
        return self.scaled(self.ring.monomial(d))

    def shifted_dual(self) -> "LaurentLattice":
        """u^-1 * dual(L) under the hermitian-phi form."""
        return lattice_dual(self).shifted(-1)

    def contains(self, other: "LaurentLattice") -> bool:
        return lattice_contains(self, other)

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
    return _h_antidiag(field, n)


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
# window lattices: u^2*lam <= L <= u^-2*lam as subspaces of W
# ---------------------------------------------------------------------------

class WindowLattice(Subspace):
    """A lattice between u^2*lam and u^-2*lam, held as its image in W: a
    u-stable subspace of F_q^(4n) in the block coordinates of the module
    docstring.  Equality and containment are those of the subspaces."""

    __slots__ = ()

    @property
    def n(self):
        return self.ambient // 4

    @classmethod
    def base(cls, ring, n: int) -> "WindowLattice":
        """lam itself: blocks 0 and 1."""
        return cls(ring, 4 * n, Matrix.identity(ring, 4 * n).rows()[2 * n:],
                   coerce=False)

    def _moved(self, d: int):
        """The basis rows moved d blocks up (down for d < 0), truncated."""
        k = abs(d) * self.n
        pad = [self.ring.zero] * k
        return [pad + list(r[:len(r) - k]) if d >= 0 else list(r[k:]) + pad
                for r in self.basis]

    def shifted(self, d: int) -> "WindowLattice":
        """u^d * L; ConstructionFailed unless L contains the top d blocks
        (d > 0) or vanishes on the bottom -d blocks (d < 0)."""
        size = self.ambient
        k = abs(d) * self.n
        if d >= 0 and sum(p >= size - k for p in self.pivots) == k:
            rows = self._moved(d)
        elif d < 0 and k <= size and all(p >= k for p in self.pivots):
            # the preimage under u^-d: rows moved down, plus the kernel of u^-d
            rows = self._moved(d) + Matrix.identity(self.ring, size).rows()[size - k:]
        else:
            raise ConstructionFailed(f"u^{d} times the lattice leaves the window")
        return WindowLattice(self.ring, size, rows, coerce=False)

    def shifted_dual(self) -> "WindowLattice":
        """u^-1 * dual(L): B pairs coordinate c only with 4n-1-c."""
        n, ring = self.n, self.ring
        gram = Matrix.zero(ring, 4 * n, 4 * n).rows()
        for c in range(4 * n):
            sign = (-1) ** (c // n) * (-1 if c % n < n // 2 else 1)
            gram[c][4 * n - 1 - c] = ring.from_int(sign)
        perp = self.perp(Matrix(ring, gram, coerce=False))
        return WindowLattice(ring, 4 * n, perp.basis, coerce=False)

    def type_vector(self):
        """Sorted exponents of L relative to lam, as lattice_type gives them."""
        c = [0] + [sum(p // self.n == b for p in self.pivots)
                   for b in range(4)] + [self.n]
        return [e for b, e in enumerate((-2, -1, 0, 1, 2))
                for _ in range(c[b + 1] - c[b])]

    def lattice(self) -> LaurentLattice:
        """The same lattice over k(u): the lifts of the rows and u^2*lam."""
        n = self.n
        field = FunctionField(self.ring, "u")
        shift = [-1 if j < n // 2 else 0 for j in range(n)]
        cols = [[field.laurent({k - 2 + shift[j]: r[k * n + j]
                                for k in range(4) if r[k * n + j]})
                 for j in range(n)] for r in self.basis]
        cols += Matrix.diagonal(field, [field.monomial(2 + t) for t in shift]).cols()
        return LaurentLattice(field, cols)


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
    target = L.shifted(1) if variant == "pimodular" else L
    if d != target:
        raise NotInGrassmannian("lattice does not satisfy the duality relation")
    return _coweight_index(lattice_type(L, base_lattice(L.ring, L.n, variant)))


def _window_cell(L: WindowLattice) -> int:
    """schubert_cell of a window lattice in the even-rank variant, where
    dual(L) = u*L reads u^-1*dual(L) = L."""
    if L.shifted_dual() != L:
        raise NotInGrassmannian("lattice does not satisfy the duality relation")
    return _coweight_index(L.type_vector())


def _coweight_index(t) -> int:
    """The index i of a type vector (1 repeated i, 0s, -1 repeated i)."""
    plus, minus = t.count(1), t.count(-1)
    if plus != minus or plus + minus + t.count(0) != len(t):
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


def _free_quotient(outer, inner, rank: int):
    """(bool, text): inner inside outer with quotient free of the given
    rank and killed by the variable, i.e. exponent profile all 0s and 1s
    with exactly ``rank`` ones.  A window lattice's profile is worked out
    over k(u) only for the text of a failure."""
    want = [0] * (outer.n - rank) + [1] * rank
    if isinstance(outer, WindowLattice):
        # inner <= outer, u*outer <= inner, dimensions rank apart
        okay = (outer.dim - inner.dim == rank and outer.contains(inner)
                and inner.contains(Subspace(inner.ring, inner.ambient,
                                            outer._moved(1), coerce=False)))
        prof = want if okay else quotient_profile(outer.lattice(),
                                                  inner.lattice())
    else:
        prof = quotient_profile(outer, inner)
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
    return _pair_test(L, Lp, base_lattice(L.ring, L.n, variant), i, variant,
                      schubert_cell(L, variant))


def _pair_test(L, Lp, lam, i: int, variant: str, cell: int) -> DemazureReport:
    """demazure_membership on checked arguments, given the base lattice and
    the cell index of L; L, Lp and lam are all LaurentLattices or all
    WindowLattices."""
    c1 = _in_closure(cell, i, variant)
    d1 = f"cell closure at index {i}"

    shifted_dual = Lp.shifted_dual()
    shifted = Lp.shifted(-1)
    rank2 = 2 * i if variant == "pimodular" else L.n - 2 * i
    inner_ok, d2 = _free_quotient(shifted_dual, Lp, rank2)
    dual_inside = shifted.contains(shifted_dual)
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

def window_from_point(component, frame) -> WindowLattice:
    """Preimage lattice of a special-fiber component: the window lattice
    spanned by the coordinate lifts of a basis and u^2*lam.

    ``component`` is a Subspace, a rows Matrix, or an iterable of rows of
    length 2n in frame coordinates; it must be stable under the frame's
    square-zero operator, which makes the lifted span u-stable.
    """
    ring = frame.ring
    if not isinstance(ring, PrimeField) or not frame.pi.is_zero():
        raise InvalidPoint("the transfer is defined on the special fiber")
    n = frame.n
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
    span = Subspace(ring, 2 * n, rows)
    for w in span.basis:
        if not span.contains_vector(frame.t_apply(list(w))):
            raise InvalidPoint("component is not stable under the operator")
    pad = [ring.zero] * (2 * n)
    return WindowLattice(ring, 4 * n, [pad + list(w) for w in span.basis],
                         coerce=False)


def lattice_from_point(component, frame) -> LaurentLattice:
    """window_from_point over k(u): a lattice between the square-scaled
    base lattice and the base lattice itself."""
    return window_from_point(component, frame).lattice()


class PhiImage:
    """Lattice pair attached to a point of the closed smooth component,
    with its verification data.  The pair is held as window lattices;
    ``first`` and ``second`` are their k(u) forms."""

    __slots__ = ("windows", "cell", "label", "demazure", "square_ok")

    def __init__(self, first, second, cell, label, demazure, square_ok):
        self.windows = (first, second)
        self.cell = cell
        self.label = label
        self.demazure = demazure
        self.square_ok = square_ok

    @property
    def first(self) -> LaurentLattice:
        return self.windows[0].lattice()

    @property
    def second(self) -> LaurentLattice:
        return self.windows[1].lattice()

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
    """(first, cell): the window F-lattice of a validated point scaled by
    u^-1, and its cell index, the data tau_fiber_check and phi_map share."""
    _check_variant(variant, point.frame.n)
    first = window_from_point(point.F_rows, point.frame).shifted(-1)
    return first, _window_cell(first)


def _phi_image(point: ModelPoint, label, first: WindowLattice,
               cell: int) -> PhiImage:
    """phi_map of a point with l = s whose label, shifted F-lattice and cell
    are already known; the second lattice u*dual(LG) is u^2*u^-1*dual(LG)."""
    LG = window_from_point(point.G_rows, point.frame)
    second = LG.shifted_dual().shifted(2)
    lam = WindowLattice.base(point.ring, first.n)
    dem = _pair_test(first, second, lam, point.s, "pimodular", cell)
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
