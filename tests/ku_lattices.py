"""The k(u) lattice algebra: the oracle the window lattices are tested
against.

The package decides every lattice question on the transfer path by row
reduction in the window u^-2*lam / u^2*lam (``splitmodel.lattices.
WindowLattice``) and builds canonical ``LaurentLattice``s only for output.
This module keeps the same operations over k(u) on those canonical
generator matrices, written independently of the window: scaling and
shifts, the two duals, containment by the elementary-divisor profile, the
cell of a lattice on the duality locus and closure membership, the
coweight translates of the base lattice, the free-quotient test and the
four-condition pair test, all in even rank around the pi-modular base
lattice as in the package, and seeded random lattices and unit matrices
for property checks.  ``tests/test_lattices.py``,
``tests/test_window.py``, criterion 09 of ``tests/test_acceptance.py`` and
the Smith-form test of ``tests/test_linalg.py`` import it.
"""

from splitmodel.errors import (AmbientMismatch, BadParameters,
                               NotInGrassmannian)
from splitmodel.frame import _h_antidiag
from splitmodel.lattices import (DemazureReport, LaurentLattice,
                                 _coweight_index, base_lattice, lattice_type)
from splitmodel.linalg import Matrix, inverse
from splitmodel.rings import FunctionField


def scaled(L: LaurentLattice, c) -> LaurentLattice:
    """c * L for a nonzero c of the field."""
    c = L.ring.coerce(c)
    if c.is_zero():
        raise BadParameters("cannot scale a lattice by zero")
    return LaurentLattice(L.ring, L.matrix * c)


def shifted(L: LaurentLattice, d: int) -> LaurentLattice:
    """u^d * L."""
    return scaled(L, L.ring.monomial(d))


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


def shifted_dual(L: LaurentLattice) -> LaurentLattice:
    """u^-1 * dual(L) under the hermitian-phi form."""
    return shifted(lattice_dual(L), -1)


def quotient_profile(outer: LaurentLattice, inner: LaurentLattice):
    """Exponent profile of inner relative to outer, ascending.  All entries
    nonnegative exactly when inner is contained in outer; the sum is then
    the length of the quotient."""
    return lattice_type(inner, outer)


def lattice_contains(outer: LaurentLattice, inner: LaurentLattice) -> bool:
    return all(e >= 0 for e in quotient_profile(outer, inner))


def is_u_integral(M: Matrix) -> bool:
    """All entries regular at the distinguished variable."""
    return all(x.is_integral() for row in M.data for x in row)


# ---------------------------------------------------------------------------
# coweight translates, cells and closures
# ---------------------------------------------------------------------------

def representative(label, field: FunctionField) -> Matrix:
    """Diagonal matrix translating the base lattice into the cell of a
    CoweightLabel."""
    i = label.index
    u = field.monomial(1)
    uinv_neg = field.monomial(-1, -1)
    entries = [u] * i + [field.one] * (label.n - 2 * i) + [uinv_neg] * i
    return Matrix.diagonal(field, entries)


def translated_base(label, field: FunctionField) -> LaurentLattice:
    base = base_lattice(field, label.n, "pimodular")
    return LaurentLattice(field, representative(label, field) * base.matrix)


def schubert_cell(L: LaurentLattice) -> int:
    """The unique cell index of a lattice on the duality locus dual(L) = u*L.

    Raises NotInGrassmannian when the duality fails and UnrecognizedType
    when the relative type is not a coweight type vector.
    """
    if lattice_dual(L) != shifted(L, 1):
        raise NotInGrassmannian("lattice does not satisfy the duality relation")
    return _coweight_index(lattice_type(L, base_lattice(L.ring, L.n,
                                                        "pimodular")))


def in_closure(k: int, i: int) -> bool:
    """Whether cell k lies in the closure of cell i."""
    return k <= i and (i - k) % 2 == 0


def in_schubert_variety(L: LaurentLattice, i: int) -> bool:
    """Closure membership: cell index at most i, and of the same parity."""
    return in_closure(schubert_cell(L), i)


# ---------------------------------------------------------------------------
# two-lattice membership test
# ---------------------------------------------------------------------------

def free_quotient(outer: LaurentLattice, inner: LaurentLattice, rank: int):
    """(bool, text): inner inside outer with quotient free of the given
    rank and killed by the variable, i.e. exponent profile all 0s and 1s
    with exactly ``rank`` ones."""
    want = [0] * (outer.n - rank) + [1] * rank
    prof = quotient_profile(outer, inner)
    return prof == want, f"profile {tuple(prof)} vs expected {tuple(want)}"


def demazure_membership(L: LaurentLattice, Lp: LaurentLattice,
                        i: int) -> DemazureReport:
    """Check the four conditions of the two-lattice description at index i:
    (1) L lies in the closure of cell i; (2) Lp sits under its shifted dual
    with a rank-2i quotient, inside the shifted Lp; (3) Lp under the base
    lattice with rank-i quotient; (4) Lp under L with rank-i quotient.
    """
    if Lp.ring is not L.ring or Lp.n != L.n:
        raise AmbientMismatch("lattice pair must share field and rank")
    if not 0 <= i <= L.n // 2:
        raise BadParameters("index out of range for the pair test")
    lam = base_lattice(L.ring, L.n, "pimodular")
    c1 = in_closure(schubert_cell(L), i)
    d1 = f"cell closure at index {i}"

    dual = shifted_dual(Lp)
    inner_ok, d2 = free_quotient(dual, Lp, 2 * i)
    dual_inside = lattice_contains(shifted(Lp, -1), dual)
    c2 = inner_ok and dual_inside
    if not dual_inside:
        d2 += "; shifted dual escapes the shifted lattice"

    c3, d3 = free_quotient(lam, Lp, i)
    c4, d4 = free_quotient(L, Lp, i)
    return DemazureReport(i, (c1, c2, c3, c4), (d1, d2, d3, d4))


# ---------------------------------------------------------------------------
# randomized material for property checks
# ---------------------------------------------------------------------------

def random_window_lattice(field: FunctionField, n: int, rng,
                          degree: int = 2) -> LaurentLattice:
    """Random lattice between the shifted-down and shifted-up copies of the
    even-rank base lattice: contains u*base and lies in u^-1*base."""
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
