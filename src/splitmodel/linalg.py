"""Exact linear algebra over the coefficient rings.

Matrices are dense lists of lists of ring elements.  Row reduction over
fields produces canonical reduced row echelon forms, which makes Subspace
equality structural.  Over local rings (truncated series, dual numbers)
elimination only ever pivots on units; ranks are read off the residue
field.  A Smith-type normal form with powers of the distinguished variable
as elementary divisors is provided for matrices over a rational function
field, localized at that variable.
Over a prime field F_p, products, elimination, rank, containment and the
isotropic walker run on int residues (_product_mod_p, _eliminate_mod_p),
boxed into field elements only where a Matrix or Subspace is handed out.
"""

from __future__ import annotations

import itertools
from operator import mul

from .errors import (
    AmbientMismatch,
    BadDimension,
    NotAField,
    RingUnsupported,
    Singular,
)
from .rings import (
    FunctionField,
    PrimeField,
    SeriesRing,
    poly_add,
    poly_mul,
    poly_neg,
)


class Matrix:
    """Immutable-by-convention dense matrix over a fixed ring."""

    __slots__ = ("ring", "nrows", "ncols", "data")

    def __init__(self, ring, data, coerce=True):
        if coerce:
            data = [[ring.coerce(x) for x in row] for row in data]
        self.ring = ring
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.ncols:
                raise BadDimension("ragged rows")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], coerce=False)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)],
                   coerce=False)

    @classmethod
    def diagonal(cls, ring, entries):
        entries = [ring.coerce(e) for e in entries]
        n = len(entries)
        z = ring.zero
        return cls(ring, [[entries[i] if i == j else z for j in range(n)]
                          for i in range(n)], coerce=False)

    @classmethod
    def from_rows(cls, ring, rows):
        return cls(ring, [list(r) for r in rows])

    @classmethod
    def from_cols(cls, ring, cols):
        cols = [list(c) for c in cols]
        if not cols:
            return cls(ring, [], coerce=False)
        return cls(ring, [[cols[j][i] for j in range(len(cols))]
                          for i in range(len(cols[0]))])

    @classmethod
    def block(cls, ring, grid):
        """Assemble from a 2d grid of matrices (entries may be Matrix or
        integer 0 placeholders, whose sizes are inferred)."""
        row_heights = [None] * len(grid)
        col_widths = [None] * len(grid[0])
        for i, brow in enumerate(grid):
            for j, blk in enumerate(brow):
                if isinstance(blk, Matrix):
                    row_heights[i] = blk.nrows
                    col_widths[j] = blk.ncols
        if any(h is None for h in row_heights) or any(w is None for w in col_widths):
            raise BadDimension("cannot infer block sizes")
        rows = []
        for i, brow in enumerate(grid):
            for r in range(row_heights[i]):
                row = []
                for j, blk in enumerate(brow):
                    if isinstance(blk, Matrix):
                        row.extend(blk.data[r])
                    else:
                        row.extend([ring.zero] * col_widths[j])
                rows.append(row)
        return cls(ring, rows, coerce=False)

    # -- accessors ----------------------------------------------------------

    def col(self, j):
        return [self.data[i][j] for i in range(self.nrows)]

    def rows(self):
        return [list(r) for r in self.data]

    copy_data = rows

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def submatrix(self, rows, cols):
        return Matrix(self.ring, [[self.data[i][j] for j in cols] for i in rows],
                      coerce=False)

    def map_entries(self, fn, ring=None):
        ring = ring or self.ring
        return Matrix(ring, [[fn(x) for x in row] for row in self.data], coerce=False)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise BadDimension("shape mismatch in addition")
        return Matrix(self.ring,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], coerce=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in row] for row in self.data], coerce=False)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise BadDimension("shape mismatch in product")
            if other.ring is self.ring and _is_prime_field(self.ring):
                rows = _product_mod_p(_residues(self.data),
                                      _residues(other.data), self.ring.p)
                return Matrix(self.ring, _boxed(self.ring, rows), coerce=False)
            # each row of the product accumulates the rows of B scaled by
            # the nonzero entries of the row of A, as _product_mod_p does
            z = self.ring.zero
            out = []
            for row in self.data:
                acc = [z] * other.ncols
                for a, b_row in zip(row, other.data):
                    if a:
                        acc = [x + a * y if y else x for x, y in zip(acc, b_row)]
                out.append(acc)
            return Matrix(self.ring, out, coerce=False)
        c = self.ring.coerce(other)
        return Matrix(self.ring, [[a * c for a in row] for row in self.data],
                      coerce=False)

    def __rmul__(self, other):
        c = self.ring.coerce(other)
        return Matrix(self.ring, [[c * a for a in row] for row in self.data],
                      coerce=False)

    def transpose(self):
        return Matrix(self.ring, [[self.data[i][j] for i in range(self.nrows)]
                                  for j in range(self.ncols)], coerce=False)

    def apply_to_vector(self, v):
        ring = self.ring
        if _is_prime_field(ring):
            p, table = ring.p, ring.table
            v = [ring.coerce(b).val for b in v]
            return [table[sum([a.val * b for a, b in zip(row, v)]) % p]
                    for row in self.data]
        out = []
        for row in self.data:
            acc = ring.zero
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return out

    def is_zero(self):
        return all(x.is_zero() for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ring is self.ring
                and other.data == self.data)

    def __hash__(self):
        return hash((id(self.ring), tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "\n".join("[" + ", ".join(repr(x) for x in row) + "]"
                         for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r})\n{body}"


def hstack(*mats):
    ring = mats[0].ring
    n = mats[0].nrows
    rows = [[] for _ in range(n)]
    for m in mats:
        if m.nrows != n:
            raise BadDimension("hstack height mismatch")
        for i in range(n):
            rows[i].extend(m.data[i])
    return Matrix(ring, rows, coerce=False)


# ---------------------------------------------------------------------------
# prime fields: products and elimination on the int residues
# ---------------------------------------------------------------------------

def _is_prime_field(ring):
    """Whether ring is some F_p, whose matrices the *_mod_p kernels handle on
    the ints ``x.val`` and box through ``ring.table``.  Extension fields,
    function fields, series and polynomial rings take the element loops."""
    return isinstance(ring, PrimeField) and ring.deg == 1


def _residues(rows):
    """The int residues of rows of prime-field elements."""
    return [[x.val for x in row] for row in rows]


def _boxed(field, rows):
    """Rows of int residues as rows of the field's interned elements."""
    table = field.table
    return [[table[x] for x in row] for row in rows]


def _product_mod_p(A, B, p):
    """The int rows of A * B over F_p, for A and B given by the int residue
    rows: each row of the product accumulates the rows of B scaled by the
    nonzero entries of the row of A, and is reduced mod p once."""
    zeros = [0] * len(B[0]) if B else []
    out = []
    for row in A:
        acc = zeros
        for a, b_row in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b_row)]
        out.append([x % p for x in acc])
    return out


def _pairings_mod_p(rows, gram, p):
    """rows * gram * rows^t over F_p, on int residue rows: the pairings of
    the rows under the form with Gram matrix gram."""
    return _product_mod_p(_product_mod_p(rows, gram, p), list(zip(*rows)), p)


# ---------------------------------------------------------------------------
# elimination: one Gauss-Jordan kernel, pivoting on units
# ---------------------------------------------------------------------------

def _eliminate(M: Matrix):
    """Gauss-Jordan elimination of M, pivoting only on units.  Returns
    (rows, pivots, leads): the reduced rows, the (row, col) position of each
    pivot, and each pivot entry before it was scaled to 1, negated when a
    row swap brought it in.  For a square matrix of full rank the product of
    leads is the determinant.  Over a prime field this runs on the residues
    (_eliminate_mod_p) and boxes its output; every other ring takes the
    element loop, which is the reference the residue kernel is tested
    against."""
    ring = M.ring
    if _is_prime_field(ring):
        rows, pivots, leads = _eliminate_mod_p(_residues(M.data), ring.p)
        return _boxed(ring, rows), pivots, [ring.table[x] for x in leads]
    return _eliminate_elements(M)


def _eliminate_elements(M: Matrix):
    """_eliminate over any field or local ring, by element arithmetic.
    Over a field the pivots are the nonzero entries, which the element
    type's own truth test decides at the cost of one is_zero() call."""
    ring = M.ring
    is_pivot = type(ring.zero).__bool__ if ring.is_field else ring.is_unit
    data = M.copy_data()
    nrows = M.nrows
    pivots = []
    leads = []
    r = 0
    for c in range(M.ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if is_pivot(data[pr][c]):
                break
        else:
            continue
        lead = data[pr][c]
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
            leads.append(-lead)
        else:
            leads.append(lead)
        inv = lead.inverse()
        data[r] = [x * inv for x in data[r]]
        for i in range(nrows):
            if i != r and not data[i][c].is_zero():
                f = data[i][c]
                data[i] = [a - f * b if b else a for a, b in zip(data[i], data[r])]
        pivots.append((r, c))
        r += 1
    return data, pivots, leads


def _eliminate_mod_p(rows, p):
    """_eliminate over a prime field F_p on int residue rows, entries in
    range(p): returns the reduced int rows, the pivots and the int leads.
    The pivot inverse is x^(p-2) mod p.  The input rows are not changed."""
    data = list(rows)
    nrows = len(data)
    pivots = []
    leads = []
    r = 0
    for c in range(len(data[0]) if data else 0):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if data[pr][c]:
                break
        else:
            continue
        lead = data[pr][c]
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
            leads.append(p - lead)
        else:
            leads.append(lead)
        row = data[r]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            row = data[r] = [x * inv % p for x in row]
        for i in range(nrows):
            f = data[i][c]
            if f and i != r:
                data[i] = [(a - f * b) % p for a, b in zip(data[i], row)]
        pivots.append((r, c))
        r += 1
    return data, pivots, leads


def rref(M: Matrix):
    """Reduced row echelon form over a field.  Returns (R, pivot_columns)."""
    if not M.ring.is_field:
        raise NotAField(f"row reduction needs a field, got {M.ring!r}")
    data, pivots, _ = _eliminate(M)
    return Matrix(M.ring, data, coerce=False), [c for _, c in pivots]


def rank(M: Matrix) -> int:
    """Rank over a field; over F_p the pivot count of the residue kernel."""
    if _is_prime_field(M.ring):
        return len(_eliminate_mod_p(_residues(M.data), M.ring.p)[1])
    return len(rref(M)[1])


def det(M: Matrix):
    """Determinant over a field, by elimination."""
    if not M.ring.is_field:
        raise NotAField("determinant by elimination needs a field")
    if M.nrows != M.ncols:
        raise BadDimension("determinant of a non-square matrix")
    _, pivots, leads = _eliminate(M)
    if len(pivots) < M.nrows:
        return M.ring.zero
    acc = M.ring.one
    for x in leads:
        acc = acc * x
    return acc


def inverse(M: Matrix) -> Matrix:
    """Inverse over a field; raises Singular when the matrix is not
    invertible."""
    if M.nrows != M.ncols:
        raise BadDimension("inverse of a non-square matrix")
    n = M.nrows
    aug = hstack(M, Matrix.identity(M.ring, n))
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return R.submatrix(range(n), range(n, 2 * n))


def kernel_basis(M: Matrix):
    """Basis of the right kernel {v : M v = 0} over a field, as a list of
    vectors."""
    R, pivots = rref(M)
    ring = M.ring
    free = [c for c in range(M.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ring.zero] * M.ncols
        v[fc] = ring.one
        for r, pc in enumerate(pivots):
            v[pc] = -R.data[r][fc]
        basis.append(v)
    return basis


def _residue_matrix(M: Matrix):
    ring = M.ring
    if ring.is_field:
        return M
    if isinstance(ring, SeriesRing):
        return M.map_entries(lambda x: x.residue(), ring.base)
    raise RingUnsupported(f"no residue map for {ring!r}")


def residual_rank(M: Matrix) -> int:
    """Rank of the image over the residue field."""
    return rank(_residue_matrix(M))


def echelon_local(M: Matrix):
    """Row echelon form using only unit pivots.  Returns (R, pivots) where
    pivots lists (row, col) pairs; rows beyond the pivots may retain
    non-unit entries when the matrix has deficient residual rank."""
    data, pivots, _ = _eliminate(M)
    return Matrix(M.ring, data, coerce=False), pivots


def solve_right(A: Matrix, b):
    """One solution of A x = b over a field or a local ring, or None when
    the system is inconsistent.  Over a local ring A must have full
    residual column rank."""
    ring = A.ring
    if not ring.is_field and residual_rank(A) != A.ncols:
        raise RingUnsupported("local solve needs a free basis")
    aug = hstack(A, Matrix.from_cols(ring, [b]))
    R, pivots = echelon_local(aug)
    x = [ring.zero] * A.ncols
    for r, c in pivots:
        if c == A.ncols:
            return None
        x[c] = R.data[r][A.ncols]
    pivot_rows = {r for r, _ in pivots}
    for i in range(R.nrows):
        if i not in pivot_rows and not R.data[i][A.ncols].is_zero():
            return None
    return x


def columns_contain(A: Matrix, B: Matrix) -> bool:
    """Whether every column of B lies in the column span of A.

    Over a local ring this is only decided when A's columns have full
    residual rank (then the span is a free direct summand); the caller is
    expected to have checked that already.
    """
    if A.nrows != B.nrows:
        raise BadDimension("ambient dimension mismatch")
    ring = A.ring
    if not ring.is_field and residual_rank(A) != A.ncols:
        raise RingUnsupported("containment over a local ring needs a free basis")
    aug = hstack(A, B)
    R, pivots = echelon_local(aug)
    for r, c in pivots:
        if c >= A.ncols:
            return False
    pivot_rows = {r for r, _ in pivots}
    for i in range(R.nrows):
        if i in pivot_rows:
            continue
        if any(not R.data[i][j].is_zero() for j in range(A.ncols, aug.ncols)):
            return False
    return True


# ---------------------------------------------------------------------------
# subspaces of k^n (field coefficients), canonical RREF row bases
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of ring^n stored by its canonical reduced row
    echelon basis, so == and hash are structural.  ``coerce=False`` takes
    vectors whose entries are elements of the ring already."""

    __slots__ = ("ring", "ambient", "basis", "pivots")

    def __init__(self, ring, ambient, vectors, coerce=True):
        self.ring = ring
        self.ambient = ambient
        if vectors:
            M = Matrix(ring, [list(v) for v in vectors], coerce=coerce)
            if M.ncols != ambient:
                raise BadDimension("vector length differs from ambient dimension")
            R, pivots = rref(M)
            self.basis = tuple(tuple(R.data[i]) for i in range(len(pivots)))
            self.pivots = tuple(pivots)
        else:
            self.basis = ()
            self.pivots = ()

    @classmethod
    def _echelon(cls, ring, ambient, rows, pivots):
        """The subspace whose canonical basis, rows of ring elements, and
        pivot columns are given; nothing is reduced again."""
        sub = cls.__new__(cls)
        sub.ring, sub.ambient = ring, ambient
        sub.basis, sub.pivots = tuple(map(tuple, rows)), tuple(pivots)
        return sub

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix(self.ring, [list(r) for r in self.basis], coerce=False)

    def reduce(self, v):
        """The remainder of v, an iterable of ring elements, modulo the
        subspace: v with every pivot coordinate cleared by the basis rows.
        It is zero exactly when v lies in the subspace."""
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if not c.is_zero():
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, v) -> bool:
        return self.contains(Subspace(self.ring, self.ambient, [v]))

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in the subspace: whether stacking its basis
        below this one keeps the rank."""
        if other.ring is not self.ring:
            raise AmbientMismatch("subspaces over different rings")
        if other.ambient != self.ambient:
            raise BadDimension("subspaces of different ambient dimensions")
        stacked = Matrix(self.ring, [*self.basis, *other.basis], coerce=False)
        return rank(stacked) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ring, self.ambient, self.basis + other.basis,
                        coerce=False)

    def perp(self, gram: Matrix) -> "Subspace":
        """Vectors v with (basis row) . gram . v = 0 for every basis row."""
        if self.dim == 0:
            return Subspace(self.ring, self.ambient,
                            Matrix.identity(self.ring, self.ambient).rows(),
                            coerce=False)
        M = self.matrix() * gram
        return Subspace(self.ring, self.ambient, kernel_basis(M), coerce=False)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.ring is self.ring
                and other.ambient == self.ambient and other.basis == self.basis)

    def __hash__(self):
        return hash((id(self.ring), self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ring!r}^{self.ambient})"


def subspaces_iter(field, ambient: int, dim: int):
    """All dim-dimensional subspaces of field^ambient, one per canonical
    RREF pattern."""
    if dim < 0 or dim > ambient:
        return
    els = list(field.elements())
    for pivots in itertools.combinations(range(ambient), dim):
        # free positions: right of the pivot, not a pivot column
        free = [(r, c) for r, p in enumerate(pivots)
                for c in range(p + 1, ambient) if c not in pivots]
        for values in itertools.product(els, repeat=len(free)):
            rows = [[field.zero] * ambient for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = field.one
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield Subspace._echelon(field, ambient, rows, pivots)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def intermediate_subspaces_iter(lower: Subspace, upper: Subspace, dim: int,
                                gram: Matrix):
    """Subspaces S with lower <= S <= upper and dim(S) = dim that are
    totally isotropic for gram (x . gram . y = 0 for all x, y in S), in the
    order of subspaces_iter over the quotient upper/lower.  A depth-first
    walk over the rows of the RREF patterns of S/lower admits a row only
    when it pairs to zero with itself, with lower on either side and with
    the rows chosen before it, so no other S is built.  Yields nothing when
    lower is not totally isotropic.  Over F_p the walk, each S and its RREF
    run on int residues, and S is boxed once into the Subspace yielded."""
    field, ambient = lower.ring, lower.ambient
    if not upper.contains(lower):
        raise BadDimension("lower subspace not inside upper subspace")
    d, e = dim - lower.dim, lower.dim
    if d < 0 or dim > upper.dim:
        return
    # complement vectors of lower inside upper: the rows of upper outside the
    # span of the rows before them, the pivot columns of the stacked columns
    stacked = lower.basis + upper.basis
    comp = tuple(stacked[c] for c in
                 rref(Matrix(field, list(zip(*stacked)), coerce=False))[1][e:])
    k = len(comp)
    if _is_prime_field(field):
        p = field.p
        unbox, box = _residues, lambda rows: _boxed(field, rows)
        product = lambda A, B: _product_mod_p(A, B, p)
        eliminate = lambda rows: _eliminate_mod_p(rows, p)
        dot = lambda u, v: sum(map(mul, u, v)) % p
        values, zero, one = range(p), 0, 1
    else:
        unbox = box = list
        matrix = lambda rows: Matrix(field, rows, coerce=False)
        product = lambda A, B: (matrix(A) * matrix(B)).data if A else []
        eliminate = lambda rows: _eliminate_elements(matrix(rows))
        dot = lambda u, v: sum(map(mul, u, v), field.zero)
        values, zero, one = list(field.elements()), field.zero, field.one
    # P pairs the rows of lower and the complement vectors; a row c of
    # S/lower stands for c . C and pairs with a row c' as c M c'^t, and with
    # lower as c . w for the rows w of `pairings`
    W = unbox(lower.basis + comp)
    P = product(product(W, unbox(gram.data)), list(zip(*W)))
    if any(any(row[:e]) for row in P[:e]):
        return
    M = [row[e:] for row in P[e:]]
    Mt = [list(col) for col in zip(*M)]
    pairings = [w for w in [row[e:] for row in P[:e]] + list(zip(*P[e:]))[:e]
                if any(w)]

    def walk(pivots, r, chosen, constraints):
        if r == d:
            yield chosen
            return
        free = [c for c in range(pivots[r] + 1, k) if c not in pivots]
        row = [zero] * k
        row[pivots[r]] = one
        for vals in itertools.product(values, repeat=len(free)):
            for c, v in zip(free, vals):
                row[c] = v
            if any(dot(row, w) for w in constraints):
                continue
            Mrow = [dot(m, row) for m in M]
            if dot(row, Mrow):
                continue
            # later rows c must satisfy c M row^t = 0 = row M c^t
            new = [Mrow] if M == Mt else [Mrow, [dot(m, row) for m in Mt]]
            yield from walk(pivots, r + 1, chosen + [list(row)],
                            constraints + new)

    for pivots in itertools.combinations(range(k), d):
        for chosen in walk(pivots, 0, [], pairings):
            rows, rref_pivots, _ = eliminate(W[:e] + product(chosen, W[e:]))
            yield Subspace._echelon(field, ambient, box(rows),
                                    [c for _, c in rref_pivots])


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def charpoly(M: Matrix):
    """det(T*I - M) as an ascending coefficient tuple over M.ring.

    Division-free: expansion by minors with memoization on column subsets,
    fine for the desk-scale sizes used here and valid over any commutative
    coefficient ring.
    """
    if M.nrows != M.ncols:
        raise BadDimension("characteristic polynomial of a non-square matrix")
    ring = M.ring
    n = M.nrows
    one, zero = ring.one, ring.zero
    # entries of T*I - M as polynomial tuples in T
    entries = [[(-M.data[i][j], one) if i == j else
                ((-M.data[i][j],) if not M.data[i][j].is_zero() else ())
                for j in range(n)] for i in range(n)]
    memo = {}

    def minor(cols):
        if not cols:
            return (one,)
        if cols in memo:
            return memo[cols]
        i = n - len(cols)
        acc = ()
        for idx, c in enumerate(cols):
            e = entries[i][c]
            if not e:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            term = poly_mul(e, sub, ring)
            if idx % 2 == 1:
                term = poly_neg(term)
            acc = poly_add(acc, term)
        memo[cols] = acc
        return acc

    p = minor(tuple(range(n)))
    # pad to full degree n+1
    p = tuple(p) + (zero,) * (n + 1 - len(p))
    return p


# ---------------------------------------------------------------------------
# Smith-type form over a rational function field, localized at the variable
# ---------------------------------------------------------------------------

def smith_form_local(M: Matrix):
    """Diagonalize M over the local ring at the distinguished variable of a
    FunctionField: returns (U, D, V, exponents) with U*M*V = D, D diagonal
    with exact variable-power entries in ascending exponent order, and U, V
    invertible over the local ring.

    Every nonzero rational function is a unit of the local ring times a
    power of the variable, so the reduction always succeeds on nonsingular
    input; a zero row or column can never be cleared and raises Singular.
    """
    ring = M.ring
    if not isinstance(ring, FunctionField):
        raise RingUnsupported("smith_form_local expects a FunctionField matrix")
    if M.nrows != M.ncols:
        raise BadDimension("square matrices only")
    n = M.nrows
    A = M.copy_data()
    U = Matrix.identity(ring, n).copy_data()
    V = Matrix.identity(ring, n).copy_data()

    def row_op(dst, src, f):
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

    def col_op(dst, src, f):
        for i in range(n):
            A[i][dst] = A[i][dst] + f * A[i][src]
        for i in range(n):
            V[i][dst] = V[i][dst] + f * V[i][src]

    for k in range(n):
        # pivot: minimal valuation in the remaining block, lowest row wins ties
        best = None
        for i in range(k, n):
            for j in range(k, n):
                if A[i][j].is_zero():
                    continue
                v = A[i][j].valuation()
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            raise Singular("matrix is singular over the function field")
        _, pi, pj = best
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for i in range(n):
                A[i][k], A[i][pj] = A[i][pj], A[i][k]
            for i in range(n):
                V[i][k], V[i][pj] = V[i][pj], V[i][k]
        # clear the pivot row and column; quotients are integral because the
        # pivot has minimal valuation
        for i in range(k + 1, n):
            if not A[i][k].is_zero():
                row_op(i, k, -(A[i][k] / A[k][k]))
        for j in range(k + 1, n):
            if not A[k][j].is_zero():
                col_op(j, k, -(A[k][j] / A[k][k]))
    # normalize each diagonal entry to an exact power of the variable
    exps = []
    for k in range(n):
        a = A[k][k].valuation()
        exps.append(a)
        inv = A[k][k].inverse().shift(a)
        A[k] = [inv * x for x in A[k]]
        U[k] = [inv * x for x in U[k]]
    # ascending exponent order via simultaneous row/col swaps
    order = sorted(range(n), key=lambda i: exps[i])
    A2 = [[A[order[i]][order[j]] for j in range(n)] for i in range(n)]
    U2 = [U[order[i]] for i in range(n)]
    V2 = [[V[i][order[j]] for j in range(n)] for i in range(n)]
    exps = [exps[i] for i in order]
    return (Matrix(ring, U2, coerce=False), Matrix(ring, A2, coerce=False),
            Matrix(ring, V2, coerce=False), exps)


def is_u_integral(M: Matrix) -> bool:
    """All entries regular at the distinguished variable."""
    return all(x.is_integral() for row in M.data for x in row)
