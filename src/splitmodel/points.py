"""Points of the special fiber: validation of the defining conditions, the
pair of stratum invariants (h, l), explicit chart constructions, the
dimension formula, and exhaustive or sampled stratum censuses.

A point is a pair of subspaces (F, G) of the frame's 2n-space: F of rank n
and isotropic for the symmetric pairing, G of rank s squeezed between the
images of (t+pi) and the kernel of (t-pi).  Its stratum is labeled by
h = dim t*F and l = dim(G meet G-perp') for the modified pairing.  Over a
prime field a point is validated and labelled on the int residues of its
rows, unboxed once per call; no field element is built for either.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import (
    AmbientMismatch,
    BadParameters,
    BudgetExceeded,
    ConstructionFailed,
    InvalidPoint,
    NotInTLambda,
    ParityViolated,
    RelationViolated,
    RingUnsupported,
)
from .frame import Frame, build_frame, normal_form_gram, orthogonal
from .linalg import (
    Matrix,
    Subspace,
    _eliminate_mod_p,
    _pairings_mod_p,
    _product_mod_p,
    _residues,
    charpoly,
    columns_contain,
    gaussian_binomial,
    intermediate_subspaces_iter,
    kernel_basis,
    rank,
    residual_rank,
    solve_right,
    subspaces_iter,
)
from .rings import PrimeField, poly_mul


class StratumLabel(NamedTuple):
    h: int
    l: int


class ValidationReport(NamedTuple):
    """Per-condition outcome of point validation, one flag per condition in
    checking order.  Conditions that cannot be evaluated over the
    coefficient ring are None ("skipped") and do not count against the
    verdict."""

    ranks: bool
    containment: bool
    isotropy: bool
    splitting_a: bool
    splitting_b: bool
    spin: bool | None
    kottwitz: bool | None

    @property
    def verdict(self) -> bool:
        return all(f for f in self if f is not None)

    def passes_closed_conditions(self) -> bool:
        """Conditions (1)-(3) only, the ones defining the closed subfunctor."""
        return all(self[:5])

    def first_failure(self):
        return next((name for name, f in zip(self._fields, self)
                     if f is False), None)

    def as_dict(self):
        return {**self._asdict(), "verdict": self.verdict}


class ModelPoint:
    """A candidate point: basis matrices for F (n rows) and G (s rows) in
    frame coordinates.  Rows are basis vectors of length 2n.

    Construction validates the point once, with the Kottwitz condition when
    ``kottwitz`` is set, and keeps the outcome in ``report``.  A point whose
    ranks or containment of G in F fail raises InvalidPoint.  ``label`` is
    None until ``invariants`` computes the stratum label, which it keeps
    there."""

    __slots__ = ("frame", "ring", "F_rows", "G_rows", "r", "s",
                 "predicted_label", "report", "label")

    def __init__(self, frame: Frame, F_rows: Matrix, G_rows: Matrix,
                 predicted_label=None, kottwitz=False):
        n = frame.n
        if F_rows.ring is not frame.ring or G_rows.ring is not frame.ring:
            raise AmbientMismatch("point and frame coefficient rings differ")
        if F_rows.ncols != 2 * n or G_rows.ncols != 2 * n:
            raise AmbientMismatch("basis vectors must have length 2n")
        self.frame = frame
        self.ring = frame.ring
        self.F_rows = F_rows
        self.G_rows = G_rows
        self.s = G_rows.nrows
        self.r = n - self.s
        self.predicted_label = predicted_label
        self.label = None
        if self.s > self.r:
            raise BadParameters("signature needs s <= r")
        self.report = validate(frame, F_rows, G_rows, kottwitz=kottwitz)
        if not self.report.ranks:
            raise InvalidPoint("basis matrices are not of full rank")
        if not self.report.containment:
            raise InvalidPoint("G is not contained in F")

    def F_subspace(self) -> Subspace:
        return Subspace(self.ring, 2 * self.frame.n, self.F_rows.rows(),
                        coerce=False)

    def G_subspace(self) -> Subspace:
        return Subspace(self.ring, 2 * self.frame.n, self.G_rows.rows(),
                        coerce=False)

    def validate(self) -> ValidationReport:
        """The report computed on construction."""
        return self.report

    def __repr__(self):
        return (f"ModelPoint(n={self.frame.n}, s={self.s} over "
                f"{self.ring!r})")


def _as_rows_matrix(ring, n2, obj):
    if isinstance(obj, Matrix) and obj.ring is ring:
        M = obj
    elif isinstance(obj, Subspace):
        M = Matrix(ring, [list(r) for r in obj.basis])
    elif isinstance(obj, Matrix):
        M = Matrix(ring, obj.rows())
    else:
        M = Matrix(ring, [list(r) for r in obj])
    if M.ncols != n2:
        raise AmbientMismatch("wrong ambient dimension")
    return M


def validate(frame: Frame, F, G, kottwitz=False) -> ValidationReport:
    """Check the defining conditions of a point (F, G) over the frame's
    coefficient ring.

    (1) ranks n and s with G inside F; (2) F isotropic for the symmetric
    pairing; (3) (t+pi)F inside G and (t-pi)G = 0; (4) parity of
    rank((t+pi) on F) equals parity of s -- evaluated on field points only,
    reported as skipped (None) otherwise.  The optional Kottwitz flag also
    compares the characteristic polynomial of t on F with the split form
    prescribed by the signature.
    """
    ring = frame.ring
    n = frame.n
    F_rows = _as_rows_matrix(ring, 2 * n, F)
    G_rows = _as_rows_matrix(ring, 2 * n, G)
    if frame.residues is not None and not kottwitz:
        return _validate_mod_p(frame, _residues(F_rows.data),
                               _residues(G_rows.data))
    F_cols = F_rows.transpose()
    G_cols = G_rows.transpose()
    s = G_rows.nrows

    # (1): ranks over the residue field, the same as ranks over a field
    ranks_ok = (F_rows.nrows == n and residual_rank(F_rows) == n
                and residual_rank(G_rows) == s)
    containment = ranks_ok and columns_contain(F_cols, G_cols)
    # (2): every symmetric pairing of basis vectors of F vanishes
    isotropy = (F_rows * frame.gram_sym * F_cols).is_zero()
    # (3a): (t+pi)F inside G
    image_a = frame.t_plus * F_cols
    splitting_a = ranks_ok and columns_contain(G_cols, image_a)
    # (3b): (t-pi)G = 0
    splitting_b = (frame.t_minus * G_cols).is_zero()
    # (4): the rank of (t+pi) on F is the rank of the columns of (3a);
    # skipped off field points, where it is not defined this way
    spin = (rank(image_a) - s) % 2 == 0 if ring.is_field else None
    kott = _kottwitz_check(frame, F_cols, n - s, s) if kottwitz else None
    return ValidationReport(ranks_ok, containment, isotropy, splitting_a,
                            splitting_b, spin, kott)


def _validate_mod_p(frame: Frame, F, G) -> ValidationReport:
    """validate over F_p without the Kottwitz condition, on the int residue
    rows F and G: the same conditions, where the columns are the transposed
    rows and a containment holds when stacking adds no pivot."""
    p, res, n, s = frame.ring.p, frame.residues, frame.n, len(G)
    rank = lambda rows: len(_eliminate_mod_p(rows, p)[1])
    ranks_ok = len(F) == n and rank(F) == n and rank(G) == s
    image_a = _product_mod_p(res["t_plus"], list(zip(*F)), p)
    image_b = _product_mod_p(res["t_minus"], list(zip(*G)), p)
    return ValidationReport(
        ranks=ranks_ok, containment=ranks_ok and rank(F + G) == n,
        isotropy=not any(map(any, _pairings_mod_p(F, res["gram_sym"], p))),
        splitting_a=ranks_ok and rank(G + list(zip(*image_a))) == s,
        splitting_b=not any(map(any, image_b)),
        spin=(rank(image_a) - s) % 2 == 0, kottwitz=None)


def _kottwitz_check(frame: Frame, cols: Matrix, r: int, s: int):
    """char poly of t acting on F (basis in the columns of cols) equals
    (T+pi)^r (T-pi)^s."""
    ring = frame.ring
    n = frame.n
    t_cols = frame.t_matrix * cols
    coeffs = []
    for j in range(n):
        x = solve_right(cols, t_cols.col(j))
        if x is None:
            return False
        coeffs.append(x)
    action = Matrix.from_cols(ring, coeffs)
    got = charpoly(action)
    pi = frame.pi
    one = ring.one
    target = (one,)
    for _ in range(r):
        target = poly_mul(target, (pi, one), ring)
    for _ in range(s):
        target = poly_mul(target, (-pi, one), ring)
    return tuple(got) == tuple(target)


# ---------------------------------------------------------------------------
# stratum invariants
# ---------------------------------------------------------------------------

def _radical_dim(frame: Frame, tails: Matrix) -> int:
    """Dimension of the radical of the modified pairing on the span of the
    independent ``tails`` (image-of-t parts of rows): the corank of its Gram
    matrix there, computed on the residues over a prime field."""
    if frame.residues is None:
        return tails.nrows - rank(tails * frame.gram_mod * tails.transpose())
    p, rows = frame.ring.p, _residues(tails.data)
    gram = _pairings_mod_p(rows, frame.residues["gram_mod"], p)
    return len(rows) - len(_eliminate_mod_p(gram, p)[1])


def invariants(point: ModelPoint) -> StratumLabel:
    """(h, l) of a validated field point: h = dim tF and
    l = dim(G meet G-perp'), the corank of the modified pairing on G.
    Computed on the first call and kept on the point, so later calls
    return the same label without work."""
    if point.label is not None:
        return point.label
    frame = point.frame
    ring = point.ring
    if not ring.is_field:
        raise RingUnsupported("invariants are defined for field points")
    if not point.report.passes_closed_conditions():
        raise InvalidPoint("point fails the closed conditions")
    if frame.residues is None:
        h = rank(point.F_rows * frame.t_matrix.transpose())
    else:
        p, F_cols = frame.ring.p, list(zip(*_residues(point.F_rows.data)))
        image = _product_mod_p(frame.residues["t_matrix"], F_cols, p)
        h = len(_eliminate_mod_p(image, p)[1])
    if not all(frame.in_t_lambda(row) for row in point.G_rows.data):
        raise NotInTLambda("the modified pairing needs G inside im(t)")
    n, s = frame.n, point.s
    l = _radical_dim(frame, point.G_rows.submatrix(range(s), range(n, 2 * n)))
    if not (0 <= h <= l <= s) or (l - s) % 2 != 0:
        raise InvalidPoint(f"invariant bookkeeping violated: h={h}, l={l}, s={s}")
    point.label = StratumLabel(h, l)
    return point.label


def stratum_dimension(r: int, s: int, h: int, l: int) -> int:
    """Dimension of the (h, l) stratum for signature (r, s)."""
    if not (0 <= h <= l <= s <= r):
        raise BadParameters("need 0 <= h <= l <= s <= r")
    if (l - s) % 2 != 0 or (h - l) % 2 != 0:
        raise BadParameters("labels must satisfy h = l = s mod 2")
    d = l - h
    return r * s - d * (d - 1) // 2


# ---------------------------------------------------------------------------
# chart constructions
# ---------------------------------------------------------------------------

def _coerce_rect(ring, obj, nrows, ncols, name):
    if obj is None:
        return Matrix.zero(ring, nrows, ncols)
    if isinstance(obj, Matrix):
        M = obj.map_entries(ring.coerce, ring)
    else:
        M = Matrix(ring, [list(r) for r in obj])
    if M.nrows != nrows or M.ncols != ncols:
        raise BadParameters(f"{name} must be {nrows}x{ncols}")
    return M


def _partner_pairs(M: Matrix):
    """The pairs (i, j) of a partner pairing M: i is the smallest index not
    yet paired and j the first unpaired index with M[i][j] nonzero."""
    free = list(range(M.nrows))
    pairs = []
    while free:
        i = free.pop(0)
        j = next((j for j in free if not M.data[i][j].is_zero()), None)
        if j is None:
            raise ConstructionFailed(f"basis vector {i} has no partner")
        free.remove(j)
        pairs.append((i, j))
    return pairs


def chart_transform(frame: Frame, case_matrix: Matrix) -> Matrix:
    """C over the frame's ring with C^t (gram_mod) C = the chart's
    normal-form matrix.

    Both forms are partner pairings: each basis vector pairs with exactly
    one other, by +-1.  For gram_mod = -J this is the antidiagonal identity;
    for a normal form it is the antidiagonal identity blocks and the
    standard skew blocks.  So C sends the k-th pair (i_B, j_B) of the normal
    form B to the k-th pair (i_A, j_A) of gram_mod A, with C[i_A][i_B] = 1
    and C[j_A][j_B] = B[i_B][j_B] / A[i_A][j_A] = B[i_B][j_B], as A pairs
    each i_A with its later partner by +1.  That is a signed permutation,
    the matrix a Gram-Schmidt symplectic basis of A times the inverse of one
    of B would give.  A form that is not a partner pairing is refused."""
    ring, A = frame.ring, frame.gram_mod
    data = [[ring.zero] * frame.n for _ in range(frame.n)]
    for (ia, ja), (ib, jb) in zip(_partner_pairs(A), _partner_pairs(case_matrix)):
        data[ia][ib] = ring.one
        data[ja][jb] = case_matrix.data[ib][jb]
    C = Matrix(ring, data, coerce=False)
    if C.transpose() * A * C != case_matrix:
        raise ConstructionFailed("the form is not a partner pairing")
    return C


def _rows_from_ft_columns(ring, C: Matrix, f_cols, t_cols, g_f_cols,
                          g_t_cols):
    """The basis matrices (F_rows, G_rows) of a point in chart coordinates.

    Each column is given by its f-part and tf-part coefficient vectors
    (length n); frame coordinates are C applied to each part."""

    def rows(f_parts, t_parts):
        return Matrix(ring, [C.apply_to_vector(f) + C.apply_to_vector(t)
                             for f, t in zip(f_parts, t_parts)], coerce=False)

    return rows(f_cols, t_cols), rows(g_f_cols, g_t_cols)


def _unit_vec(ring, n, i):
    v = [ring.zero] * n
    v[i] = ring.one
    return v


def chart_point_eps(n: int, s: int, X=None, W=None, X0=None, W0=None,
                    ring=None) -> ModelPoint:
    """Point of the chart around the worst point.  The worst point lies in
    the minimal stratum (s mod 2, s), and this is the chart adapted to it:
    chart_point_general(n, s, s % 2, s) with the parameters as Y2 and Z.

    Even s: X (arbitrary s x s) and W (s x s skew with (X - X^t)W = 0);
    predicted invariants (rk W, dim ker(X - X^t)).  Odd s: X0, W0 of size
    s-1 with the same relations; predicted invariants gain 1 each.
    """
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    if s % 2 == 0:
        if X0 is not None or W0 is not None:
            raise BadParameters("even s takes X and W")
        return chart_point_general(n, s, 0, s, Y2=X, Z=W, ring=ring)
    if X is not None or W is not None:
        raise BadParameters("odd s takes X0 and W0")
    return chart_point_general(n, s, 1, s, Y2=X0, Z=W0, ring=ring)


def chart_point_general(n: int, s: int, h: int, l: int, Y2=None, Z=None,
                        ring=None) -> ModelPoint:
    """Point of the chart adapted to the (h, l) stratum: parameters Y2 and
    skew Z of size (l-h) with (Y2 - Y2^t) Z = 0; predicted invariants
    (h + rk Z, h + dim ker(Y2 - Y2^t))."""
    if ring is None:
        ring = PrimeField(3)
    if n % 2 != 0 or n < 4 or not (0 <= h <= l <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 0 <= h <= l <= s <= n/2")
    if (s - l) % 2 != 0 or (l - h) % 2 != 0:
        raise ParityViolated("need h = l = s mod 2")
    r = n - s
    d = l - h
    Y2 = _coerce_rect(ring, Y2, d, d, "Y2")
    Z = _coerce_rect(ring, Z, d, d, "Z")
    if not (Z + Z.transpose()).is_zero():
        raise RelationViolated("Z must be skew")
    K = Y2 - Y2.transpose()
    if not (K * Z).is_zero():
        raise RelationViolated("(Y2 - Y2^t) Z must vanish")

    frame = build_frame(n, ring=ring)
    C = chart_transform(frame, normal_form_gram(h, l, s, n, "general",
                                                ring=ring).matrix)
    zvec = [ring.zero] * n
    # block offsets for sizes (h, l-h, s-l, r-l, l-h, h)
    off1 = h
    off4 = n - l

    def with_y2_tail(idx):
        """t-column e_idx plus the Y2 correction when idx sits in block 2."""
        v = _unit_vec(ring, n, idx)
        if off1 <= idx < off1 + d:
            ip = idx - off1
            for j in range(d):
                v[off4 + j] = v[off4 + j] + Y2.data[j][ip]
        return v

    g_f, g_t = [], []
    for i in range(h):
        g_f.append(list(zvec))
        g_t.append(_unit_vec(ring, n, i))
    for i in range(d):
        g_f.append(list(zvec))
        g_t.append(with_y2_tail(off1 + i))
    for i in range(s - l):
        g_f.append(list(zvec))
        g_t.append(_unit_vec(ring, n, l + i))

    f_cols, t_cols = [], []
    for i in range(n - l):
        f_cols.append(list(zvec))
        t_cols.append(with_y2_tail(i))
    for j in range(h):
        f_cols.append(_unit_vec(ring, n, j))
        t_cols.append(list(zvec))
    YZ = Y2 * Z
    for j in range(d):
        fv = [ring.zero] * n
        for i in range(d):
            fv[off1 + i] = Z.data[i][j]
            fv[off4 + i] = YZ.data[i][j]
        f_cols.append(fv)
        t_cols.append(_unit_vec(ring, n, off4 + j))

    if ring.is_field:
        predicted = StratumLabel(h + rank(Z), h + (d - rank(K)))
    else:
        predicted = None
    return ModelPoint(frame, *_rows_from_ft_columns(ring, C, f_cols, t_cols,
                                                    g_f, g_t),
                      predicted_label=predicted)


def chart_point_local(n: int, s: int, X=None, Y=None, Z=None, A=None, B=None,
                      ring=None, pi=None) -> ModelPoint:
    """Point of the affine chart over a ring carrying a uniformizer value.

    Parameters per the presentation: X, Y of size q x s (q = (r-s)/2),
    Z, A, B of size s x s, subject to A^t B + B^t A = 0 and
    (Z - Z^t + X^t Y - Y^t X) B = 2 pi A.  A defaults to the identity."""
    if ring is None:
        ring = PrimeField(3)
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    pi = ring.zero if pi is None else ring.coerce(pi)
    r = n - s
    q = (r - s) // 2
    X = _coerce_rect(ring, X, q, s, "X")
    Y = _coerce_rect(ring, Y, q, s, "Y")
    Z = _coerce_rect(ring, Z, s, s, "Z")
    A = Matrix.identity(ring, s) if A is None else _coerce_rect(ring, A, s, s, "A")
    B = _coerce_rect(ring, B, s, s, "B")
    Q = Z - Z.transpose()
    if q > 0:
        Q = Q + X.transpose() * Y - Y.transpose() * X
    if not (A.transpose() * B + B.transpose() * A).is_zero():
        raise RelationViolated("A^t B + B^t A must vanish")
    if not (Q * B - A * (pi + pi)).is_zero():
        raise RelationViolated("(Z - Z^t + X^t Y - Y^t X) B must equal 2 pi A")

    frame = build_frame(n, ring=ring, pi=pi)
    C = chart_transform(frame, normal_form_gram(s, s, s, n, "eps-stratum",
                                                ring=ring).matrix)

    def m_col(j):
        v = [ring.zero] * n
        v[j] = ring.one
        for i in range(q):
            v[s + i] = X.data[i][j]
            v[s + q + i] = Y.data[i][j]
        for i in range(s):
            v[n - s + i] = Z.data[i][j]
        return v

    def n_col(group, j):
        v = [ring.zero] * n
        if group == 0:
            v[s + j] = ring.one
            for i in range(s):
                v[n - s + i] = Y.data[j][i]
        else:
            v[s + q + j] = ring.one
            for i in range(s):
                v[n - s + i] = -X.data[j][i]
        return v

    M_cols = [m_col(j) for j in range(s)]
    MB = Matrix.from_cols(ring, M_cols) * B

    g_f = [[pi * c for c in col] for col in M_cols]
    g_t = [list(col) for col in M_cols]

    f_cols = [list(col) for col in g_f]
    t_cols = [list(col) for col in g_t]
    for group in (0, 1):
        for j in range(q):
            nc = n_col(group, j)
            f_cols.append([-(pi * c) for c in nc])
            t_cols.append(nc)
    for j in range(s):
        n1 = [ring.zero] * n
        for i in range(s):
            n1[n - s + i] = A.data[i][j]
        f_cols.append([MB.data[i][j] - pi * n1[i] for i in range(n)])
        t_cols.append(n1)

    return ModelPoint(frame, *_rows_from_ft_columns(ring, C, f_cols, t_cols,
                                                    g_f, g_t),
                      kottwitz=not pi.is_zero())


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class StratumCensus:
    __slots__ = ("params", "strata", "rejected", "seed")

    def __init__(self, params, strata, rejected, seed):
        self.params = params
        self.strata = strata
        self.rejected = rejected
        self.seed = seed

    def labels(self):
        return {lab for lab, c in self.strata.items() if c > 0}

    def to_json_dict(self):
        return {
            "params": self.params,
            "strata": [{"h": lab[0], "l": lab[1], "count": self.strata[lab]}
                       for lab in sorted(self.strata)],
            "rejected": dict(sorted(self.rejected.items())),
            "seed": self.seed,
        }

    def __repr__(self):
        return f"StratumCensus({self.params!r}, strata={dict(self.strata)!r})"


# the census reason of each flag the census can see fail; any other flag
# (kottwitz, which no census point evaluates) is a KeyError, not a miscount
_REJECT_REASONS = {"ranks": "rank", "containment": "rank",
                   "isotropy": "isotropy", "splitting_a": "splitting-a",
                   "splitting_b": "splitting-b", "spin": "spin"}


def _intervals(frame, s):
    """(G, L, U) for each G of the exhaustive walk: G over the
    s-dimensional subspaces of the image of t, L = G + G-perp' and U the
    preimage of G under t."""
    field, n = frame.ring, frame.n
    zrow = [field.zero] * n
    t_lambda = list(frame.t_lambda().basis)
    for Gproj in subspaces_iter(field, n, s):
        G = Subspace(field, 2 * n, [zrow + list(row) for row in Gproj.basis],
                     coerce=False)
        L = G.sum(orthogonal(frame, G, "modified"))
        U = Subspace(field, 2 * n, [list(row[n:]) + zrow for row in G.basis]
                     + t_lambda, coerce=False)
        yield G, L, U


def _exhaustive_walk(n, s, q, budget):
    """(count, candidates) of the exhaustive walk: count is the number of F
    in the intervals [L, U], summed over G, and candidates yields the
    points (F, G) with F totally isotropic, each validated in full,
    isotropy included; the walker builds no other F.  Raises
    BudgetExceeded, before any F is built, when count exceeds budget.
    With l the corank of the modified pairing on G, dim U/L = s + l and
    dim F/L = l, so G's interval holds [s + l choose l]_q candidates."""
    frame = build_frame(n, ring=PrimeField(q))
    coranks = (_radical_dim(frame, G.matrix())
               for G in subspaces_iter(frame.ring, n, s))
    total = sum(gaussian_binomial(s + l, l, q) for l in coranks)
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
    return total, (ModelPoint(frame, F.matrix(), G.matrix())
                   for G, L, U in _intervals(frame, s)
                   for F in intermediate_subspaces_iter(L, U, n,
                                                        frame.gram_sym))


def random_skew(field, rng, size):
    data = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = field.random(rng)
            data[i][j] = c
            data[j][i] = -c
    return Matrix(field, data, coerce=False)


def random_symmetric(field, rng, size):
    data = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        data[i][i] = field.random(rng)
        for j in range(i + 1, size):
            c = field.random(rng)
            data[i][j] = c
            data[j][i] = c
    return Matrix(field, data, coerce=False)


def random_skew_annihilating(field, rng, W: Matrix):
    """Random skew K with K W = 0, uniform over the solution space."""
    size = W.nrows
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    if not pairs:
        return Matrix.zero(field, size, size)
    # linear map: skew coordinates -> entries of K*W
    rows = []
    for a in range(size):
        for b in range(size):
            row = []
            for (i, j) in pairs:
                # contribution of K[i][j] = c, K[j][i] = -c to (K W)[a][b]
                coef = field.zero
                if a == i:
                    coef = coef + W.data[j][b]
                if a == j:
                    coef = coef - W.data[i][b]
                row.append(coef)
            rows.append(row)
    M = Matrix(field, rows, coerce=False)
    basis = kernel_basis(M)
    coeffs = [field.random(rng) for _ in basis]
    data = [[field.zero] * size for _ in range(size)]
    for c, vec in zip(coeffs, basis):
        for (i, j), entry in zip(pairs, vec):
            data[i][j] = data[i][j] + c * entry
            data[j][i] = data[j][i] - c * entry
    return Matrix(field, data, coerce=False)


def sample_eps_chart_point(n, s, field, rng) -> ModelPoint:
    """Seeded random point of the worst-point chart with valid relations."""
    size = s - s % 2
    W = random_skew(field, rng, size)
    K = random_skew_annihilating(field, rng, W)
    S = random_symmetric(field, rng, size)
    half = (field.one + field.one).inverse()
    Xm = (K + S).map_entries(lambda c: c * half)
    return chart_point_general(n, s, s % 2, s, Y2=Xm, Z=W, ring=field)


def sample_general_chart_point(n, s, h, l, field, rng) -> ModelPoint:
    """Seeded random point of the chart adapted to the (h, l) stratum.

    Draws skew Z, then a skew complement annihilating it, so the chart
    relation (Y2 - Y2^t) Z = 0 holds by construction."""
    d = l - h
    if d == 0:
        return chart_point_general(n, s, h, l, ring=field)
    Z = random_skew(field, rng, d)
    K = random_skew_annihilating(field, rng, Z)
    S = random_symmetric(field, rng, d)
    half = (field.one + field.one).inverse()
    Y2 = K.map_entries(lambda c: c * half) + S
    return chart_point_general(n, s, h, l, Y2=Y2, Z=Z, ring=field)


def _sampled_candidates(n, s, q, budget, seed, workers):
    """Yield budget seeded draws from the worst-point chart, split into one
    seeded draw stream per worker."""
    field = PrimeField(q)
    for w in range(workers):
        rng = random.Random(seed * 1000003 + w)
        for _ in range(budget // workers + (1 if w < budget % workers else 0)):
            yield sample_eps_chart_point(n, s, field, rng)


def census(n: int, s: int, q: int, strategy: str = "exhaustive",
           budget: int = 10 ** 8, seed: int = 0, workers: int = 1) -> StratumCensus:
    """Count validated points per stratum label.

    Exhaustive strategy enumerates G over the s-dimensional subspaces of
    the image of t, then F over the interval [G + G-perp', preimage of G
    under t]; every yielded candidate runs the full validator, and the
    candidates the walker skips, which are not totally isotropic, count as
    isotropy rejections.  `examined` counts both.  Chart-sampled
    strategy draws `budget` seeded random points of the worst-point chart,
    in `workers` seeded draw streams; the exhaustive walk does not depend
    on `workers`.
    """
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    if workers < 1:
        raise BadParameters("workers must be positive")
    if strategy == "exhaustive":
        examined, candidates = _exhaustive_walk(n, s, q, budget)
    elif strategy == "chart-sampled":
        examined = budget
        candidates = _sampled_candidates(n, s, q, budget, seed, workers)
    else:
        raise BadParameters(f"unknown strategy {strategy!r}")
    strata = {}
    rejected = dict.fromkeys(_REJECT_REASONS.values(), 0)
    walked = mismatches = 0
    for point in candidates:
        walked += 1
        if not point.report.verdict:
            rejected[_REJECT_REASONS[point.report.first_failure()]] += 1
            continue
        lab = invariants(point)
        if point.predicted_label is not None and lab != point.predicted_label:
            mismatches += 1
        strata[lab] = strata.get(lab, 0) + 1
    rejected["isotropy"] += examined - walked
    params = {"n": n, "s": s, "q": q, "strategy": strategy,
              "budget": budget, "workers": workers, "examined": examined}
    if strategy == "chart-sampled":
        params["prediction_mismatches"] = mismatches
    return StratumCensus(params, strata, rejected, seed)


def iter_validated_points(n: int, s: int, q: int, budget: int = 10 ** 8):
    """Yield (point, label) over every validated point of the exhaustive
    walk, in the same candidate order the exhaustive census uses."""
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    for point in _exhaustive_walk(n, s, q, budget)[1]:
        if point.report.verdict:
            yield point, invariants(point)


# ---------------------------------------------------------------------------
# first-order deformations
# ---------------------------------------------------------------------------

def tangent_report(point: ModelPoint) -> int:
    """Dimension of the space of first-order deformations of (F, G)
    satisfying the linearized closed conditions (1)-(3).

    Unknowns are maps F -> V/F and G -> V/G in the standard Grassmannian
    parametrization, so trivial reparametrizations are already quotiented
    out."""
    frame = point.frame
    field = point.ring
    if not field.is_field:
        raise RingUnsupported("tangent computation runs over field points")
    if not point.report.passes_closed_conditions():
        raise InvalidPoint("point fails the closed conditions")

    n2 = 2 * frame.n
    F = point.F_subspace()
    G = point.G_subspace()
    nF, sG = F.dim, G.dim
    compF = [c for c in range(n2) if c not in F.pivots]
    compG = [c for c in range(n2) if c not in G.pivots]
    dF, dG = len(compF), len(compG)

    f_basis = [list(row) for row in F.basis]
    g_basis = [list(row) for row in G.basis]
    t_plus, t_minus = frame.t_plus, frame.t_minus

    # unknown layout: phi[i][k] (i < nF, k < dF), then delta[a][k] (a < sG, k < dG)
    nvars = nF * dF + sG * dG

    def phi_idx(i, k):
        return i * dF + k

    def delta_idx(a, k):
        return nF * dF + a * dG + k

    rows = []

    def new_row():
        return [field.zero] * nvars

    # (2) linearized isotropy: (f_i, phi_j) + (phi_i, f_j) = 0
    gram = frame.gram_sym
    fg = [gram.apply_to_vector(f) for f in f_basis]  # gram . f_i
    for i in range(nF):
        for j in range(i, nF):
            row = new_row()
            for k, c in enumerate(compF):
                # phi_j coefficient against f_i: e_c . gram . f_i
                row[phi_idx(j, k)] = row[phi_idx(j, k)] + fg[i][c]
                row[phi_idx(i, k)] = row[phi_idx(i, k)] + fg[j][c]
            rows.append(row)

    # (3b) linearized: (t - pi) . delta_a = 0
    for a in range(sG):
        for coord in range(n2):
            row = new_row()
            for k, c in enumerate(compG):
                row[delta_idx(a, k)] = t_minus.data[coord][c]
            rows.append(row)

    # coefficients of (t + pi) f_j in the G basis, and of g_a in the F basis
    Gcols = Matrix.from_cols(field, g_basis)
    Fcols = Matrix.from_cols(field, f_basis)
    c_of = []
    for j in range(nF):
        tf = t_plus.apply_to_vector(f_basis[j])
        c_of.append(solve_right(Gcols, tf))
    u_of = []
    for a in range(sG):
        u_of.append(solve_right(Fcols, g_basis[a]))

    # (3a) linearized: (t + pi) phi_j - sum_a c_a(j) delta_a = 0 mod G
    red_tc = [G.reduce(t_plus.apply_to_vector(_unit_vec(field, n2, c)))
              for c in range(n2)]
    red_e_G = [G.reduce(_unit_vec(field, n2, c)) for c in range(n2)]
    for j in range(nF):
        for coord in range(n2):
            row = new_row()
            nontrivial = False
            for k, c in enumerate(compF):
                val = red_tc[c][coord]
                if not val.is_zero():
                    nontrivial = True
                row[phi_idx(j, k)] = val
            for a in range(sG):
                ca = c_of[j][a]
                if ca.is_zero():
                    continue
                for k, c in enumerate(compG):
                    val = ca * red_e_G[c][coord]
                    if not val.is_zero():
                        nontrivial = True
                    row[delta_idx(a, k)] = row[delta_idx(a, k)] - val
            if nontrivial:
                rows.append(row)

    # (1) linearized: delta_a - sum_j u_aj phi_j = 0 mod F
    red_e_F = [F.reduce(_unit_vec(field, n2, c)) for c in range(n2)]
    for a in range(sG):
        for coord in range(n2):
            row = new_row()
            nontrivial = False
            for k, c in enumerate(compG):
                val = red_e_F[c][coord]
                if not val.is_zero():
                    nontrivial = True
                row[delta_idx(a, k)] = val
            for j in range(nF):
                uj = u_of[a][j]
                if uj.is_zero():
                    continue
                for k, c in enumerate(compF):
                    val = uj * red_e_F[c][coord]
                    if not val.is_zero():
                        nontrivial = True
                    row[phi_idx(j, k)] = row[phi_idx(j, k)] - val
            if nontrivial:
                rows.append(row)

    if not rows:
        return nvars
    system = Matrix(field, rows, coerce=False)
    return len(kernel_basis(system))
