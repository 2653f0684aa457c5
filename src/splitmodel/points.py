"""Points of the special fiber: validation of the defining conditions, the
pair of stratum invariants (h, l), explicit chart constructions, the
dimension formula, and exhaustive or sampled stratum censuses.

A point is a pair of subspaces (F, G) of the frame's 2n-space: F of rank n
and isotropic for the symmetric pairing, G of rank s squeezed between the
images of (t+pi) and the kernel of (t-pi).  Its stratum is labeled by
h = dim t*F and l = dim(G meet G-perp') for the modified pairing.
Validation is a G half, what the conditions say about G alone (l among
it), then an F half, which also finds h.  Over a prime field both run on
the int residues of the rows, and the exhaustive census runs the G half
once per G and walks, checks and labels each F on residues, boxing none.
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
from .frame import Frame, build_frame, normal_form_gram
from .linalg import (
    Matrix,
    Subspace,
    _echelon_patterns,
    _eliminate_mod_p,
    _isotropic_walk,
    _kernel,
    _pairings_mod_p,
    _product_mod_p,
    _residues,
    _row_ops,
    charpoly,
    columns_contain,
    gaussian_binomial,
    kernel_basis,
    rank,
    residual_rank,
    solve_right,
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
    there, from the ranks (h, l) that validation found on the way."""

    __slots__ = ("frame", "ring", "F_rows", "G_rows", "r", "s",
                 "predicted_label", "report", "label", "_ranks")

    def __init__(self, frame: Frame, F_rows: Matrix, G_rows: Matrix,
                 predicted_label=None, kottwitz=False):
        n = frame.n
        if F_rows.ring is not frame.ring or G_rows.ring is not frame.ring:
            raise AmbientMismatch("point and frame coefficient rings differ")
        if F_rows.ncols != 2 * n or G_rows.ncols != 2 * n:
            raise AmbientMismatch("basis vectors must have length 2n")
        self.frame, self.ring = frame, frame.ring
        self.F_rows, self.G_rows = F_rows, G_rows
        self.s, self.r = G_rows.nrows, n - G_rows.nrows
        self.predicted_label, self.label = predicted_label, None
        if self.s > self.r:
            raise BadParameters("signature needs s <= r")
        self.report, *self._ranks = _check(frame, F_rows, G_rows, kottwitz)
        if not self.report.ranks:
            raise InvalidPoint("basis matrices are not of full rank")
        if not self.report.containment:
            raise InvalidPoint("G is not contained in F")

    @classmethod
    def _checked(cls, frame, F_rows, G_rows, report, label):
        """The point of a census outcome, which carries its report and label
        already: nothing is checked again."""
        point = cls.__new__(cls)
        point.frame, point.ring = frame, frame.ring
        point.F_rows, point.G_rows = F_rows, G_rows
        point.s, point.r = G_rows.nrows, frame.n - G_rows.nrows
        point.predicted_label, point.report = None, report
        point.label = point._ranks = label
        return point

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
    n2 = 2 * frame.n
    return _check(frame, _as_rows_matrix(frame.ring, n2, F),
                  _as_rows_matrix(frame.ring, n2, G), kottwitz)[0]


class _GHalf(NamedTuple):
    """What the conditions of a point say about G alone: rank(G) = s,
    (t-pi)G = 0, and l = dim(G meet G-perp'), the corank of the modified
    pairing on the image-of-t halves of G's rows.  l is None when G leaves
    the image of t, where that pairing is defined, or off field points."""

    ranks: bool
    splitting_b: bool
    l: int | None


def _check(frame: Frame, F: Matrix, G: Matrix, kottwitz=False):
    """(report, h, l) of the point with basis matrices F and G: the G half,
    then the F half.  Over F_p without the Kottwitz condition both run on
    the int residues of the rows, unboxed once here; otherwise on the
    element rows."""
    if frame.residues is None or kottwitz:
        g = _g_half_elements(frame, G.data)
        return (*_f_half_elements(frame, G.data, g, F.data, kottwitz), g.l)
    G = _residues(G.data)
    g = _g_half_mod_p(frame, G)
    return (*_f_half_mod_p(frame, G, g, _residues(F.data)), g.l)


def _g_half_mod_p(frame: Frame, G) -> _GHalf:
    """The G half over F_p on G's int residue rows: two eliminations and
    three products, once per G."""
    p, res, n = frame.ring.p, frame.residues, frame.n
    tails = [row[n:] for row in G]
    in_image = not any(any(row[:n]) for row in G)
    gram = _pairings_mod_p(tails, res["gram_mod"], p) if in_image else None
    return _GHalf(
        ranks=len(_eliminate_mod_p(G, p)[1]) == len(G),
        splitting_b=not any(map(any, _product_mod_p(res["t_minus"],
                                                    list(zip(*G)), p))),
        l=len(G) - len(_eliminate_mod_p(gram, p)[1]) if in_image else None)


def _f_half_mod_p(frame: Frame, G, g: _GHalf, F):
    """(report, h) of the point (F, G) over F_p, on the int residue rows F
    and G, given G's half g: rank(F) = n, G inside F, isotropy, (t+pi)F
    inside G and spin, where the columns are the transposed rows and a
    containment holds when stacking adds no pivot.  Four eliminations and
    three products.  h = rank((t+pi)F) is the label's h = rank(tF) at
    pi = 0, and None off it."""
    p, res, n, s = frame.ring.p, frame.residues, frame.n, len(G)
    rank = lambda rows: len(_eliminate_mod_p(rows, p)[1])
    ranks_ok = g.ranks and len(F) == n and rank(F) == n
    image_a = _product_mod_p(res["t_plus"], list(zip(*F)), p)
    rank_a = rank(image_a)
    report = ValidationReport(
        ranks=ranks_ok, containment=ranks_ok and rank(F + G) == n,
        isotropy=not any(map(any, _pairings_mod_p(F, res["gram_sym"], p))),
        splitting_a=ranks_ok and rank(G + list(zip(*image_a))) == s,
        splitting_b=g.splitting_b, spin=(rank_a - s) % 2 == 0, kottwitz=None)
    return report, rank_a if frame.pi.is_zero() else None


def _g_half_elements(frame: Frame, G) -> _GHalf:
    """The G half over any ring, by element arithmetic on G's rows: ranks
    over the residue field, and l on field points only."""
    ring, n, s = frame.ring, frame.n, len(G)
    G = Matrix(ring, G, coerce=False)
    in_image = ring.is_field and all(frame.in_t_lambda(row) for row in G.data)
    tails = G.submatrix(range(s), range(n, 2 * n))
    return _GHalf(
        ranks=residual_rank(G) == s,
        splitting_b=(frame.t_minus * G.transpose()).is_zero(),
        l=(s - rank(tails * frame.gram_mod * tails.transpose())
           if in_image else None))


def _f_half_elements(frame: Frame, G, g: _GHalf, F, kottwitz=False):
    """_f_half_mod_p over any ring, by element arithmetic on the rows F and
    G: ranks over the residue field and containment of column spans, which
    over a local ring is more than a rank; spin and h on field points only,
    and the Kottwitz condition when asked for."""
    ring, n, s = frame.ring, frame.n, len(G)
    F = Matrix(ring, F, coerce=False)
    F_cols, G_cols = F.transpose(), Matrix(ring, G, coerce=False).transpose()
    ranks_ok = g.ranks and F.nrows == n and residual_rank(F) == n
    image_a = frame.t_plus * F_cols
    rank_a = rank(image_a) if ring.is_field else None
    report = ValidationReport(
        ranks=ranks_ok,
        containment=ranks_ok and columns_contain(F_cols, G_cols),
        isotropy=(F * frame.gram_sym * F_cols).is_zero(),
        splitting_a=ranks_ok and columns_contain(G_cols, image_a),
        splitting_b=g.splitting_b,
        spin=None if rank_a is None else (rank_a - s) % 2 == 0,
        kottwitz=(_kottwitz_check(frame, F_cols, n - s, s) if kottwitz
                  else None))
    return report, rank_a if frame.pi.is_zero() else None


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

def invariants(point: ModelPoint) -> StratumLabel:
    """(h, l) of a validated field point: h = dim tF and
    l = dim(G meet G-perp'), the corank of the modified pairing on G.
    Validation found both ranks; the label is made from them on the first
    call and kept on the point, so later calls return the same label."""
    if point.label is not None:
        return point.label
    if not point.ring.is_field:
        raise RingUnsupported("invariants are defined for field points")
    if not point.report.passes_closed_conditions():
        raise InvalidPoint("point fails the closed conditions")
    point.label = _label(*point._ranks, point.s)
    return point.label


def _label(h, l, s) -> StratumLabel:
    """The label (h, l) after its bookkeeping checks: l needs G inside the
    image of t, and 0 <= h <= l <= s with l = s mod 2.  h is None only off
    pi = 0, where no closed point has G inside the image of t."""
    if l is None:
        raise NotInTLambda("the modified pairing needs G inside im(t)")
    if h is None or not (0 <= h <= l <= s) or (l - s) % 2 != 0:
        raise InvalidPoint(f"invariant bookkeeping violated: h={h}, l={l}, s={s}")
    return StratumLabel(h, l)


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
    C = chart_transform(frame, normal_form_gram(h, l, s, n, ring=ring))
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
    C = chart_transform(frame, normal_form_gram(0, s, s, n, ring=ring))

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


def _g_rows(ops, n, s):
    """The rows (0 | g) of each G of the exhaustive walk, on the rows of
    ops: g runs over the reduced rows of the s-dimensional subspaces of the
    image of t."""
    zrow = [ops.zero] * n
    for rows, _ in _echelon_patterns(ops, n, s):
        yield [zrow + row for row in rows]


def _interval(frame, ops, G):
    """(L, U) of G's interval, as bases on the rows of ops.  L = G + G-perp'
    is the reduced span of G's image-of-t halves and of a kernel basis of
    (those halves) * gram_mod: one residue kernel and one elimination.  U,
    the preimage of G under t, is written down reduced: the halves as
    (g | 0) above the identity on the image of t."""
    n, zero, one = frame.n, ops.zero, ops.one
    tails = [row[n:] for row in G]
    perp = _kernel(ops, ops.product(tails, ops.unbox(frame.gram_mod.data)), n)
    rows, pivots, _ = ops.eliminate(tails + perp)
    zrow = [zero] * n
    L = [zrow + row for row in rows[:len(pivots)]]
    U = [row + zrow for row in tails] + [
        zrow + [one if c == j else zero for c in range(n)] for j in range(n)]
    return L, U


def _exhaustive_walk(n, s, q, budget):
    """(frame, count, outcomes) of the exhaustive walk.  count is the
    number of F in the intervals [L, U], summed over G: with l the corank
    of the modified pairing on G, dim U/L = s + l and dim F/L = l, so G's
    interval holds [s + l choose l]_q candidates.  outcomes yields
    (G, F, report, label) for each totally isotropic F, with G and F as
    rows (int residues over F_p) and the label None unless the report
    passes; the walker builds no other F, and nothing is boxed.

    The G half runs once per G, before the walk, and its l serves both the
    count and the labels; the walk regenerates G's rows, which takes no
    kernel call, instead of holding them all.  Raises BudgetExceeded, before
    any F is built, when count exceeds budget."""
    frame = build_frame(n, ring=PrimeField(q))
    ops = _row_ops(frame.ring)
    g_half, f_half = ((_g_half_mod_p, _f_half_mod_p) if frame.residues
                      else (_g_half_elements, _f_half_elements))
    # few distinct halves: keep one record of each
    shared = {}
    halves = [shared.setdefault(g, g)
              for g in (g_half(frame, G) for G in _g_rows(ops, n, s))]
    total = sum(gaussian_binomial(s + g.l, g.l, q) for g in halves)
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
    gram = ops.unbox(frame.gram_sym.data)

    def outcomes():
        for G, g in zip(_g_rows(ops, n, s), halves):
            L, U = _interval(frame, ops, G)
            for F, _ in _isotropic_walk(ops, L, U, n, gram):
                report, h = f_half(frame, G, g, F)
                label = _label(h, g.l, s) if report.verdict else None
                yield G, F, report, label

    return frame, total, outcomes()


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
    under t]; every yielded candidate runs the full validator (its G half
    once per G, its F half per F), and the candidates the walker skips,
    which are not totally isotropic, count as isotropy rejections.
    `examined` counts both.  Chart-sampled strategy draws `budget` seeded
    random points of the worst-point chart, in `workers` seeded draw
    streams; the exhaustive walk does not depend on `workers`.
    """
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    if workers < 1:
        raise BadParameters("workers must be positive")
    if strategy == "exhaustive":
        _, examined, outcomes = _exhaustive_walk(n, s, q, budget)
        checked = ((report, label, None) for _, _, report, label in outcomes)
    elif strategy == "chart-sampled":
        examined = budget
        draws = _sampled_candidates(n, s, q, budget, seed, workers)
        checked = ((p.report, invariants(p) if p.report.verdict else None,
                    p.predicted_label) for p in draws)
    else:
        raise BadParameters(f"unknown strategy {strategy!r}")
    strata = {}
    rejected = dict.fromkeys(_REJECT_REASONS.values(), 0)
    walked = mismatches = 0
    for report, lab, predicted in checked:
        walked += 1
        if not report.verdict:
            rejected[_REJECT_REASONS[report.first_failure()]] += 1
            continue
        if predicted is not None and lab != predicted:
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
    walk, in the same candidate order the exhaustive census uses.  Only
    these points are boxed, each into a ModelPoint that carries its report
    and label."""
    if n % 2 != 0 or n < 4 or not (1 <= s <= n // 2):
        raise BadParameters("need even n >= 4 and 1 <= s <= n/2")
    frame, _, outcomes = _exhaustive_walk(n, s, q, budget)
    box = _row_ops(frame.ring).box
    matrix = lambda rows: Matrix(frame.ring, box(rows), coerce=False)
    for G, F, report, label in outcomes:
        if report.verdict:
            yield (ModelPoint._checked(frame, matrix(F), matrix(G), report,
                                       label), label)
