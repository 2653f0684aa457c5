"""The standard ambient frame: a rank-2n module with a square-zero operator
t, a symmetric pairing, and the perfect alternating pairing induced on the
image of t, together with the block normal forms of that alternating pairing
used by the chart constructions.  The forms the charts use, like the
alternating pairing itself, pair every basis vector with one partner by +-1,
so a chart changes basis by a signed permutation (points.chart_transform).

Basis ordering is fixed once and for all:

    b_1..b_m     = pi^-1 * e_1 .. pi^-1 * e_m
    b_{m+1}..b_n = e_{m+1} .. e_n
    b_{n+1}..b_{n+m}  = e_1 .. e_m
    b_{n+m+1}..b_{2n} = pi * e_{m+1} .. pi * e_n

so that t sends b_i to b_{n+i} and b_{n+i} to pi^2 * b_i.  All matrices in
this package are written in this ordering.
"""

from __future__ import annotations

from .errors import BadDimension, BadParameters, NotInTLambda
from .linalg import (Matrix, Subspace, _is_prime_field, _residues,
                     kernel_basis)
from .rings import PrimeField


def _h_antidiag(ring, m):
    z, o = ring.zero, ring.one
    return Matrix(ring, [[o if i + j == m - 1 else z for j in range(m)]
                         for i in range(m)], coerce=False)


def _j_matrix(ring, n):
    """J = [[0, -H],[H, 0]] of size n = 2m; J^2 = -I."""
    m = n // 2
    H = _h_antidiag(ring, m)
    Z = Matrix.zero(ring, m, m)
    return Matrix.block(ring, [[Z, -H], [H, Z]])


class Frame:
    """Immutable container for the ambient data.  ``pi`` is the value the
    uniformizer takes in the coefficient ring: zero in the special fiber,
    the distinguished variable over a function field in it.  ``t_plus`` and
    ``t_minus`` are t + pi and t - pi, the operators of the splitting
    conditions.  Over a prime field ``residues`` maps each of the names
    t_matrix, t_plus, t_minus, gram_sym and gram_mod to the int residue
    rows of that matrix; over any other ring it is None."""

    __slots__ = ("ring", "n", "m", "pi", "t_matrix", "t_plus", "t_minus",
                 "gram_sym", "gram_mod", "residues")

    def __init__(self, ring, n, pi):
        self.ring = ring
        self.n = n
        self.m = n // 2
        self.pi = pi
        I = Matrix.identity(ring, n)
        Z = Matrix.zero(ring, n, n)
        P = I * pi
        P2 = I * (pi * pi)
        self.t_matrix = Matrix.block(ring, [[Z, P2], [I, Z]])
        self.t_plus = Matrix.block(ring, [[P, P2], [I, P]])
        self.t_minus = Matrix.block(ring, [[-P, P2], [I, -P]])
        J = _j_matrix(ring, n)
        self.gram_sym = Matrix.block(ring, [[Z, J], [-J, Z]])
        self.gram_mod = -J
        names = ("t_matrix", "t_plus", "t_minus", "gram_sym", "gram_mod")
        self.residues = ({k: _residues(getattr(self, k).data) for k in names}
                         if _is_prime_field(ring) else None)

    def t_apply(self, v):
        return self.t_matrix.apply_to_vector([self.ring.coerce(x) for x in v])

    def basis_vector(self, i):
        """b_i as a coordinate vector, 1-indexed."""
        z = self.ring.zero
        v = [z] * (2 * self.n)
        v[i - 1] = self.ring.one
        return v

    def t_lambda(self) -> Subspace:
        """The span of the last n basis vectors (image of t in the special
        fiber)."""
        rows = [self.basis_vector(self.n + i) for i in range(1, self.n + 1)]
        return Subspace(self.ring, 2 * self.n, rows, coerce=False)

    def in_t_lambda(self, v) -> bool:
        return all(self.ring.coerce(x).is_zero() for x in v[: self.n])

    def __repr__(self):
        return f"Frame(n={self.n} over {self.ring!r}, pi={self.pi!r})"


def build_frame(n: int, ring=None, pi=None) -> Frame:
    """The standard frame of even dimension n >= 4.

    With no arguments beyond n this is the special fiber over F_3 (pi = 0).
    Pass a ring carrying a distinguished element to work with pi != 0.
    """
    if n % 2 != 0 or n < 4:
        raise BadDimension("frame dimension must be even and at least 4")
    if ring is None:
        ring = PrimeField(3)
    pi = ring.zero if pi is None else ring.coerce(pi)
    return Frame(ring, n, pi)


def pair(frame: Frame, x, y, kind: str = "symmetric"):
    """Evaluate the symmetric pairing on the 2n-space or the modified
    alternating pairing on the span of the last n basis vectors."""
    ring = frame.ring
    x = [ring.coerce(c) for c in x]
    y = [ring.coerce(c) for c in y]
    if kind == "symmetric":
        if len(x) != 2 * frame.n or len(y) != 2 * frame.n:
            raise BadDimension("symmetric pairing takes 2n-vectors")
        gy = frame.gram_sym.apply_to_vector(y)
        acc = ring.zero
        for a, b in zip(x, gy):
            acc = acc + a * b
        return acc
    if kind == "modified":
        if len(x) != 2 * frame.n or len(y) != 2 * frame.n:
            raise BadDimension("modified pairing takes 2n-vectors")
        if not frame.in_t_lambda(x) or not frame.in_t_lambda(y):
            raise NotInTLambda("modified pairing is defined on the image of t")
        xt = x[frame.n:]
        yt = y[frame.n:]
        gy = frame.gram_mod.apply_to_vector(yt)
        acc = ring.zero
        for a, b in zip(xt, gy):
            acc = acc + a * b
        return acc
    raise BadParameters(f"unknown pairing kind {kind!r}")


def orthogonal(frame: Frame, U: Subspace, kind: str = "symmetric") -> Subspace:
    """Orthogonal complement for the chosen pairing.  The modified kind
    stays inside the span of the last n basis vectors and returns the
    complement there (dimension n - dim U)."""
    ring = frame.ring
    n2 = 2 * frame.n
    if U.ambient != n2:
        raise BadDimension("subspace does not live in the 2n-space")
    if kind == "symmetric":
        return U.perp(frame.gram_sym)
    if kind == "modified":
        for row in U.basis:
            if not frame.in_t_lambda(row):
                raise NotInTLambda("modified complement needs U inside im(t)")
        if U.dim == 0:
            return frame.t_lambda()
        tails = Matrix(ring, [list(row[frame.n:]) for row in U.basis],
                       coerce=False)
        ker = kernel_basis(tails * frame.gram_mod)
        z = ring.zero
        vectors = [[z] * frame.n + list(v) for v in ker]
        return Subspace(ring, n2, vectors, coerce=False)
    raise BadParameters(f"unknown pairing kind {kind!r}")


# ---------------------------------------------------------------------------
# block normal forms of the alternating pairing in chart bases
# ---------------------------------------------------------------------------

class NormalFormGram:
    __slots__ = ("h", "l", "s", "n", "case", "matrix")

    def __init__(self, h, l, s, n, case, matrix):
        self.h = h
        self.l = l
        self.s = s
        self.n = n
        self.case = case
        self.matrix = matrix

    def __repr__(self):
        return f"NormalFormGram({self.case}, h={self.h}, l={self.l}, s={self.s}, n={self.n})"


def _std_skew(ring, size):
    """[[0, I],[-I, 0]] of even size."""
    half = size // 2
    I = Matrix.identity(ring, half)
    Z = Matrix.zero(ring, half, half)
    return Matrix.block(ring, [[Z, I], [-I, Z]])


_CASES = ("eps-stratum", "general", "schubert-selfdual", "schubert-pimodular")


def normal_form_gram(h: int, l: int, s: int, n: int, case: str,
                     ring=None) -> NormalFormGram:
    """The n x n matrix of the alternating (or, in the selfdual case,
    symmetric) pairing in the chart basis for the given stratum data.

    The general case pairs the blocks of sizes (h, l-h, s-l, r-l, l-h, h)
    antidiagonally, with standard skew forms on the middle two.  The
    eps-stratum case is the general matrix at (h, l) = (0, s);
    schubert-pimodular is the negated general matrix; schubert-selfdual
    puts identities in place of the skew blocks.

    Every case checks the h and l passed: 0 <= h <= l <= s <= n/2 and,
    except for schubert-selfdual, l = s mod 2.  So eps-stratum refuses
    (1, 2, 3, 8) and (3, 3, 2, 8), although its matrix ignores h and l."""
    if ring is None:
        ring = PrimeField(3)
    if case not in _CASES:
        raise BadParameters(f"unknown case {case!r}")
    if n % 2 != 0 or n < 4:
        raise BadParameters("n must be even and at least 4")
    r = n - s
    if not (0 <= h <= l <= s <= n // 2):
        raise BadParameters("need 0 <= h <= l <= s <= n/2")
    if case != "schubert-selfdual":
        if (l - s) % 2 != 0:
            raise BadParameters("parity: l and s must agree mod 2")
    bh, bl = (0, s) if case == "eps-stratum" else (h, l)
    sizes = [bh, bl - bh, s - bl, r - bl, bl - bh, bh]
    offs = [sum(sizes[:k]) for k in range(7)]
    Ih = Matrix.identity(ring, bh)
    Ilh = Matrix.identity(ring, bl - bh)
    if case == "schubert-selfdual":
        blocks = {(0, 5): Ih, (1, 4): Ilh,
                  (2, 2): Matrix.identity(ring, s - bl),
                  (3, 3): Matrix.identity(ring, r - bl),
                  (4, 1): Ilh, (5, 0): Ih}
    else:
        blocks = {(0, 5): Ih, (1, 4): Ilh,
                  (2, 2): _std_skew(ring, s - bl),
                  (3, 3): _std_skew(ring, r - bl),
                  (4, 1): -Ilh, (5, 0): -Ih}
    data = [[ring.zero] * n for _ in range(n)]
    for (bi, bj), blk in blocks.items():
        for i in range(sizes[bi]):
            for j in range(sizes[bj]):
                data[offs[bi] + i][offs[bj] + j] = blk.data[i][j]
    T = Matrix(ring, data, coerce=False)
    if case == "schubert-pimodular":
        T = -T
    return NormalFormGram(h, l, s, n, case, T)
