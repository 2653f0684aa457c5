import itertools
import random

import pytest

from splitmodel import linalg
from splitmodel.errors import (AmbientMismatch, BadDimension, NotAField,
                               RingUnsupported, Singular)
from splitmodel.linalg import (
    Matrix,
    Subspace,
    charpoly,
    columns_contain,
    det,
    echelon_local,
    gaussian_binomial,
    hstack,
    intermediate_subspaces_iter,
    inverse,
    kernel_basis,
    rank,
    residual_rank,
    rref,
    smith_form_local,
    solve_right,
    subspaces_iter,
)
from splitmodel.rings import (
    FFElement,
    FunctionField,
    PolynomialRing,
    PrimeField,
    SeriesRing,
)

from ku_lattices import is_u_integral

F5 = PrimeField(5)
F3 = PrimeField(3)
PRIME_FIELDS = [PrimeField(q) for q in (3, 5, 7)]


def rand_matrix(field, rng, nrows, ncols):
    return Matrix(field, [[field.random(rng) for _ in range(ncols)]
                          for _ in range(nrows)], coerce=False)


def test_matrix_basics():
    M = Matrix(F5, [[1, 2], [3, 4]])
    N = Matrix(F5, [[0, 1], [1, 0]])
    assert (M * N).data[0][0] == F5.from_int(2)
    assert M + N - N == M
    assert (M * 2).data[1][1] == F5.from_int(3)
    assert M.transpose().transpose() == M
    assert Matrix.identity(F5, 2) * M == M
    v = M.apply_to_vector([F5.one, F5.zero])
    assert v == [F5.from_int(1), F5.from_int(3)]


def test_block_and_stack():
    I = Matrix.identity(F5, 2)
    B = Matrix.block(F5, [[I, 0], [0, I]])
    assert B == Matrix.identity(F5, 4)
    assert hstack(I, I).ncols == 4


def test_rref_requires_field():
    R = SeriesRing(F3, "v", 2)
    M = Matrix.identity(R, 2)
    with pytest.raises(NotAField):
        rref(M)


def test_rref_and_rank_random():
    rng = random.Random(11)
    for _ in range(60):
        M = rand_matrix(F5, rng, rng.randrange(1, 5), rng.randrange(1, 5))
        R, pivots = rref(M)
        assert rank(M) == len(pivots)
        # pivots normalized to 1, and are the only nonzero entry of their column
        for r, c in enumerate(pivots):
            assert R.data[r][c] == F5.one
            assert sum(1 for i in range(R.nrows) if not R.data[i][c].is_zero()) == 1
        # rref is idempotent
        assert rref(R)[0] == R


def test_det_multiplicative():
    rng = random.Random(12)
    for _ in range(50):
        A = rand_matrix(F5, rng, 3, 3)
        B = rand_matrix(F5, rng, 3, 3)
        assert det(A * B) == det(A) * det(B)


def test_inverse_and_singular():
    rng = random.Random(13)
    found = 0
    for _ in range(40):
        A = rand_matrix(F5, rng, 3, 3)
        if det(A).is_zero():
            with pytest.raises(Singular):
                inverse(A)
        else:
            found += 1
            assert A * inverse(A) == Matrix.identity(F5, 3)
    assert found > 10


def test_kernel_and_solve():
    rng = random.Random(14)
    for _ in range(40):
        M = rand_matrix(F5, rng, 3, 5)
        K = kernel_basis(M)
        assert len(K) == 5 - rank(M)
        for v in K:
            assert all(x.is_zero() for x in M.apply_to_vector(v))
        x = [F5.random(rng) for _ in range(5)]
        b = M.apply_to_vector(x)
        sol = solve_right(M, b)
        assert sol is not None
        assert M.apply_to_vector(sol) == b


FIELDS = [PrimeField(q) for q in (3, 5, 7, 9)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_idempotent_with_echelon_local_pivots(field):
    rng = random.Random(f"rref:{field.q}")
    for _ in range(30):
        M = rand_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 7))
        R, pivots = rref(M)
        assert rref(R) == (R, pivots)
        E, local_pivots = echelon_local(M)
        assert E == R
        assert [c for _, c in local_pivots] == pivots
        assert [r for r, _ in local_pivots] == list(range(len(pivots)))


def _leibniz_det(M):
    """Determinant by the permutation expansion, independent of elimination."""
    ring, n = M.ring, M.nrows
    acc = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = ring.one
        for i, j in enumerate(perm):
            term = term * M.data[i][j]
        acc = acc + (-term if inversions % 2 else term)
    return acc


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_multiplicative_and_matches_permutation_expansion(field):
    rng = random.Random(f"det:{field.q}")
    for _ in range(30):
        size = rng.randrange(1, 5)
        A = rand_matrix(field, rng, size, size)
        B = rand_matrix(field, rng, size, size)
        assert det(A * B) == det(A) * det(B)
        assert det(A) == _leibniz_det(A)
    # a row swap flips the sign; a repeated row gives zero
    P = Matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert det(P) == -field.one
    assert det(Matrix(field, [[1, 2, 0], [1, 2, 0], [0, 1, 1]])).is_zero()


def test_det_over_function_field():
    K = FunctionField(F3, "u")
    rng = random.Random(19)
    for _ in range(10):
        A = Matrix(K, [[K.random_poly(rng, 1) for _ in range(3)]
                       for _ in range(3)])
        B = Matrix(K, [[K.random_poly(rng, 1) for _ in range(3)]
                       for _ in range(3)])
        assert det(A * B) == det(A) * det(B)
        assert det(A) == _leibniz_det(A)


def test_solve_right_over_series_ring():
    R = SeriesRing(F3, "v", 3)
    v = R.gen
    rng = random.Random(20)
    solved = 0
    for _ in range(40):
        A = Matrix(R, [[R.random(rng) for _ in range(2)] for _ in range(3)])
        if residual_rank(A) != 2:
            with pytest.raises(RingUnsupported):
                solve_right(A, [R.zero] * 3)
            continue
        solved += 1
        x = [R.random(rng) for _ in range(2)]
        b = A.apply_to_vector(x)
        # full residual column rank: the solution is unique
        assert solve_right(A, b) == x
    assert solved > 20
    A = Matrix(R, [[R.one, v], [v, R.one], [R.zero, R.zero]])
    # a unit outside the span, and a non-unit left over in a non-pivot row
    assert solve_right(A, [R.zero, R.zero, R.one]) is None
    assert solve_right(A, [R.zero, R.zero, v]) is None
    assert solve_right(A, [R.one, v, R.zero]) == [R.one, R.zero]


def test_local_elimination_and_containment():
    R = SeriesRing(F3, "v", 3)
    v = R.gen
    A = Matrix(R, [[R.one, v], [v, R.one]])
    assert residual_rank(A) == 2
    E, pivots = echelon_local(A)
    assert len(pivots) == 2
    B = Matrix(R, [[v * v], [R.one + v]])
    assert columns_contain(A, B)
    # v*I does not have a unit pivot anywhere
    N = Matrix(R, [[v, R.zero], [R.zero, v]])
    assert residual_rank(N) == 0
    with pytest.raises(RingUnsupported):
        columns_contain(N, B)
    # a genuine non-member: e1 is not in the span of (v*e1, e2)
    A2 = Matrix(R, [[v, R.zero], [R.zero, R.one]])
    with pytest.raises(RingUnsupported):
        columns_contain(A2, Matrix(R, [[R.one], [R.zero]]))


def test_columns_contain_detects_failure():
    R = SeriesRing(F3, "v", 3)
    v = R.gen
    # full residual rank 1 in ambient 2
    A = Matrix(R, [[R.one], [v]])
    inside = Matrix(R, [[v + v * v], [v * v + v * v * v]])
    assert columns_contain(A, inside)
    outside = Matrix(R, [[R.one], [R.one]])
    assert not columns_contain(A, outside)


def intersect(A, B):
    """A meet B, from the kernel of [A^t | -B^t]: each kernel vector (a, b)
    gives the common vector a A = b B.  The reference for l = dim(G meet
    G-perp'), which the package reads off a Gram rank instead."""
    if A.dim == 0 or B.dim == 0:
        return Subspace(A.ring, A.ambient, [])
    K = kernel_basis(hstack(A.matrix().transpose(), -B.matrix().transpose()))
    if not K:
        return Subspace(A.ring, A.ambient, [])
    coeffs = Matrix(A.ring, [k[: A.dim] for k in K], coerce=False)
    return Subspace(A.ring, A.ambient, (coeffs * A.matrix()).data,
                    coerce=False)


def test_subspace_grassmann_identity():
    rng = random.Random(15)
    for _ in range(50):
        A = Subspace(F3, 5, [[F3.random(rng) for _ in range(5)]
                             for _ in range(rng.randrange(1, 4))])
        B = Subspace(F3, 5, [[F3.random(rng) for _ in range(5)]
                             for _ in range(rng.randrange(1, 4))])
        S = A.sum(B)
        I = intersect(A, B)
        assert S.dim + I.dim == A.dim + B.dim
        assert S.contains(A) and S.contains(B)
        assert A.contains(I) and B.contains(I)


def test_subspace_equality_is_canonical():
    a = Subspace(F5, 3, [[1, 2, 3], [0, 1, 1]])
    b = Subspace(F5, 3, [[1, 3, 4], [0, 2, 2]])
    assert a == b
    assert hash(a) == hash(b)


def test_containment_refuses_other_lengths_and_rings(monkeypatch):
    # a longer subspace or vector was once cut to length 3 and found inside,
    # and a subspace over F_5 raised a bare TypeError
    def refuse(*args):
        raise AssertionError("residues read")

    S = Subspace(F3, 3, [[1, 0, 0], [0, 1, 0]])
    longer = Subspace(F3, 4, [[1, 0, 0, 1]])
    over_f5 = Subspace(F5, 3, [[1, 0, 0]])
    monkeypatch.setattr(linalg, "_eliminate_mod_p", refuse)
    with pytest.raises(BadDimension):
        S.contains(longer)
    with pytest.raises(BadDimension):
        S.contains_vector([1, 0, 0, 2])
    with pytest.raises(AmbientMismatch):
        S.contains(over_f5)


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_residue_containment_matches_reduce(field):
    rng = random.Random(f"contains:{field.q}")
    for _ in range(40):
        A, B = (Subspace(field, 5, [[field.random(rng) for _ in range(5)]
                                    for _ in range(rng.randrange(4))])
                for _ in range(2))
        assert A.contains(B) == (not any(any(A.reduce(r)) for r in B.basis))
        for v in B.basis:
            assert A.contains_vector(v) == (not any(A.reduce(v)))
        assert A.sum(B).contains(A) and A.contains(Subspace(field, 5, []))


def test_subspace_perp():
    rng = random.Random(16)
    gram = Matrix(F5, [[0, 1, 0, 0], [4, 0, 0, 0], [0, 0, 0, 1], [0, 0, 4, 0]])
    for _ in range(30):
        V = Subspace(F5, 4, [[F5.random(rng) for _ in range(4)]
                             for _ in range(rng.randrange(1, 3))])
        P = V.perp(gram)
        assert P.dim == 4 - V.dim
        assert P.perp(gram) == V


def test_subspaces_iter_counts():
    for n, k in [(3, 1), (3, 2), (4, 2)]:
        got = sum(1 for _ in subspaces_iter(F3, n, k))
        assert got == gaussian_binomial(n, k, 3)
    subs = list(subspaces_iter(F3, 3, 1))
    assert len(set(subs)) == len(subs)


def test_intermediate_subspaces():
    lower = Subspace(F3, 4, [[1, 0, 0, 0]])
    upper = Subspace(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    mids = list(intermediate_subspaces_iter(lower, upper, 2, Matrix.zero(F3, 4, 4)))
    assert len(mids) == gaussian_binomial(2, 1, 3)
    for m in mids:
        assert m.contains(lower) and upper.contains(m) and m.dim == 2


def test_charpoly_companion():
    # companion matrix of T^3 - 2T - 1 over F5
    M = Matrix(F5, [[0, 0, 1], [1, 0, 2], [0, 1, 0]])
    p = charpoly(M)
    assert p == (F5.from_int(-1), F5.from_int(-2), F5.zero, F5.one)


def test_charpoly_matches_det_at_points():
    rng = random.Random(17)
    for _ in range(25):
        M = rand_matrix(F5, rng, 4, 4)
        p = charpoly(M)
        x = F5.random(rng)
        acc = F5.zero
        power = F5.one
        for c in p:
            acc = acc + c * power
            power = power * x
        assert acc == det(Matrix.diagonal(F5, [x] * 4) - M)


def test_charpoly_over_series_ring():
    R = SeriesRing(F3, "v", 2)
    v = R.gen
    M = Matrix(R, [[v, R.one], [R.zero, v]])
    p = charpoly(M)
    # (T - v)^2 = T^2 - 2vT + v^2, and v^2 = 0 here
    assert p == (R.zero, -(v + v), R.one)


def rand_unit_matrix(K, rng, n):
    """Random GL_n of the local ring: integral entries, unit determinant."""
    M = Matrix.identity(K, n).copy_data()
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = K.from_coeffs([K.base.random(rng) for _ in range(2)])
        M[i] = [a + f * b for a, b in zip(M[i], M[j])]
    return Matrix(K, M, coerce=False)


def test_smith_form_local_reconstruction():
    K = FunctionField(F3, "u")
    rng = random.Random(18)
    for _ in range(25):
        n = 3
        exps = sorted(rng.randrange(-2, 3) for _ in range(n))
        D0 = Matrix.diagonal(K, [K.monomial(e) for e in exps])
        L = rand_unit_matrix(K, rng, n)
        R = rand_unit_matrix(K, rng, n)
        M = L * D0 * R
        U, D, V, got = smith_form_local(M)
        assert got == exps
        assert U * M * V == D
        for i in range(n):
            assert D.data[i][i] == K.monomial(exps[i])
        assert is_u_integral(U) and is_u_integral(V)
        assert det(U).valuation() == 0
        assert det(V).valuation() == 0


def test_smith_form_local_singular():
    K = FunctionField(F3, "u")
    M = Matrix(K, [[K.one, K.one], [K.one, K.one]])
    with pytest.raises(Singular):
        smith_form_local(M)


# ---------------------------------------------------------------------------
# the prime-field int kernels against the element loops
# ---------------------------------------------------------------------------


def _oracle_cases(field, rng):
    """Seeded (kind, matrix) pairs over field: "random" square, wide and
    tall matrices; "deficient" ones, whose last row is a combination of the
    first two; and "swap" ones, whose leading entry is zero with a one
    below it, so that elimination must swap rows."""
    cases = []
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        M = rand_matrix(field, rng, nrows, ncols)
        cases.append(("random", M))
        if nrows >= 3:
            data = M.copy_data()
            a, b = field.random(rng), field.random(rng)
            data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
            cases.append(("deficient", Matrix(field, data, coerce=False)))
        if nrows >= 2:
            data = M.copy_data()
            data[0][0] = field.zero
            data[1][0] = field.one
            cases.append(("swap", Matrix(field, data, coerce=False)))
    return cases


def _triple_loop(A, B):
    ring = A.ring
    return [[sum((A.data[i][k] * B.data[k][j] for k in range(A.ncols)),
                 ring.zero) for j in range(B.ncols)] for i in range(A.nrows)]


def _interned(field, entries):
    return all(type(x) is FFElement and x is field.table[x.val]
               for x in entries)


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_int_product_matches_element_triple_loop(field):
    rng = random.Random(f"product:{field.q}")
    for _, A in _oracle_cases(field, rng):
        B = rand_matrix(field, rng, A.ncols, rng.randrange(1, 9))
        product = A * B
        assert product.data == _triple_loop(A, B)
        assert product.ring is field
        assert _interned(field, [x for row in product.data for x in row])


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_int_elimination_matches_element_kernel(field):
    rng = random.Random(f"eliminate:{field.q}")
    cases = _oracle_cases(field, rng)
    assert {kind for kind, _ in cases} == {"random", "deficient", "swap"}
    for kind, M in cases:
        rows, pivots, leads = linalg._eliminate(M)
        assert (rows, pivots, leads) == linalg._eliminate_elements(M)
        assert _interned(field, [x for row in rows for x in row] + leads)
        if kind == "deficient":
            assert len(pivots) < M.nrows
        if kind == "swap":
            assert pivots[0] == (0, 0) and leads[0] == -field.one
        R, pivot_cols = rref(M)
        assert R.data == rows and pivot_cols == [c for _, c in pivots]
        assert rank(M) == len(pivots)
        if M.nrows == M.ncols <= 5:
            d = det(M)
            assert d == _leibniz_det(M)
            assert _interned(field, [d])


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_field_arithmetic_returns_interned_elements(field):
    elements = list(field.elements())
    assert elements == [field.from_int(v) for v in range(field.p)]
    assert field.zero is elements[0] and field.one is elements[1]
    results = [op(a, b) for a in elements for b in elements
               for op in (lambda x, y: x + y, lambda x, y: x - y,
                          lambda x, y: x * y)]
    results += [-a for a in elements] + [a.inverse() for a in elements[1:]]
    results += [field.random(random.Random(v)) for v in range(10)]
    assert _interned(field, results)


def test_other_rings_take_the_element_loops(monkeypatch):
    def refuse(*args):
        raise AssertionError("int kernel called")

    monkeypatch.setattr(linalg, "_product_mod_p", refuse)
    monkeypatch.setattr(linalg, "_eliminate_mod_p", refuse)
    rng = random.Random(21)
    F9 = PrimeField(9)
    K = FunctionField(F3, "u")
    for ring, draw in ((F9, F9.random),
                       (K, lambda r: K.random_poly(r, 1))):
        A = Matrix(ring, [[draw(rng) for _ in range(3)] for _ in range(3)])
        B = Matrix(ring, [[draw(rng) for _ in range(3)] for _ in range(3)])
        assert (A * B).data == _triple_loop(A, B)
        assert rref(A)[0].data == linalg._eliminate_elements(A)[0]
        assert det(A) == _leibniz_det(A)
    A = rand_matrix(F3, rng, 3, 3)
    with pytest.raises(AssertionError, match="int kernel"):
        A * A
    with pytest.raises(AssertionError, match="int kernel"):
        rref(A)


# ---------------------------------------------------------------------------
# zero-aware element loops against entrywise sums
# ---------------------------------------------------------------------------

def _element_draws():
    K = FunctionField(F3, "u")
    F9 = PrimeField(9)
    S = SeriesRing(F3, "u", 3)
    P = PolynomialRing(F3, ["x", "y"])
    return [
        (K, lambda r: (K.random_poly(r, 1) * K.monomial(r.randrange(-1, 2))
                       / (K.gen + K.from_int(r.randrange(1, 3))))),
        (F9, F9.random),
        (S, S.random),
        (P, lambda r: (P.monomial({"x": r.randrange(2), "y": r.randrange(2)},
                                  r.randrange(3)) + P.from_int(r.randrange(3)))),
    ]


def _sparse_cases(ring, draw, rng):
    """Diagonal and antidiagonal matrices, and random ones with a zero row,
    a zero column and about half of the other entries zero."""
    z = ring.zero
    cases = []
    for n in range(1, 5):
        d = [draw(rng) for _ in range(n)]
        cases.append([[d[i] if j == i else z for j in range(n)] for i in range(n)])
        cases.append([[d[i] if j == n - 1 - i else z for j in range(n)]
                      for i in range(n)])
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        zr, zc = rng.randrange(nrows), rng.randrange(ncols)
        cases.append([[draw(rng) if i != zr and j != zc and rng.randrange(2) else z
                       for j in range(ncols)] for i in range(nrows)])
    return [Matrix(ring, data, coerce=False) for data in cases]


def _dot_rows(M, v):
    return [sum((a * b for a, b in zip(row, v)), M.ring.zero) for row in M.data]


@pytest.mark.parametrize("ring,draw", _element_draws(),
                         ids=["k(u)", "F_9", "series", "polynomials"])
def test_sparse_products_match_entrywise_sums(ring, draw):
    rng = random.Random(f"sparse:{ring!r}")
    cases = _sparse_cases(ring, draw, rng)
    for A in cases:
        partners = [B for B in cases if B.nrows == A.ncols]
        partners.append(Matrix(ring, [[draw(rng) for _ in range(3)]
                                      for _ in range(A.ncols)], coerce=False))
        for B in partners:
            product = A * B
            assert product.data == _triple_loop(A, B)
            assert len({id(row) for row in product.data}) == A.nrows
        v = [draw(rng) if rng.randrange(2) else ring.zero for _ in range(A.ncols)]
        assert A.apply_to_vector(v) == _dot_rows(A, v)


def test_prime_field_apply_to_vector_matches_element_dot_product():
    rng = random.Random(33)
    for M in _sparse_cases(F3, F3.random, rng) + [rand_matrix(F3, rng, 4, 6)]:
        v = [F3.random(rng) for _ in range(M.ncols)]
        out = M.apply_to_vector(v)
        assert out == _dot_rows(M, v) and _interned(F3, out)
        assert M.apply_to_vector([x.val + 3 for x in v]) == out
