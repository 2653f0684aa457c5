import itertools
import random

import pytest

from splitmodel.errors import (BadDimension, BadParameters, ConstructionFailed,
                               NotInTLambda, Singular)
from splitmodel.frame import (
    Frame,
    build_frame,
    normal_form_gram,
    orthogonal,
    pair,
)
from splitmodel.linalg import Matrix, Subspace, det, inverse, rank
from splitmodel.points import chart_transform
from splitmodel.rings import FunctionField, PrimeField

F3 = PrimeField(3)
F5 = PrimeField(5)


def span(frame, *indices):
    return Subspace(frame.ring, 2 * frame.n,
                    [frame.basis_vector(i) for i in indices])


def test_build_frame_rejections():
    with pytest.raises(BadDimension):
        build_frame(5)
    with pytest.raises(BadDimension):
        build_frame(2)


def test_gram_entries_n4():
    fr = build_frame(4)
    b1 = fr.basis_vector(1)
    b7 = fr.basis_vector(7)
    b8 = fr.basis_vector(8)
    assert pair(fr, b1, b8, "symmetric") == F3.from_int(-1)
    assert pair(fr, b1, b7, "symmetric") == F3.zero


def test_t_action_special_fiber():
    fr = build_frame(4)
    b1 = fr.basis_vector(1)
    b5 = fr.basis_vector(5)
    assert fr.t_apply(b1) == b5
    assert all(x.is_zero() for x in fr.t_apply(b5))
    assert rank(fr.t_matrix) == 4
    assert (fr.t_matrix * fr.t_matrix).is_zero()


def test_t_squares_to_pi_squared():
    K = FunctionField(F3, "p")
    fr = build_frame(4, ring=K, pi=K.gen)
    sq = fr.t_matrix * fr.t_matrix
    assert sq == Matrix.identity(K, 8) * (K.gen * K.gen)


def test_gram_mod_skew_square():
    for n in (4, 6):
        fr = build_frame(n)
        gm = fr.gram_mod
        assert (gm + gm.transpose()).is_zero()
        assert gm * gm == -Matrix.identity(F3, n)


def test_modified_pairing_entries():
    fr = build_frame(4)
    b5 = fr.basis_vector(5)
    b8 = fr.basis_vector(8)
    assert pair(fr, b5, b8, "modified") == F3.one
    with pytest.raises(NotInTLambda):
        pair(fr, fr.basis_vector(1), b8, "modified")
    with pytest.raises(BadParameters):
        pair(fr, b5, b8, "sideways")


def test_modified_pairing_alternating_random():
    fr = build_frame(6)
    rng = random.Random(21)
    for _ in range(200):
        x = [F3.zero] * 6 + [F3.random(rng) for _ in range(6)]
        assert pair(fr, x, x, "modified") == F3.zero


def brute_force_modified_perp(frame, U):
    """Oracle: scan every vector of t-image space over the base field."""
    field = frame.ring
    n = frame.n
    hits = []
    for tail in itertools.product(list(field.elements()), repeat=n):
        v = [field.zero] * n + list(tail)
        if all(pair(frame, v, list(row), "modified").is_zero()
               for row in U.basis):
            hits.append(v)
    return Subspace(field, 2 * n, hits)


def test_orthogonal_modified_example():
    fr = build_frame(4)
    U = span(fr, 5, 8)
    expected = brute_force_modified_perp(fr, U)
    got = orthogonal(fr, U, "modified")
    assert got == expected
    assert got == span(fr, 6, 7)


def test_orthogonal_modified_edge_cases():
    fr = build_frame(4)
    tl = fr.t_lambda()
    assert orthogonal(fr, tl, "modified").dim == 0
    zero = Subspace(F3, 8, [])
    assert orthogonal(fr, zero, "modified") == tl
    with pytest.raises(NotInTLambda):
        orthogonal(fr, span(fr, 1, 5), "modified")


def test_orthogonal_modified_involution_random():
    fr = build_frame(6)
    rng = random.Random(22)
    for _ in range(60):
        d = rng.randrange(0, 7)
        vs = [[F3.zero] * 6 + [F3.random(rng) for _ in range(6)]
              for _ in range(d)]
        U = Subspace(F3, 12, vs)
        P = orthogonal(fr, U, "modified")
        assert U.dim + P.dim == 6
        assert orthogonal(fr, P, "modified") == U


def test_image_of_t_is_self_orthogonal():
    for n in (4, 6):
        fr = build_frame(n)
        tl = fr.t_lambda()
        assert orthogonal(fr, tl, "symmetric") == tl


def test_symmetric_orthogonal_dimension():
    fr = build_frame(4)
    U = span(fr, 1, 2, 5)
    P = orthogonal(fr, U, "symmetric")
    assert P.dim == 8 - 3
    assert orthogonal(fr, P, "symmetric") == U


def test_normal_form_eps_stratum_display():
    # s = 2, n = 8: the eps chart's form at (h, l) = (0, s) has blocks
    # (s, q, q, s) = (2, 2, 2, 2)
    nf = normal_form_gram(0, 2, 2, 8)
    o, z = F3.one, F3.zero
    expected = Matrix(F3, [
        [z, z, z, z, z, z, o, z],
        [z, z, z, z, z, z, z, o],
        [z, z, z, z, o, z, z, z],
        [z, z, z, z, z, o, z, z],
        [z, z, -o, z, z, z, z, z],
        [z, z, z, -o, z, z, z, z],
        [-o, z, z, z, z, z, z, z],
        [z, -o, z, z, z, z, z, z],
    ], coerce=False)
    assert nf == expected


def test_normal_form_schubert_pimodular_display():
    # (h, l, s, n) = (1, 3, 3, 8): blocks (h, l-h, s-l, r-l, l-h, h) =
    # (1, 2, 0, 2, 2, 1), every block the negative of the general one
    nf = -normal_form_gram(1, 3, 3, 8)
    o, z = F3.one, F3.zero
    expected = Matrix(F3, [
        [z, z, z, z, z, z, z, -o],
        [z, z, z, z, z, -o, z, z],
        [z, z, z, z, z, z, -o, z],
        [z, z, z, z, -o, z, z, z],
        [z, z, z, o, z, z, z, z],
        [z, o, z, z, z, z, z, z],
        [z, z, o, z, z, z, z, z],
        [o, z, z, z, z, z, z, z],
    ], coerce=False)
    assert nf == expected


def test_normal_form_general_h0_l0():
    # (h,l) = (0,0): block-diagonal with skew blocks of sizes s and r
    n, s = 8, 2
    M = normal_form_gram(0, 0, s, n)
    # top-left s x s block is [[0,1],[-1,0]]
    assert M.submatrix(range(2), range(2)) == Matrix(F3, [[0, 1], [-1, 0]])
    # off-diagonal coupling blocks vanish
    assert M.submatrix(range(2), range(2, 8)).is_zero()
    assert M.submatrix(range(2, 8), range(2)).is_zero()


def test_normal_form_skewness_all_pimodular_cases():
    for (n, s) in ((6, 2), (8, 3), (8, 4)):
        for h in range(s % 2, s + 1, 2):
            for l in range(h, s + 1, 2):
                T = normal_form_gram(h, l, s, n)
                # the chart form, its negative and the eps chart's form
                for M in (T, -T, normal_form_gram(0, s, s, n)):
                    assert (M + M.transpose()).is_zero(), (n, s, h, l)
                    assert not det(M).is_zero()


def test_normal_form_bad_parameters():
    with pytest.raises(BadParameters):
        normal_form_gram(1, 0, 2, 8)  # h > l
    with pytest.raises(BadParameters):
        normal_form_gram(0, 1, 2, 8)  # parity broken
    with pytest.raises(BadParameters):
        normal_form_gram(0, 0, 5, 8)  # s > n/2


def rand_skew_nondeg(field, rng, n):
    while True:
        data = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = field.random(rng)
                data[i][j] = c
                data[j][i] = -c
        M = Matrix(field, data, coerce=False)
        if not det(M).is_zero():
            return M


def symplectic_basis(A):
    """Reference: P with P^t A P in the standard form
    blockdiag([[0,1],[-1,0]], ...), for a nondegenerate skew matrix A over
    a field, by symplectic Gram-Schmidt."""
    ring = A.ring
    n = A.nrows
    if n % 2 != 0:
        raise BadParameters("nondegenerate skew matrices have even size")

    def form(u, v):
        Av = A.apply_to_vector(v)
        acc = ring.zero
        for a, b in zip(u, Av):
            acc = acc + a * b
        return acc

    pool = [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]
    cols = []
    while pool:
        v = pool.pop(0)
        w = None
        for idx, cand in enumerate(pool):
            val = form(v, cand)
            if not val.is_zero():
                w = pool.pop(idx)
                w = [val.inverse() * c for c in w]
                break
        if w is None:
            raise Singular("skew form is degenerate")
        new_pool = []
        for zv in pool:
            a = form(v, zv)
            b = form(w, zv)
            # z' = z - a*w + b*v is orthogonal to both v and w
            new_pool.append([zc - a * wc + b * vc
                             for zc, wc, vc in zip(zv, w, v)])
        pool = new_pool
        cols.append(v)
        cols.append(w)
    return Matrix.from_cols(ring, cols)


def congruence_transform(A, B):
    """Reference: C with C^t A C = B, for nondegenerate skew A, B of equal
    size over a field."""
    if A.nrows != B.nrows:
        raise BadDimension("sizes differ")
    return symplectic_basis(A) * inverse(symplectic_basis(B))


def test_symplectic_basis_random():
    rng = random.Random(23)
    std4 = Matrix.block(F5, [[Matrix.zero(F5, 2, 2), Matrix.identity(F5, 2)],
                             [-Matrix.identity(F5, 2), Matrix.zero(F5, 2, 2)]])
    # standard form here is pairwise blocks, build it explicitly
    o, z = F5.one, F5.zero
    pairwise = Matrix(F5, [[z, o, z, z], [-o, z, z, z],
                           [z, z, z, o], [z, z, -o, z]], coerce=False)
    for _ in range(25):
        A = rand_skew_nondeg(F5, rng, 4)
        P = symplectic_basis(A)
        assert P.transpose() * A * P == pairwise
    assert std4.nrows == 4  # keep the unused helper honest


def test_congruence_transform_roundtrip():
    rng = random.Random(24)
    for _ in range(20):
        A = rand_skew_nondeg(F5, rng, 4)
        B = rand_skew_nondeg(F5, rng, 4)
        C = congruence_transform(A, B)
        assert C.transpose() * A * C == B
    with pytest.raises(Singular):
        symplectic_basis(Matrix.zero(F5, 4, 4))


def chart_normal_forms(n):
    """(h, l, s) for each normal form that normal_form_gram builds at size
    n: every 0 <= h <= l <= s <= n/2 with l = s mod 2, the eps chart's
    (0, s, s) among them.  The charts use a subset of these."""
    for s in range(n // 2 + 1):
        for l in range(s % 2, s + 1, 2):
            for h in range(l + 1):
                yield h, l, s


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_chart_transform_matches_gram_schmidt_reference(q):
    field = PrimeField(q)
    for n in range(4, 13, 2):
        frame = build_frame(n, ring=field)
        for h, l, s in chart_normal_forms(n):
            T = normal_form_gram(h, l, s, n, ring=field)
            C = chart_transform(frame, T)
            assert C == congruence_transform(frame.gram_mod, T), (n, h, l, s)
            assert C.transpose() * frame.gram_mod * C == T


def test_chart_transform_carries_the_signs_of_the_form():
    # the chart forms pair each index with a later partner by +1, so C is
    # a permutation there; their negatives need -1s
    for n in (4, 6, 8):
        frame = build_frame(n, ring=F5)
        for s in range(n // 2 + 1):
            for l in range(s % 2, s + 1, 2):
                T = -normal_form_gram(0, l, s, n, ring=F5)
                C = chart_transform(frame, T)
                assert C == congruence_transform(frame.gram_mod, T)
                assert -F5.one in (x for row in C.data for x in row)


def test_chart_transform_refuses_a_form_without_partners():
    frame = build_frame(6, ring=F5)
    B = rand_skew_nondeg(F5, random.Random(25), 6)
    # basis vectors with more than one partner
    assert any(sum(not x.is_zero() for x in row) > 1 for row in B.data)
    with pytest.raises(ConstructionFailed):
        chart_transform(frame, B)
    # the reference solves it, so only the partner lookup refuses it
    C = congruence_transform(frame.gram_mod, B)
    assert C.transpose() * frame.gram_mod * C == B
