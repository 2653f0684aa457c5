"""The isotropic candidate walker against oracles.

``reference_walk`` is the walker as it was before pruning: it yields every
F in the interval [L, U] of the exhaustive census.  Filtered by isotropy it
must give the pruned walker's sequence, in order, for every G.  The pruned
counts must also match the closed form for the maximal totally singular
subspaces of a split quadratic space, and the 4/2/q census strata their
prediction from the G alone.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from test_linalg import intersect

from splitmodel import points
from splitmodel.degenerations import ClosurePoset
from splitmodel.errors import BudgetExceeded
from splitmodel.frame import build_frame, orthogonal
from splitmodel.linalg import (Matrix, Subspace, intermediate_subspaces_iter,
                               subspaces_iter)
from splitmodel.points import ModelPoint, StratumLabel, census
from splitmodel.rings import PrimeField



def reference_walk(lower, upper, dim):
    """Every S with lower <= S <= upper and dim(S) = dim, in the order of
    subspaces_iter over the quotient upper/lower."""
    field = lower.ring
    comp = []
    current = lower
    for row in upper.basis:
        if not current.contains_vector(row):
            comp.append(list(row))
            current = current.sum(Subspace(field, lower.ambient, [list(row)]))
    for quot in subspaces_iter(field, len(comp), dim - lower.dim):
        vectors = [list(r) for r in lower.basis]
        for coeffs in quot.basis:
            vec = [field.zero] * lower.ambient
            for c, cv in zip(coeffs, comp):
                if c:
                    vec = [x + c * y for x, y in zip(vec, cv)]
            vectors.append(vec)
        yield Subspace(field, lower.ambient, vectors)


def isotropic(S, gram):
    M = S.matrix()
    return S.dim == 0 or (M * gram * M.transpose()).is_zero()


def intervals(n, s, q, limit=None):
    """(gram, G, L, U) for the first `limit` G of the exhaustive walk."""
    frame = build_frame(n, ring=PrimeField(q))
    for G, L, U in itertools.islice(points._intervals(frame, s), limit):
        yield frame.gram_sym, G, L, U


@pytest.mark.parametrize("n, s, q, limit, total", [
    (4, 1, 3, None, 80),
    (4, 2, 3, None, 410),
    (4, 1, 9, 40, None),
    pytest.param(4, 2, 5, None, 2522, marks=pytest.mark.slow(
        reason="walks all 126,386 F of census 4/2/5 unpruned")),
])
def test_walker_is_the_reference_walk_filtered(n, s, q, limit, total):
    walked = 0
    for gram, G, L, U in intervals(n, s, q, limit):
        expected = [F for F in reference_walk(L, U, n) if isotropic(F, gram)]
        got = list(intermediate_subspaces_iter(L, U, n, gram))
        assert got == expected
        assert [F.pivots for F in got] == [F.pivots for F in expected]
        walked += len(got)
    assert walked > 0 and total in (None, walked)


@pytest.mark.parametrize("q, trials", [(3, 24), (5, 24), (9, 6)])
def test_walker_on_random_intervals(q, trials):
    # symmetric, alternating and general forms, and lower subspaces that
    # are not orthogonal to the rest of upper, as no census interval is
    field = PrimeField(q)
    rng = random.Random(q)

    def vectors(count):
        return [[field.random(rng) for _ in range(6)] for _ in range(count)]

    walked = 0
    for trial in range(trials):
        A = Matrix(field, vectors(6))
        kind = trial % 3
        gram = (A + A.transpose(), A - A.transpose(), A)[kind]
        # under a general form, start from lower = 0, so that planes whose
        # rows pair to zero on one side only are walked
        size = rng.randrange(2) if kind < 2 else 0
        lower = Subspace(field, 6, vectors(size))
        while trial % 2 and not isotropic(lower, gram):
            lower = Subspace(field, 6, vectors(lower.dim))
        upper = lower.sum(Subspace(field, 6, vectors(3)))
        for dim in range(lower.dim, upper.dim + 1):
            expected = [F for F in reference_walk(lower, upper, dim)
                        if isotropic(F, gram)]
            got = list(intermediate_subspaces_iter(lower, upper, dim, gram))
            assert got == expected
            walked += len(got)
    assert walked > 0


@pytest.mark.parametrize("n, s, q, walked", [(4, 2, 3, 5290), (4, 1, 5, 936)])
def test_residue_validation_is_the_element_branch(n, s, q, walked):
    # every F of the unpruned walk, isotropic or not, is validated on
    # residues and, on the same frame with its residues hidden, by the
    # element loops; the labels of the points that pass are compared too
    frame = build_frame(n, ring=PrimeField(q))
    elements = build_frame(n, ring=PrimeField(q))
    elements.residues = None
    outcomes = Counter()
    for G, L, U in points._intervals(frame, s):
        G_rows = G.matrix()
        for F in reference_walk(L, U, n):
            F_rows = F.matrix()
            report = points.validate(frame, F_rows, G_rows)
            assert report == points.validate(elements, F_rows, G_rows)
            outcomes[report.first_failure()] += 1
            if report.verdict:
                assert (points.invariants(ModelPoint(frame, F_rows, G_rows))
                        == points.invariants(ModelPoint(elements, F_rows,
                                                        G_rows)))
    assert sum(outcomes.values()) == walked
    assert outcomes["isotropy"] > 0 and outcomes[None] > 0


def split_space_count(k, q):
    """Maximal totally singular subspaces of a split quadratic space of
    dimension 2k over F_q."""
    return 2 * math.prod(q ** i + 1 for i in range(1, k))


@pytest.mark.parametrize("n, s, q", [(4, 1, 3), (4, 2, 3), (4, 2, 5),
                                     (6, 2, 3)])
def test_walker_count_per_g_is_the_closed_form(n, s, q):
    limit = 60 if n == 6 else None
    for gram, G, L, U in intervals(n, s, q, limit):
        count = sum(1 for _ in intermediate_subspaces_iter(L, U, n, gram))
        if L.dim == n:
            assert count == 1
            continue
        k = n - L.dim
        # L is the radical of the form on U, and U/L is split of dimension 2k
        assert intersect(U, U.perp(gram)) == L and U.dim - L.dim == 2 * k
        assert count == split_space_count(k, q)


def radical_dims(n, s, q):
    """How many G of the exhaustive walk have each l = dim(G meet G-perp'),
    from the intersection, after checking that the Gram corank of
    points._radical_dim gives the same l for each G."""
    frame = build_frame(n, ring=PrimeField(q))
    by_l = Counter()
    for G, _, _ in points._intervals(frame, s):
        l = intersect(G, orthogonal(frame, G, "modified")).dim
        tails = G.matrix().submatrix(range(s), range(n, 2 * n))
        assert points._radical_dim(frame, tails) == l
        by_l[l] += 1
    return by_l


@pytest.mark.parametrize("q", [3, 5, 7])
def test_census_4_2_q_strata_from_the_g(q):
    by_l = radical_dims(4, 2, q)
    assert set(by_l) == {0, 2}
    result = census(4, 2, q)
    assert result.strata == {StratumLabel(0, 0): by_l[0],
                             StratumLabel(0, 2): by_l[2],
                             StratumLabel(2, 2): q * by_l[2]}
    assert result.rejected["spin"] == (q + 1) * by_l[2]


def test_census_6_3_3_precheck_counts_every_candidate():
    # the interval of a G holds [3 + l choose l]_3 candidates: 40 at l = 1
    # and 33,880 at l = 3, so 32,760 * 40 + 1,120 * 33,880 in all
    with pytest.raises(BudgetExceeded, match="39256000 candidates"):
        points._exhaustive_walk(6, 3, 3, 39_255_999)


@pytest.mark.slow(reason="walks 39,256,000 candidates")
def test_census_exhaustive_6_3_3():
    # per G: at l = 1 one F is labelled (1, 1) and one fails spin; at l = 3
    # the 80 isotropic F split as q^3 (3, 3), q^2 + q + 1 (1, 3) and 40 spin
    q = 3
    by_l = radical_dims(6, 3, q)
    assert by_l == {1: 32760, 3: 1120}
    result = census(6, 3, q, budget=39_256_000)
    assert result.params["examined"] == 39_256_000
    assert result.strata == {StratumLabel(1, 1): by_l[1],
                             StratumLabel(1, 3): (q * q + q + 1) * by_l[3],
                             StratumLabel(3, 3): q ** 3 * by_l[3]}
    assert result.rejected["spin"] == by_l[1] + 40 * by_l[3] == 77560
    assert result.labels() == set(ClosurePoset(3).labels)
