"""Hypothesis properties of the F_p residue kernels against the element loops.

Over F_3, F_5 and F_7, with shapes that include no rows, no columns and
deficient rank: the residue elimination gives the element elimination's
rows, pivots and leads, and the product of its leads is the determinant;
rank and the residue product agree with the element loops; and validate on
residues gives the element branch's report.  The examples are derandomized
by the profile in conftest.py.  Skipped where hypothesis is not installed.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from splitmodel import linalg, points
from splitmodel.frame import build_frame
from splitmodel.linalg import Matrix, det, rank
from splitmodel.rings import PrimeField

FIELDS = [PrimeField(p) for p in (3, 5, 7)]


def uniform_rows(field, nrows, ncols):
    return st.lists(st.lists(st.integers(0, field.p - 1), min_size=ncols,
                             max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def residue_rows(draw, field, nrows, ncols):
    """nrows x ncols residues; with a drawn rank below nrows, the rows are
    combinations of that many drawn rows."""
    k = draw(st.integers(0, nrows))
    if k == nrows:
        return draw(uniform_rows(field, nrows, ncols))
    basis = draw(uniform_rows(field, k, ncols))
    coeffs = draw(uniform_rows(field, nrows, k))
    return [[sum(c * b[j] for c, b in zip(cs, basis)) % field.p
             for j in range(ncols)] for cs in coeffs]


@st.composite
def matrices(draw, square=False):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 7))
    return Matrix(field, draw(residue_rows(field, nrows, ncols)))


def element_product(A, B):
    ring = A.ring
    return [[sum((a * B.data[k][j] for k, a in enumerate(row)), ring.zero)
             for j in range(B.ncols)] for row in A.data]


def leibniz_det(M):
    ring, n = M.ring, M.nrows
    acc = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.from_int(-1 if sign % 2 else 1)
        for i, j in enumerate(perm):
            term = term * M.data[i][j]
        acc = acc + term
    return acc


@given(matrices())
def test_residue_elimination_is_the_element_loop(M):
    field = M.ring
    rows, pivots, leads = linalg._eliminate_mod_p(linalg._residues(M.data),
                                                  field.p)
    e_rows, e_pivots, e_leads = linalg._eliminate_elements(M)
    assert linalg._boxed(field, rows) == e_rows and pivots == e_pivots
    assert [field.table[x] for x in leads] == e_leads
    assert rank(M) == len(e_pivots)


@settings(max_examples=60)
@given(matrices(square=True))
def test_determinant_is_the_product_of_the_residue_leads(M):
    _, pivots, leads = linalg._eliminate_mod_p(linalg._residues(M.data),
                                               M.ring.p)
    product = 1
    for x in leads:
        product = product * x % M.ring.p
    expected = leibniz_det(M)
    assert det(M) == expected
    assert M.ring.table[product if len(pivots) == M.nrows else 0] == expected


@given(st.data())
def test_residue_product_is_the_element_loop(data):
    field = data.draw(st.sampled_from(FIELDS))
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    A = Matrix(field, data.draw(residue_rows(field, m, k)))
    B = Matrix(field, data.draw(residue_rows(field, k, n)))
    # a Matrix with no rows has no columns either
    assume(A.ncols == B.nrows)
    product = linalg._product_mod_p(linalg._residues(A.data),
                                    linalg._residues(B.data), field.p)
    assert linalg._boxed(field, product) == element_product(A, B)
    assert (A * B).data == element_product(A, B)


@given(st.data())
def test_residue_validation_is_the_element_branch(data):
    # off the special fiber t + pi and t - pi differ.  G is drawn inside
    # ker(t - pi) = {(pi y, y)} and F through G, or G as combinations of the
    # rows of F, so that containment, (3b) and the other flags all vary
    q = data.draw(st.sampled_from([3, 5, 7]))
    pi, s = data.draw(st.integers(0, q - 1)), data.draw(st.integers(1, 2))
    frame, elements = (build_frame(4, ring=PrimeField(q), pi=pi)
                       for _ in range(2))
    elements.residues = None
    if data.draw(st.booleans()):
        G = [[pi * y % q for y in row] + row
             for row in data.draw(residue_rows(frame.ring, s, 4))]
        F = G + data.draw(residue_rows(frame.ring, 4 - s, 8))
    else:
        F = data.draw(residue_rows(frame.ring, 4, 8))
        G = [[sum(c * f[j] for c, f in zip(cs, F)) % q for j in range(8)]
             for cs in data.draw(residue_rows(frame.ring, s, 4))]
    F_rows, G_rows = Matrix(frame.ring, F), Matrix(frame.ring, G)
    report = points.validate(frame, F_rows, G_rows)
    assert report == points.validate(elements, F_rows, G_rows)
