import random

import pytest

from splitmodel.errors import (AmbientMismatch, BadParameters, InvalidPoint,
                               NotInGrassmannian, NotInZ, Singular,
                               UnrecognizedType)
from splitmodel.frame import build_frame
from splitmodel.lattices import (CoweightLabel, LaurentLattice, _phi_image,
                                 _shifted_cell, admissible_set, base_lattice,
                                 lattice_from_point, lattice_type,
                                 laurent_text, phi_map, schubert_dimension,
                                 standard_lattice, tau_fiber_check)
from splitmodel.linalg import Matrix, det, inverse
from splitmodel.points import (ModelPoint, chart_point_general, invariants,
                               iter_validated_points, sample_eps_chart_point,
                               stratum_dimension)
from splitmodel.rings import FunctionField, PrimeField

from ku_lattices import (demazure_membership, hermitian_gram,
                         in_schubert_variety, is_u_integral, lattice_contains,
                         lattice_dual, quotient_profile, random_unit_matrix,
                         random_window_lattice, representative, scaled,
                         schubert_cell, translated_base)


def _field(q=3):
    return FunctionField(PrimeField(q), "u")


def test_canonical_form_and_equality():
    K = _field()
    u = K.monomial(1)
    L = LaurentLattice(K, Matrix(K, [[K.one, K.zero], [K.one, u]]))
    assert [[laurent_text(x) for x in row] for row in L.matrix.data] == [
        ["1", "0"], ["1", "1*u"]]
    # different generators, same span
    M = Matrix(K, [[K.zero, K.one], [u, K.one + u]])
    assert LaurentLattice(K, M) == L
    # redundant extra columns are harmless
    wide = Matrix(K, [[K.one, K.zero, K.one], [K.one, u, K.one + u]])
    assert LaurentLattice(K, wide) == L
    with pytest.raises(Singular):
        LaurentLattice(K, Matrix(K, [[K.one, K.one], [K.one, K.one]]))
    K5 = _field(5)
    with pytest.raises(AmbientMismatch):
        LaurentLattice(K, Matrix(K5, [[K5.one]]))


def test_equality_matches_unit_transport():
    # same lattice iff g1^-1 g2 is integral with unit determinant
    K = _field()
    rng = random.Random(7)
    for _ in range(10):
        L = random_window_lattice(K, 4, rng)
        U = random_unit_matrix(K, 4, rng)
        assert is_u_integral(U) and det(U).valuation() == 0
        assert LaurentLattice(K, L.matrix * U) == L
        rel = inverse(L.matrix) * (L.matrix * U)
        assert is_u_integral(rel) and det(rel).valuation() == 0
        shifted = scaled(L, K.monomial(1))
        assert shifted != L
        rel2 = inverse(L.matrix) * shifted.matrix
        assert det(rel2).valuation() != 0


def test_standard_duals_both_forms():
    K = _field()
    u = K.monomial(1)
    lam = base_lattice(K, 4, "pimodular")
    assert lattice_dual(lam) == scaled(lam, u)
    assert lattice_dual(lam, "symmetric-trace") == lam
    lam0 = standard_lattice(K, 5, 0)
    assert lattice_dual(lam0) == lam0
    assert (lattice_dual(lam0, "symmetric-trace")
            == scaled(lam0, K.monomial(-1)))
    with pytest.raises(BadParameters):
        lattice_dual(lam, "other")
    # gram is an antidiagonal involution
    H = hermitian_gram(K, 4)
    assert H * H == Matrix.identity(K, 4)


def test_dual_scaling_and_involution():
    K = _field()
    u = K.monomial(1)
    rng = random.Random(19)
    lam = base_lattice(K, 4, "pimodular")
    assert lattice_dual(scaled(lam, u)) == scaled(lattice_dual(lam),
                                                   K.monomial(-1))
    for _ in range(40):
        L = random_window_lattice(K, 4, rng)
        assert lattice_dual(lattice_dual(L)) == L
        assert lattice_dual(lattice_dual(L, "symmetric-trace"),
                            "symmetric-trace") == L
        c = K.monomial(rng.choice([-2, -1, 1, 2]))
        assert lattice_dual(scaled(L, c)) == scaled(lattice_dual(L),
                                                     c.sigma().inverse())


def test_lattice_type_examples():
    K = _field()
    u = K.monomial(1)
    lam = base_lattice(K, 4, "pimodular")
    assert lattice_type(lam, lam) == [0, 0, 0, 0]
    L1 = translated_base(CoweightLabel(1, 4), K)
    assert lattice_type(L1, lam) == [-1, 0, 0, 1]
    assert lattice_type(scaled(lam, u), lam) == [1, 1, 1, 1]
    with pytest.raises(AmbientMismatch):
        lattice_type(lam, standard_lattice(K, 5, 0))


def test_type_invariant_under_unit_columns():
    K = _field()
    rng = random.Random(23)
    lam = base_lattice(K, 6, "pimodular")
    for _ in range(15):
        L = random_window_lattice(K, 6, rng)
        t = lattice_type(L, lam)
        U = random_unit_matrix(K, 6, rng)
        assert lattice_type(LaurentLattice(K, L.matrix * U), lam) == t


def test_admissible_chains():
    assert [c.index for c in admissible_set(2, 2)] == [2, 0]
    assert [c.index for c in admissible_set(3, 3)] == [3, 1]
    assert [c.index for c in admissible_set(4, 4)] == [4, 2, 0]
    with pytest.raises(BadParameters):
        admissible_set(3, 2)
    lab = CoweightLabel(2, 6)
    assert lab.type_vector() == (1, 1, 0, 0, -1, -1)
    with pytest.raises(BadParameters):
        CoweightLabel(3, 4)
    with pytest.raises(BadParameters):
        CoweightLabel(1, 5)


def test_coweight_representatives():
    K = _field()
    rep = representative(CoweightLabel(1, 4), K)
    assert [laurent_text(rep.data[i][i]) for i in range(4)] == [
        "1*u", "1", "1", "2*u^-1"]
    # translated lattices land on their own type vector
    for n in (4, 6):
        base = base_lattice(K, n, "pimodular")
        for i in range(n // 2 + 1):
            lab = CoweightLabel(i, n)
            got = lattice_type(translated_base(lab, K), base)
            assert got == sorted(lab.type_vector())


def test_schubert_cell_examples():
    K = _field()
    lam = base_lattice(K, 4, "pimodular")
    assert schubert_cell(lam) == 0
    L2 = translated_base(CoweightLabel(2, 4), K)
    assert lattice_type(L2, lam) == [-1, -1, 1, 1]
    assert schubert_cell(L2) == 2
    with pytest.raises(NotInGrassmannian):
        schubert_cell(standard_lattice(K, 4, 1))
    # on the duality locus but with a non-minuscule type
    g = Matrix.diagonal(K, [K.monomial(1), K.monomial(-1), K.one,
                            K.monomial(-2)])
    L = LaurentLattice(K, g)
    assert lattice_dual(L) == scaled(L, K.monomial(1))
    with pytest.raises(UnrecognizedType):
        schubert_cell(L)


def test_variety_membership_parity():
    K = _field()
    lam = base_lattice(K, 4, "pimodular")
    L2 = translated_base(CoweightLabel(2, 4), K)
    assert in_schubert_variety(lam, 0)
    assert in_schubert_variety(lam, 2)
    assert not in_schubert_variety(lam, 1)
    assert in_schubert_variety(L2, 2)
    assert not in_schubert_variety(L2, 1)


def test_schubert_dimensions():
    assert schubert_dimension(0, 4) == 0
    assert schubert_dimension(2, 4) == 4
    assert schubert_dimension(3, 6) == 9
    assert schubert_dimension(1, 5) == 4
    with pytest.raises(BadParameters):
        schubert_dimension(3, 4)
    # the top cell matches the open stratum dimension of the same signature
    for n in (4, 6, 8, 10):
        for s in range(1, n // 2 + 1):
            assert schubert_dimension(s, n) == stratum_dimension(
                n - s, s, s, s)


def test_demazure_worked_examples():
    K = _field()
    lam = base_lattice(K, 4, "pimodular")
    rep = demazure_membership(lam, lam, 0)
    assert rep.conditions == (True, True, True, True)
    assert rep.ok
    L1 = translated_base(CoweightLabel(1, 4), K)
    rep2 = demazure_membership(L1, lam, 0)
    assert rep2.conditions[3] is False
    assert not rep2.ok
    d = rep2.to_json_dict()
    assert d["conditions"][3] is False and d["index"] == 0
    with pytest.raises(AmbientMismatch):
        demazure_membership(lam, base_lattice(K, 6, "pimodular"), 0)
    with pytest.raises(BadParameters):
        demazure_membership(lam, lam, 5)


def test_lattice_from_point_examples():
    field = PrimeField(3)
    frame = build_frame(4, ring=field)
    K = _field()
    u = K.monomial(1)
    lam = base_lattice(K, 4, "pimodular")
    assert lattice_from_point(frame.t_lambda(), frame) == scaled(lam, u)
    assert lattice_from_point(Matrix.identity(field, 8), frame) == lam
    G_rows = Matrix.from_rows(field, [frame.basis_vector(5),
                                      frame.basis_vector(6)])
    LG = lattice_from_point(G_rows, frame)
    # explicit preimage: e_1, e_2, and the doubly shifted tail
    e1 = [K.one, K.zero, K.zero, K.zero]
    e2 = [K.zero, K.one, K.zero, K.zero]
    usq = K.monomial(2)
    expect = LaurentLattice(K, Matrix.from_cols(
        K, [e1, e2] + (lam.matrix * usq).cols()))
    assert LG == expect
    # membership oracle on the spanning vectors
    assert LG.contains_vector(e1) and LG.contains_vector(e2)
    assert not LG.contains_vector([K.zero, K.zero, K.one, K.zero])
    for col in LG.matrix.cols():
        assert expect.contains_vector(col)
    # relative to the base lattice the quotient profile is (1, 1, 2, 2)
    assert quotient_profile(lam, LG) == [1, 1, 2, 2]
    assert lattice_contains(lam, LG)
    assert lattice_contains(LG, scaled(lam, usq))


def test_lattice_from_point_errors():
    field = PrimeField(3)
    frame = build_frame(4, ring=field)
    with pytest.raises(InvalidPoint):
        lattice_from_point([[field.one] * 7], frame)
    # not stable under the square-zero operator
    with pytest.raises(InvalidPoint):
        lattice_from_point([frame.basis_vector(1)], frame)
    K = _field()
    lifted = build_frame(4, ring=K, pi=K.monomial(1))
    with pytest.raises(InvalidPoint):
        lattice_from_point([lifted.basis_vector(5)], lifted)


def test_point_lattice_period_identity():
    # validated F-components repeat under the shifted duals: once under the
    # sesquilinear form, twice under its trace
    field = PrimeField(3)
    K = _field()
    u, usq = K.monomial(1), K.monomial(2)
    rng = random.Random(31)
    pts = [sample_eps_chart_point(6, 2, field, rng) for _ in range(8)]
    pts += [chart_point_general(6, 3, h, l) for h, l in
            ((1, 1), (1, 3), (3, 3))]
    checked = 0
    for pt in pts:
        if not pt.validate().verdict:
            continue
        LF = lattice_from_point(pt.F_rows, pt.frame)
        assert LF == scaled(lattice_dual(LF), u)
        assert LF == scaled(lattice_dual(LF, "symmetric-trace"), usq)
        checked += 1
    assert checked >= 8


def test_phi_map_worked_examples():
    field = PrimeField(3)
    frame = build_frame(4, ring=field)
    K = _field()
    lam = base_lattice(K, 4, "pimodular")
    G_rows = Matrix.from_rows(field, [frame.basis_vector(5),
                                      frame.basis_vector(6)])
    F_low = Matrix.from_rows(field, [frame.basis_vector(5 + i)
                                     for i in range(4)])
    img = phi_map(ModelPoint(frame, F_low, G_rows))
    assert img.first == lam
    assert img.cell == 0 and img.label == (0, 2)
    assert img.demazure.ok and img.square_ok and img.ok
    F_high = Matrix.from_rows(field, [frame.basis_vector(i)
                                      for i in (1, 2, 5, 6)])
    img2 = phi_map(ModelPoint(frame, F_high, G_rows))
    assert img2.cell == 2 and img2.label == (2, 2)
    assert img2.demazure.conditions == (True, True, True, True)
    assert img2.square_ok
    d = img2.to_json_dict()
    assert d["cell"] == 2 and d["label"] == {"h": 2, "l": 2}
    assert d["first"]["rank"] == 4


def test_phi_map_guards():
    field = PrimeField(3)
    frame = build_frame(4, ring=field)
    F_low = Matrix.from_rows(field, [frame.basis_vector(5 + i)
                                     for i in range(4)])
    G_bad = Matrix.from_rows(field, [frame.basis_vector(5),
                                     frame.basis_vector(8)])
    with pytest.raises(NotInZ):
        phi_map(ModelPoint(frame, F_low, G_bad))


def test_failing_pair_test_certificate():
    # past the NotInZ guard (l = 0 < s = 2) the pair test fails condition 2,
    # and the certificate prints the k(u) profile of the failure
    field = PrimeField(3)
    frame = build_frame(4, ring=field)
    F_low = Matrix.from_rows(field, [frame.basis_vector(5 + i)
                                     for i in range(4)])
    G_bad = Matrix.from_rows(field, [frame.basis_vector(5),
                                     frame.basis_vector(8)])
    point = ModelPoint(frame, F_low, G_bad)
    image = _phi_image(point, invariants(point), *_shifted_cell(point))
    assert not image.ok and image.square_ok
    assert image.to_json_dict()["demazure"] == {
        "variant": "pimodular",
        "index": 2,
        "conditions": [True, False, True, True],
        "details": [
            "cell closure at index 2",
            "profile (0, 0, 2, 2) vs expected (1, 1, 1, 1); "
            "shifted dual escapes the shifted lattice",
            "profile (0, 0, 1, 1) vs expected (0, 0, 1, 1)",
            "profile (0, 0, 1, 1) vs expected (0, 0, 1, 1)",
        ],
    }


def test_tau_fiber_exhaustive_smallest():
    pts = (p for p, lab in iter_validated_points(4, 1, 3))
    rep = tau_fiber_check(pts, exhaustive=True)
    assert rep.ok
    assert {k: sorted(rep.cells[k]) for k in rep.cells} == {1: [(1, 1)]}
    assert rep.counts == {1: 40}


def test_tau_fiber_exhaustive_census():
    pts = (p for p, lab in iter_validated_points(4, 2, 3))
    rep = tau_fiber_check(pts, exhaustive=True)
    assert rep.ok
    assert {k: sorted(rep.cells[k]) for k in rep.cells} == {
        0: [(0, 0), (0, 2)], 2: [(2, 2)]}
    assert rep.counts == {0: 130, 2: 120}
    d = rep.to_json_dict()
    assert d["cells"][0] == {"cell": 0,
                             "labels": [{"h": 0, "l": 0}, {"h": 0, "l": 2}],
                             "count": 130}


def test_tau_fiber_sampled_and_problems():
    pts = [chart_point_general(6, 3, h, l) for h, l in
           ((1, 1), (1, 3), (3, 3))]
    rep = tau_fiber_check(pts, exhaustive=False)
    assert rep.ok
    assert set(rep.cells) <= {1, 3}
    # a partial batch fails the exhaustive l-range check
    partial = tau_fiber_check([chart_point_general(4, 2, 0, 0)],
                              exhaustive=True)
    assert not partial.ok
    assert "expected [0, 2]" in partial.problems[0]
    with pytest.raises(AmbientMismatch):
        tau_fiber_check([chart_point_general(4, 2, 0, 0),
                         chart_point_general(4, 1, 1, 1)])
    with pytest.raises(BadParameters):
        tau_fiber_check([])
    # exhaustive and s are keyword-only: a stray positional is refused
    with pytest.raises(TypeError):
        tau_fiber_check(pts, "pimodular")


def test_serialization_and_helpers():
    K = _field()
    x = K.laurent({-1: 2, 0: 1, 3: 1})
    assert laurent_text(x) == "1*u^3 + 1 + 2*u^-1"
    assert laurent_text(K.zero) == "0"
    assert laurent_text(K.monomial(1)) == "1*u"
    lam = base_lattice(K, 4, "pimodular")
    d = lam.to_json_dict()
    assert d["rank"] == 4
    assert d["matrix"][0][0] == "1*u^-1" and d["matrix"][3][3] == "1"
    rng = random.Random(3)
    L = random_window_lattice(K, 4, rng)
    assert lattice_contains(scaled(lam, K.monomial(-1)), L)
    assert lattice_contains(L, scaled(lam, K.monomial(1)))
    with pytest.raises(BadParameters):
        random_window_lattice(K, 5, rng)
    with pytest.raises(BadParameters):
        base_lattice(K, 5, "pimodular")
    with pytest.raises(BadParameters):
        base_lattice(K, 4, "selfdual")
    with pytest.raises(BadParameters):
        scaled(lam, K.zero)
