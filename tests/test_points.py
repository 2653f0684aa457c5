"""Point validation, stratum invariants, chart constructions, censuses."""

import random
from collections import Counter

import pytest

from closed_form import assert_census_is_the_closed_form
from test_linalg import intersect

from splitmodel import points
from splitmodel.degenerations import ClosurePoset
from splitmodel.errors import (
    BadParameters,
    BudgetExceeded,
    InvalidPoint,
    NotInTLambda,
    ParityViolated,
    RelationViolated,
)
from splitmodel.frame import build_frame, orthogonal
from splitmodel.linalg import Matrix, Subspace, rank
from splitmodel.points import (
    ModelPoint,
    StratumLabel,
    census,
    chart_point_eps,
    chart_point_general,
    chart_point_local,
    invariants,
    iter_validated_points,
    sample_eps_chart_point,
    stratum_dimension,
    validate,
)
from splitmodel.rings import FunctionField, PrimeField, SeriesRing
from tangent import tangent_report

F3 = PrimeField(3)


def rows_of(frame, *indices):
    return Matrix(frame.ring, [frame.basis_vector(i) for i in indices],
                  coerce=False)


# ---------------------------------------------------------------------------
# validation of explicit points at n = 4
# ---------------------------------------------------------------------------

def test_validate_nondegenerate_point():
    frame = build_frame(4)
    F = rows_of(frame, 5, 6, 7, 8)
    G = rows_of(frame, 5, 8)
    report = validate(frame, F, G)
    assert report.as_dict() == {
        "ranks": True, "containment": True, "isotropy": True,
        "splitting_a": True, "splitting_b": True, "spin": True,
        "kottwitz": None, "verdict": True,
    }
    point = ModelPoint(frame, F, G)
    assert invariants(point) == StratumLabel(0, 0)


def test_validate_worst_point():
    # isotropic G inside the kernel of t gives the deepest stratum
    frame = build_frame(4)
    F = rows_of(frame, 5, 6, 7, 8)
    G = rows_of(frame, 5, 6)
    point = ModelPoint(frame, F, G)
    assert point.validate().verdict
    assert invariants(point) == StratumLabel(0, 2)


def test_validate_spin_failure():
    # rank of (t + pi) on F is odd while s is even
    frame = build_frame(4)
    F = rows_of(frame, 1, 5, 6, 7)
    G = rows_of(frame, 5, 6)
    report = validate(frame, F, G)
    assert report.passes_closed_conditions()
    assert report.spin is False
    assert not report.verdict
    assert report.first_failure() == "spin"
    point = ModelPoint(frame, F, G)
    point.validate()
    assert invariants(point) == StratumLabel(1, 2)


def test_validate_isotropy_failure():
    frame = build_frame(4)
    # b_1 pairs to -1 with b_8, so this F is not isotropic
    F = rows_of(frame, 1, 6, 7, 8)
    G = rows_of(frame, 6, 7)
    report = validate(frame, F, G)
    assert report.isotropy is False
    assert not report.verdict


def test_validate_splitting_failure():
    frame = build_frame(4)
    # t moves b_1 to b_5, which this G misses
    F = rows_of(frame, 1, 6, 7, 8)
    G = rows_of(frame, 6, 8)
    report = validate(frame, F, G)
    assert report.splitting_a is False


def test_model_point_rejects_bad_input():
    frame = build_frame(4)
    F = rows_of(frame, 5, 6, 7, 8)
    with pytest.raises(InvalidPoint):
        # G not inside F
        ModelPoint(frame, F, rows_of(frame, 1, 5))
    with pytest.raises(InvalidPoint):
        # dependent rows
        bad = Matrix(frame.ring, [frame.basis_vector(5),
                                  frame.basis_vector(5)], coerce=False)
        ModelPoint(frame, F, bad)


def test_invariants_need_closed_conditions():
    frame = build_frame(4)
    point = ModelPoint(frame, rows_of(frame, 1, 6, 7, 8), rows_of(frame, 6, 7))
    with pytest.raises(InvalidPoint):
        invariants(point)


# ---------------------------------------------------------------------------
# chart around the worst point
# ---------------------------------------------------------------------------

def test_chart_eps_origin_is_worst_point():
    point = chart_point_eps(4, 2)
    assert point.report.verdict
    assert point.predicted_label == StratumLabel(0, 2)
    assert invariants(point) == StratumLabel(0, 2)


def test_chart_eps_even_s_labels():
    skew = [[0, 1], [-1, 0]]
    cases = [
        (dict(W=skew), StratumLabel(2, 2)),
        (dict(X=skew), StratumLabel(0, 0)),
        (dict(), StratumLabel(0, 2)),
    ]
    for kwargs, expected in cases:
        point = chart_point_eps(6, 2, **kwargs)
        assert point.report.verdict
        assert point.predicted_label == expected
        assert invariants(point) == expected


def test_chart_eps_odd_s_labels():
    skew = [[0, 1], [-1, 0]]
    cases = [
        (dict(), StratumLabel(1, 3)),
        (dict(W0=skew), StratumLabel(3, 3)),
        (dict(X0=skew), StratumLabel(1, 1)),
    ]
    for kwargs, expected in cases:
        point = chart_point_eps(6, 3, **kwargs)
        assert point.report.verdict
        assert point.predicted_label == expected
        assert invariants(point) == expected


def test_chart_eps_relation_checks():
    with pytest.raises(RelationViolated):
        chart_point_eps(4, 2, W=[[0, 1], [1, 0]])  # not skew
    with pytest.raises(RelationViolated):
        # (X - X^t) W != 0
        chart_point_eps(4, 2, X=[[0, 1], [-1, 0]], W=[[0, 1], [-1, 0]])
    with pytest.raises(BadParameters):
        chart_point_eps(5, 2)
    with pytest.raises(BadParameters):
        chart_point_eps(6, 3, X=[[0] * 3] * 3)  # odd s takes X0/W0


def test_chart_eps_spin_automatic():
    # every admissible parameter choice lands in the spin-true locus
    rng = random.Random(11)
    for _ in range(25):
        point = sample_eps_chart_point(6, 2, F3, rng)
        assert point.report.spin is True
    for _ in range(25):
        point = sample_eps_chart_point(6, 3, F3, rng)
        assert point.report.spin is True


# ---------------------------------------------------------------------------
# chart adapted to a given stratum
# ---------------------------------------------------------------------------

def test_chart_general_origin_hits_requested_label():
    for (n, s, h, l) in [(4, 2, 0, 0), (4, 2, 0, 2), (4, 2, 2, 2),
                         (6, 3, 1, 1), (6, 3, 1, 3), (6, 3, 3, 3),
                         (8, 4, 0, 2), (8, 4, 2, 4), (8, 4, 4, 4)]:
        point = chart_point_general(n, s, h, l)
        assert point.report.verdict
        assert point.predicted_label == StratumLabel(h, l)
        assert invariants(point) == StratumLabel(h, l)


def test_chart_general_parameters_move_the_label():
    skew = [[0, 1], [-1, 0]]
    point = chart_point_general(8, 4, 0, 2, Z=skew)
    assert invariants(point) == StratumLabel(2, 2)
    point = chart_point_general(8, 4, 0, 2, Y2=skew)
    assert invariants(point) == StratumLabel(0, 0)


def test_chart_general_rejects_bad_labels():
    with pytest.raises(ParityViolated):
        chart_point_general(8, 4, 1, 3)
    with pytest.raises(ParityViolated):
        chart_point_general(8, 4, 0, 3)
    with pytest.raises(BadParameters):
        chart_point_general(8, 4, 3, 2)
    with pytest.raises(RelationViolated):
        chart_point_general(8, 4, 0, 2, Z=[[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# chart with a uniformizer
# ---------------------------------------------------------------------------

def flat_example_data(ring, pi):
    two = ring.from_int(2)
    Z = [[ring.zero, -(two * pi)], [ring.zero, ring.zero]]
    B = [[ring.zero, ring.one], [-ring.one, ring.zero]]
    return Z, B


def test_chart_local_flat_point_function_field():
    kpi = FunctionField(F3, "pi")
    pi = kpi.monomial(1)
    Z, B = flat_example_data(kpi, pi)
    point = chart_point_local(4, 2, Z=Z, B=B, ring=kpi, pi=pi)
    report = point.report
    assert report.verdict
    assert report.kottwitz is True


def test_chart_local_flat_point_series_ring():
    S = SeriesRing(F3, "pi", 5)
    pi = S.gen
    Z, B = flat_example_data(S, pi)
    point = chart_point_local(4, 2, Z=Z, B=B, ring=S, pi=pi)
    report = point.report
    assert report.verdict
    assert report.spin is None  # not a field point
    assert report.kottwitz is True


def test_chart_local_pi_zero_matches_eps_chart():
    X = [[1, 2], [2, 0]]  # symmetric, so K = 0 and any skew W works
    W = [[0, 1], [-1, 0]]
    pe = chart_point_eps(6, 2, X=X, W=W)
    pl = chart_point_local(6, 2, Z=X, B=W, ring=F3)
    assert pe.F_rows == pl.F_rows
    assert pe.G_rows == pl.G_rows


def test_chart_local_degenerate_slice():
    # pi = 0 with B = 0 and symmetric Z parks the point in the worst stratum
    point = chart_point_local(6, 2, Z=[[1, 2], [2, 0]],
                              B=[[0, 0], [0, 0]], ring=F3)
    assert point.report.verdict
    assert invariants(point) == StratumLabel(0, 2)


def test_chart_local_relation_checks():
    kpi = FunctionField(F3, "pi")
    pi = kpi.monomial(1)
    B = [[kpi.zero, kpi.one], [-kpi.one, kpi.zero]]
    with pytest.raises(RelationViolated):
        # Z = 0 cannot satisfy (Z - Z^t) B = 2 pi A with A = I
        chart_point_local(4, 2, B=B, ring=kpi, pi=pi)
    with pytest.raises(RelationViolated):
        # A^t B + B^t A != 0
        Z, _ = flat_example_data(kpi, pi)
        chart_point_local(4, 2, Z=Z, B=[[kpi.one, kpi.zero],
                                        [kpi.zero, kpi.one]],
                          ring=kpi, pi=pi)


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------

def test_census_exhaustive_4_2_3():
    result = census(4, 2, 3, strategy="exhaustive")
    assert result.labels() == {StratumLabel(0, 0), StratumLabel(0, 2),
                               StratumLabel(2, 2)}
    assert result.strata == {StratumLabel(0, 0): 90,
                             StratumLabel(0, 2): 40,
                             StratumLabel(2, 2): 120}
    assert result.params["examined"] == 5290
    assert result.rejected == {"rank": 0, "isotropy": 4880,
                               "splitting-a": 0, "splitting-b": 0,
                               "spin": 160}
    d = result.to_json_dict()
    assert d["strata"][0] == {"h": 0, "l": 0, "count": 90}


def test_census_exhaustive_4_1_3():
    result = census(4, 1, 3, strategy="exhaustive")
    assert result.strata == {StratumLabel(1, 1): 40}
    assert result.params["examined"] == 160


def test_census_exhaustive_ignores_workers():
    one = census(4, 1, 3, strategy="exhaustive", workers=1).to_json_dict()
    three = census(4, 1, 3, strategy="exhaustive", workers=3).to_json_dict()
    assert three["params"].pop("workers") == 3
    assert one["params"].pop("workers") == 1
    assert one == three


def test_census_exhaustive_4_2_5():
    result = census(4, 2, 5, strategy="exhaustive")
    examined = result.params["examined"]
    assert examined == 126386
    # the budget precheck passes at exactly the number of candidates walked
    next(points._exhaustive_walk(4, 2, 5, examined)[2])
    with pytest.raises(BudgetExceeded):
        points._exhaustive_walk(4, 2, 5, examined - 1)
    walked = Counter(label for _, label in iter_validated_points(4, 2, 5))
    assert walked == result.strata
    assert result.labels() == set(ClosurePoset(2).labels)


@pytest.mark.slow(reason="walks 480,571 candidates")
def test_census_exhaustive_6_2_3():
    # the budget precheck passes at exactly the number of candidates counted
    result = census(6, 2, 3, strategy="exhaustive", budget=480571)
    examined = result.params["examined"]
    assert examined == 480571
    with pytest.raises(BudgetExceeded):
        points._exhaustive_walk(6, 2, 3, examined - 1)
    assert examined - result.rejected["isotropy"] == 36491
    assert result.labels() == set(ClosurePoset(2).labels)
    assert_census_is_the_closed_form(result)


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        census(4, 2, 3, strategy="exhaustive", budget=100)


def test_census_sampled_deterministic():
    a = census(6, 3, 3, strategy="chart-sampled", budget=40, seed=7)
    b = census(6, 3, 3, strategy="chart-sampled", budget=40, seed=7)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.params["examined"] == 40
    assert a.params["prediction_mismatches"] == 0
    assert sum(a.strata.values()) == 40  # chart points always validate


def test_census_sampled_covers_odd_labels():
    result = census(6, 3, 3, strategy="chart-sampled", budget=60, seed=7)
    assert result.labels() == {StratumLabel(1, 1), StratumLabel(1, 3),
                               StratumLabel(3, 3)}


def test_census_rejects_bad_config():
    with pytest.raises(BadParameters):
        census(5, 2, 3)
    with pytest.raises(BadParameters):
        census(4, 2, 3, strategy="unknown")


# ---------------------------------------------------------------------------
# invariant bookkeeping on seeded random chart points
# ---------------------------------------------------------------------------

def test_sampled_points_satisfy_stratum_laws():
    rng = random.Random(23)
    for (n, s) in [(6, 2), (6, 3), (8, 3)]:
        frame = build_frame(n)
        for _ in range(30):
            point = sample_eps_chart_point(n, s, F3, rng)
            assert point.report.verdict
            lab = invariants(point)
            assert lab == point.predicted_label
            assert 0 <= lab.h <= lab.l <= s
            assert (lab.l - s) % 2 == 0
            assert (lab.h - s) % 2 == 0  # spin passed
            # the modified complement of G sits inside F
            Gperp = orthogonal(frame, point.G_subspace(), "modified")
            assert point.F_subspace().contains(Gperp)
            assert Gperp.dim == n - s


def modified_radical_dim(frame, G):
    """l = dim(G meet G-perp'), by intersecting the two subspaces."""
    return intersect(G, orthogonal(frame, G, "modified")).dim


def test_radical_dim_is_the_intersection_on_random_g_over_f9():
    # the G half's l on element rows; rows drawn from the first half of the
    # image of t pair to zero, so mixing them with general rows reaches
    # every l of the right parity
    field = PrimeField(9)
    rng = random.Random(91)
    seen = set()
    for n in (4, 6, 8):
        frame = build_frame(n, ring=field)
        zrow = [field.zero] * n
        for _ in range(40):
            s = rng.randint(1, n // 2)
            isotropic = rng.randint(0, s)
            tails = [[field.random(rng) if j < n // 2 or i >= isotropic
                      else field.zero for j in range(n)] for i in range(s)]
            G = Subspace(field, 2 * n, [zrow + row for row in tails],
                         coerce=False)
            if G.dim < s:
                continue
            l = points._g_half_elements(frame, [zrow + row for row in tails]).l
            assert l == modified_radical_dim(frame, G)
            seen.add((s, l))
    assert {(3, 1), (3, 3), (4, 0), (4, 2), (4, 4)} <= seen


def test_labels_of_census_4_2_3_match_the_intersection():
    labelled = Counter()
    for point, label in iter_validated_points(4, 2, 3):
        assert label.l == modified_radical_dim(point.frame,
                                               point.G_subspace())
        labelled[label.l] += 1
    assert labelled == {0: 90, 2: 40 + 120}


def test_invariants_need_g_inside_the_image_of_t():
    # off the special fiber G lies in ker(t - pi), not in the image of t,
    # where the modified pairing is defined
    kpi = FunctionField(F3, "pi")
    pi = kpi.monomial(1)
    Z, B = flat_example_data(kpi, pi)
    point = chart_point_local(4, 2, Z=Z, B=B, ring=kpi, pi=pi)
    assert point.report.passes_closed_conditions()
    with pytest.raises(NotInTLambda):
        invariants(point)


# ---------------------------------------------------------------------------
# dimension formula and tangent spaces
# ---------------------------------------------------------------------------

def test_stratum_dimension_values():
    assert stratum_dimension(4, 2, 2, 2) == 8
    assert stratum_dimension(4, 2, 0, 2) == 7
    assert stratum_dimension(5, 3, 1, 3) == 14
    assert stratum_dimension(2, 2, 0, 0) == 4
    with pytest.raises(BadParameters):
        stratum_dimension(4, 2, 2, 0)
    with pytest.raises(BadParameters):
        stratum_dimension(4, 2, 1, 2)
    with pytest.raises(BadParameters):
        stratum_dimension(2, 3, 1, 3)


def test_tangent_dimension_at_smooth_and_worst_points():
    assert tangent_report(chart_point_eps(4, 1)) == 3  # = r * s
    worst = tangent_report(chart_point_eps(6, 2))
    skew = [[0, 1], [-1, 0]]
    smooth = tangent_report(chart_point_eps(6, 2, W=skew))
    assert smooth == 8  # = r * s
    assert worst == 9
    assert worst > smooth


def test_tangent_dimension_4_2():
    worst = tangent_report(chart_point_eps(4, 2))
    smooth = tangent_report(chart_point_eps(4, 2, W=[[0, 1], [-1, 0]]))
    assert (worst, smooth) == (5, 4)
