"""Work done per point: each per-point fact is computed once.

A candidate is validated once, on construction.  Over a prime field one
validation unboxes F and G once and then runs five residue eliminations
and four residue products (linalg._eliminate_mod_p, _product_mod_p); it
builds no Matrix and no field element.  Over any other field the same
five eliminations and four products run as element loops.  The walker
boxes each F once, into the Subspace it yields.  A point is labelled once,
however often its label is asked for, with one rank for h and one Gram
rank for l, and the census takes one modified complement per G.  A chart
draw changes basis without inverting a matrix, and a flat lift inverts
each seed block once.  The schubert job transfers each point to the
lattice side once: one label, one F-side window lattice and one cell per
point.  Over a prime field, k(u) arithmetic runs no element gcd, and a
zero factor costs no polynomial product.
"""

import json
import random
import sys

from splitmodel import cli, lattices, linalg, points, rings
from splitmodel.frame import build_frame
from splitmodel.lattices import phi_map, tau_fiber_check
from splitmodel.linalg import Matrix
from splitmodel.points import (ModelPoint, census, invariants,
                               iter_validated_points,
                               sample_general_chart_point)
from splitmodel.rings import FFElement, PrimeField, RationalFunction


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name, and every alias of it that a splitmodel module
    holds, so that each call is recorded; return the list of call
    arguments."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [owner] + [mod for key, mod in sorted(sys.modules.items())
                         if key.startswith("splitmodel")]
    for holder in holders:
        if vars(holder).get(name) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


def two_candidates(q, accepted):
    """An accepted candidate and one that fails isotropy, over F_q."""
    frame = build_frame(4, ring=PrimeField(q))
    # b_1 pairs with b_8, so this F fails isotropy; ranks and containment hold
    rejected = (Matrix(frame.ring, [frame.basis_vector(i) for i in (1, 6, 7, 8)]),
                Matrix(frame.ring, [frame.basis_vector(6)]))
    return frame, [(accepted.F_rows, accepted.G_rows), rejected]


def test_one_candidate_runs_five_eliminations_and_four_products(monkeypatch):
    accepted, _ = next(iter_validated_points(4, 1, 3))
    frame, candidates = two_candidates(3, accepted)
    eliminations = count_calls(monkeypatch, linalg, "_eliminate_mod_p")
    products = count_calls(monkeypatch, linalg, "_product_mod_p")
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    created = count_calls(monkeypatch, FFElement, "__init__")
    verdicts = []
    for F_rows, G_rows in candidates:
        del eliminations[:], products[:]
        point = ModelPoint(frame, F_rows, G_rows)
        verdicts.append(point.validate().verdict)
        assert (len(eliminations), len(products)) == (5, 4)
    assert verdicts == [True, False]
    assert matrices == created == []


def test_an_f9_candidate_runs_five_element_eliminations_and_products(monkeypatch):
    # F_9 keeps the element loops, which the residue kernels are tested
    # against, so their count is pinned as well
    accepted, _ = next(iter_validated_points(4, 1, 9))
    frame, candidates = two_candidates(9, accepted)
    eliminations = count_calls(monkeypatch, linalg, "_eliminate")
    products = count_calls(monkeypatch, Matrix, "__mul__")
    residue = count_calls(monkeypatch, linalg, "_eliminate_mod_p")
    verdicts = []
    for F_rows, G_rows in candidates:
        del eliminations[:], products[:]
        point = ModelPoint(frame, F_rows, G_rows)
        verdicts.append(point.validate().verdict)
        assert (len(eliminations), len(products)) == (5, 4)
    assert verdicts == [True, False] and residue == []


def test_validating_a_census_candidate_builds_no_field_element(monkeypatch):
    walk = points._exhaustive_walk(4, 2, 3, 10 ** 8)[1]
    candidates = [next(walk) for _ in range(40)]
    assert {c.report.verdict for c in candidates} == {True, False}
    frame = candidates[0].frame
    created = count_calls(monkeypatch, FFElement, "__init__")
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    for candidate in candidates:
        point = ModelPoint(frame, candidate.F_rows, candidate.G_rows)
        assert point.report == candidate.report
    assert created == matrices == []


def test_census_coerces_few_field_elements(monkeypatch):
    # subspaces built from field elements (the walker's F, sum,
    # perp, orthogonal, matrix(), a point's G_subspace) are not coerced into
    # the field again; before that, census 4/2/3 made 402,962 coerce calls,
    # and 7,042 while G_subspace still coerced; 3,042 now
    coerced = count_calls(monkeypatch, PrimeField, "coerce")
    census(4, 2, 3)
    assert len(coerced) <= 3500


def test_each_iterated_point_is_labelled_once(monkeypatch):
    labels = count_calls(monkeypatch, points, "invariants")
    radicals = count_calls(monkeypatch, points, "_radical_dim")
    seen = []

    def walk():
        for point, _ in iter_validated_points(4, 1, 3):
            seen.append(point)
            yield point

    report = tau_fiber_check(walk())
    assert report.ok and report.counts == {1: 40}
    # one label per point from the walk, one more asked for by the check
    assert len(labels) == 2 * len(seen) == 80
    # one Gram rank per label, and one per G, [4 choose 1]_3 = 40 of
    # them, for the count before the walk
    assert len(radicals) - 40 == len(seen)
    assert all(p.label is invariants(p) for p in seen)
    # labelling a point afresh is one residue rank of t F for h (one
    # product) and one of the Gram matrix of G's tails for l (two products)
    eliminations = count_calls(monkeypatch, linalg, "_eliminate_mod_p")
    products = count_calls(monkeypatch, linalg, "_product_mod_p")
    for point in seen:
        label, point.label = point.label, None
        assert invariants(point) == label
    assert (len(eliminations), len(products)) == (2 * 40, 3 * 40)


def test_census_takes_one_modified_complement_per_g(monkeypatch):
    # [4 choose 2]_3 = 130 G; the 250 labelled points take none
    complements = count_calls(monkeypatch, points, "orthogonal")
    census(4, 2, 3)
    assert len(complements) == 130


def test_schubert_transfers_each_point_once(monkeypatch, capsys):
    labels = count_calls(monkeypatch, points, "invariants")
    transfers = count_calls(monkeypatch, lattices, "window_from_point")
    cells = count_calls(monkeypatch, lattices, "_window_cell")
    code = cli.main(["schubert", "--n", "6", "--s", "3", "--strategy",
                     "chart-sampled", "--budget", "6", "--seed", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    transferred = sum(c["count"] for c in report["tau"]["cells"])
    z_points = report["phi"]["z_points"]
    assert 0 < z_points < transferred
    f_side = [args for args in transfers if args[0].nrows == 6]
    assert len(labels) == len(f_side) == len(cells) == transferred
    assert len(transfers) == transferred + z_points


def test_chart_draws_invert_no_matrix(monkeypatch, capsys):
    # the chart change of basis is a signed permutation read off the two
    # forms, so no draw solves a congruence
    inverses = count_calls(monkeypatch, linalg, "inverse")
    code = cli.main(["charts", "--n", "8", "--s", "4", "--budget", "20"])
    capsys.readouterr()
    assert code == 0
    assert inverses == []


def test_flat_lift_inverts_each_seed_block_once(monkeypatch, capsys):
    # the transposed inverse is the transpose of the inverse; inverting the
    # transposed blocks again made 140 inversions here
    inverses = count_calls(monkeypatch, linalg, "inverse")
    code = cli.main(["flatlift", "--budget", "10"])
    capsys.readouterr()
    assert code == 0
    assert len(inverses) == 70


def test_phi_map_over_f3_runs_no_element_gcd(monkeypatch):
    point = sample_general_chart_point(6, 3, 1, 3, PrimeField(3),
                                       random.Random(5))
    products = count_calls(monkeypatch, RationalFunction, "__mul__")
    gcds = count_calls(monkeypatch, rings, "poly_gcd")
    image = phi_map(point)
    assert image.ok and tuple(image.label) == (3, 3)
    # before zero factors short-circuited and k(u) over F_p ran on residues,
    # this phi_map made 6,176 products and 2,548 poly_gcd calls
    assert gcds == []
    assert len(products) <= 0.6 * 6176
