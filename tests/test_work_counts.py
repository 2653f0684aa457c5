"""Work done per point: each per-point fact is computed once.

A candidate is validated once, on construction: the G half, then the F
half.  Over a prime field validation unboxes F and G once; the G half runs
two residue eliminations and three residue products (linalg.
_eliminate_mod_p, _product_mod_p): rank(G), (t - pi)G and the Gram rank
that gives l.  The F half runs four eliminations and three products:
rank(F), G inside F, isotropy, (t + pi)F inside G and its rank, which is
the spin parity and, at pi = 0, h.  Neither builds a Matrix or a field
element.  Over any other field the same eliminations and products run as
element loops.  Labelling a point takes no further kernel call.

The exhaustive census runs the G half once per G, with one residue kernel
and one elimination for G's interval, and then only the walker's own
elimination and product and the F half's four and three per F.  It boxes
nothing: no Matrix, no Subspace, no field element.  A chart
draw changes basis without inverting a matrix, and a flat lift inverts
each seed block once.  The schubert job transfers each point to the
lattice side once: one label, one F-side window lattice and one cell per
point.  k(u) arithmetic runs on residues mod p, with no element gcd, and a
zero factor costs no polynomial product.
"""

import json
import random
import sys

from splitmodel import cli, lattices, linalg, points, rings
from splitmodel import frame as frame_module
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


def test_one_candidate_runs_the_g_half_and_the_f_half(monkeypatch):
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
        # G half 2 and 3, F half 4 and 3
        assert (len(eliminations), len(products)) == (6, 6)
    assert verdicts == [True, False]
    assert matrices == created == []


def test_an_f9_candidate_runs_both_halves_on_element_loops(monkeypatch):
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
        assert (len(eliminations), len(products)) == (6, 6)
    assert verdicts == [True, False] and residue == []


def test_validating_a_census_candidate_builds_no_field_element(monkeypatch):
    frame, _, outcomes = points._exhaustive_walk(4, 2, 3, 10 ** 8)
    created = count_calls(monkeypatch, FFElement, "__init__")
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    subspaces = count_calls(monkeypatch, linalg.Subspace, "_echelon")
    walked = list(outcomes)
    # the walk checks and labels every F on residues and boxes nothing
    assert len(walked) == 410
    assert {report.verdict for _, _, report, _ in walked} == {True, False}
    assert created == matrices == subspaces == []
    # a point built from the same rows gets the same report and label
    box = lambda rows: Matrix(frame.ring, linalg._boxed(frame.ring, rows))
    candidates = [(box(F), box(G), report, label)
                  for G, F, report, label in walked[:40]]
    del created[:], matrices[:]
    for F_rows, G_rows, report, label in candidates:
        point = ModelPoint(frame, F_rows, G_rows)
        assert point.report == report
        assert label is None or invariants(point) == label
    assert created == matrices == []


def test_census_coerces_few_field_elements(monkeypatch):
    # the census boxes nothing, so only its frame coerces; before the
    # walker's subspaces and a point's G_subspace stopped coercing, census
    # 4/2/3 made 402,962 coerce calls, then 3,042 while it still boxed
    # every G, L, U and F
    coerced = count_calls(monkeypatch, PrimeField, "coerce")
    census(4, 2, 3)
    assert len(coerced) <= 2


def test_each_iterated_point_is_labelled_once(monkeypatch):
    labels = count_calls(monkeypatch, points, "invariants")
    g_halves = count_calls(monkeypatch, points, "_g_half_mod_p")
    seen = []

    def walk():
        for point, _ in iter_validated_points(4, 1, 3):
            seen.append(point)
            yield point

    report = tau_fiber_check(walk())
    assert report.ok and report.counts == {1: 40}
    # the walk yields each point with its label; only the check asks
    assert len(labels) == len(seen) == 40
    # one G half per G, [4 choose 1]_3 = 40 of them, and none per point
    assert len(g_halves) == 40
    assert all(p.label is invariants(p) for p in seen)
    # labelling a point afresh reads the ranks its check found
    eliminations = count_calls(monkeypatch, linalg, "_eliminate_mod_p")
    products = count_calls(monkeypatch, linalg, "_product_mod_p")
    for point in seen:
        label, point.label = point.label, None
        assert invariants(point) == label
    assert eliminations == products == []


def test_census_takes_one_modified_complement_per_g(monkeypatch):
    # [4 choose 2]_3 = 130 G, each with one residue kernel for G-perp';
    # the 250 labelled points take none, and no element complement is built
    complements = count_calls(monkeypatch, points, "_kernel")
    elements = count_calls(monkeypatch, frame_module, "orthogonal")
    census(4, 2, 3)
    assert len(complements) == 130 and elements == []


def test_census_checks_g_once_and_each_f_with_four_eliminations(monkeypatch):
    # per G the G half (2 eliminations, 3 products), the interval (2, 1)
    # and the walker's set-up (2 products, and 1 elimination for the 40 G
    # whose F are not L itself); per walked F the walker's own elimination
    # and product and the F half's 4 and 3
    eliminations = count_calls(monkeypatch, linalg, "_eliminate_mod_p")
    products = count_calls(monkeypatch, linalg, "_product_mod_p")
    g_halves = count_calls(monkeypatch, points, "_g_half_mod_p")
    f_half, costs = points._f_half_mod_p, []

    def counted(*args):
        before = len(eliminations), len(products)
        result = f_half(*args)
        costs.append((len(eliminations) - before[0],
                      len(products) - before[1], result[0].verdict))
        return result

    monkeypatch.setattr(points, "_f_half_mod_p", counted)
    result = census(4, 2, 3)
    assert sum(result.strata.values()) == 250 and len(g_halves) == 130
    assert {cost[:2] for cost in costs} == {(4, 3)} and len(costs) == 410
    assert sum(verdict for _, _, verdict in costs) == 250
    assert len(eliminations) == 130 * 4 + 40 + 410 * 5
    assert len(products) == 130 * 6 + 410 * 4


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
    image = phi_map(point)
    assert image.ok and tuple(image.label) == (3, 3)
    # before zero factors short-circuited and k(u) over F_p ran on residues,
    # this phi_map made 6,176 products and 2,548 element gcds; the element
    # gcd is gone from the package
    assert not hasattr(rings, "poly_gcd")
    assert len(products) <= 0.6 * 6176
