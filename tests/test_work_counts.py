"""Work done per point: each per-point fact is computed once.

A candidate is validated once, on construction, and one validation costs
five eliminations and four matrix products.  The schubert job transfers
each point to the lattice side once: one label, one F-lattice and one cell
per point.
"""

import json
import sys

from splitmodel import cli, lattices, linalg, points
from splitmodel.frame import build_frame
from splitmodel.linalg import Matrix
from splitmodel.points import ModelPoint, iter_validated_points


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


def test_one_candidate_runs_five_eliminations_and_four_products(monkeypatch):
    accepted, _ = next(iter_validated_points(4, 1, 3))
    frame = build_frame(4)
    # b_1 pairs with b_8, so this F fails isotropy; ranks and containment hold
    rejected = (Matrix(frame.ring, [frame.basis_vector(i) for i in (1, 6, 7, 8)]),
                Matrix(frame.ring, [frame.basis_vector(6)]))
    candidates = [(accepted.F_rows, accepted.G_rows), rejected]
    eliminations = count_calls(monkeypatch, linalg, "_eliminate")
    products = count_calls(monkeypatch, Matrix, "__mul__")
    verdicts = []
    for F_rows, G_rows in candidates:
        del eliminations[:], products[:]
        point = ModelPoint(frame, F_rows, G_rows)
        verdicts.append(point.validate().verdict)
        assert (len(eliminations), len(products)) == (5, 4)
    assert verdicts == [True, False]


def test_schubert_transfers_each_point_once(monkeypatch, capsys):
    labels = count_calls(monkeypatch, points, "invariants")
    transfers = count_calls(monkeypatch, lattices, "lattice_from_point")
    cells = count_calls(monkeypatch, lattices, "schubert_cell")
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
