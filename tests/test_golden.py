"""Replay fixed configurations and compare them with what was recorded in
tests/golden/ before a refactor.

reports.json holds the SHA-256 of CLI reports.  chart_rows.json holds the
SHA-256 of the basis rows of seeded chart draws and the validation flags of
obstruction witnesses, which reports see only through labels and verdicts.
The digests pin exact bytes, so a refactor proves it changed no output in
one check.  They are never re-recorded to make a refactor pass; only a
change that alters an output on purpose may refresh them, and it must say
why.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from splitmodel.cli import main
from splitmodel.degenerations import ClosurePoset, nonsmooth_witness
from splitmodel.points import sample_eps_chart_point, sample_general_chart_point
from splitmodel.rings import PrimeField

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "reports.json").read_text(encoding="utf-8"))
CHART_ROWS = json.loads((GOLDEN_DIR / "chart_rows.json")
                        .read_text(encoding="utf-8"))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_report_digest(config, capsys):
    code = main(config.split())
    out, _ = capsys.readouterr()
    assert code == 0
    assert _sha(out) == GOLDEN[config]


def _chart_draws(sampler, n, s, q):
    """Four seeded rounds of one sampler: one worst-point chart draw per
    round, or one draw per stratum label of the adapted chart."""
    field = PrimeField(q)
    rng = random.Random(100 * n + 10 * s + q)
    for _ in range(4):
        if sampler == "eps":
            yield sample_eps_chart_point(n, s, field, rng)
        else:
            for h, l in ClosurePoset(s).labels:
                yield sample_general_chart_point(n, s, h, l, field, rng)


@pytest.mark.parametrize("sampler", ["eps", "general"])
@pytest.mark.parametrize("n,s", [(6, 2), (6, 3), (8, 3), (8, 4)])
@pytest.mark.parametrize("q", [3, 5])
def test_chart_rows_digest(sampler, n, s, q):
    text = "".join(repr(p.F_rows) + repr(p.G_rows)
                   for p in _chart_draws(sampler, n, s, q))
    assert _sha(text) == CHART_ROWS[f"{sampler} n={n} s={s} q={q}"]


@pytest.mark.parametrize("n,s,h,l", [
    (n, s, h, l) for s in (3, 4) for n in (2 * s, 2 * s + 2)
    for h, l in ClosurePoset(s).labels if h < l])
def test_witness_flags(n, s, h, l):
    flags = nonsmooth_witness(n, s, (h, l)).report.as_dict()
    assert flags == CHART_ROWS[f"witness n={n} s={s} h={h} l={l}"]
