"""Window lattices against the k(u) lattices they stand for.

A lattice between u^2*lam and u^-2*lam is held on the transfer path as a
u-stable subspace of W = u^-2*lam / u^2*lam.  Every window operation must
give what the k(u) oracle of tests/ku_lattices.py gives on the
LaurentLattice of the same generators: the shifts, the shifted dual,
equality, the type vector, containment, the free-quotient test with its
failure text, the cell with its raises, and the whole pair-test report.
Inputs are seeded random u-stable subspaces over F_3, F_5 and F_7 at n = 4
and 6, the lattices of sampled points, coweight translates, diagonal
lattices on the duality locus, and the oracle's random_window_lattice
read into W.  Over an extension field there is no k(u), and the transfer
is refused.
"""

import json
import random

import pytest

from splitmodel import cli, lattices
from splitmodel.errors import (ConstructionFailed, RingUnsupported,
                               SplitModelError)
from splitmodel.frame import build_frame
from splitmodel.lattices import (CoweightLabel, LaurentLattice, WindowLattice,
                                 _free_quotient, _pair_test, _phi_image,
                                 _shifted_cell, _window_cell, base_lattice,
                                 lattice_from_point, lattice_type,
                                 window_from_point)
from splitmodel.linalg import Matrix
from splitmodel.points import (chart_point_general, invariants,
                               sample_general_chart_point)
from splitmodel.rings import FunctionField, PrimeField

from ku_lattices import (demazure_membership, free_quotient, lattice_contains,
                         lattice_dual, random_window_lattice, schubert_cell,
                         shifted, shifted_dual, translated_base)

CASES = [(q, n) for q in (3, 5, 7) for n in (4, 6)]


def _closure(ring, n, vectors):
    """The u-stable span of vectors of W: each vector together with its
    images under u, u^2 and u^3."""
    rows = [[ring.zero] * (d * n) + list(v[:(4 - d) * n])
            for v in vectors for d in range(4)]
    return WindowLattice(ring, 4 * n, rows, coerce=False)


def _random_window(ring, n, rng, lowest=0):
    """A random u-stable subspace: a random number of generators, each
    zero below a random block no lower than ``lowest``."""
    vectors = []
    for _ in range(rng.randrange(0, n + 2)):
        start = rng.randrange(lowest, 4)
        vectors.append([ring.zero] * (start * n)
                       + [ring.random(rng) for _ in range((4 - start) * n)])
    return _closure(ring, n, vectors)


def _window_of(L: LaurentLattice) -> WindowLattice:
    """The image in W of a k(u) lattice between u^2*lam and u^-2*lam, read
    off the Laurent coefficients of its generators in the lam basis."""
    n, ring = L.n, L.ring.base
    vectors = []
    for col in L.matrix.cols():
        v = [ring.zero] * (4 * n)
        for j, x in enumerate(col):
            if x.is_zero():
                continue
            # e_j = u*lam_j for j < n/2
            lo, coeffs = x.shift(1 if j < n // 2 else 0).laurent_coeffs()
            assert lo >= -2
            for k, c in enumerate(coeffs, start=lo):
                if k < 2:
                    v[(k + 2) * n + j] = c
        vectors.append(v)
    return _closure(ring, n, vectors)


def _lift_reference(rows, frame) -> LaurentLattice:
    """The coordinate lift of frame rows over k(u), column by column: a
    row (a, b) goes to sum_j (a_j + b_j*u)*lam_j, next to u^2*lam."""
    n, m = frame.n, frame.m
    K = FunctionField(frame.ring, "u")
    u, uinv = K.monomial(1), K.monomial(-1)
    cols = []
    for w in rows:
        a = [K.coerce(x) for x in w[:n]]
        b = [K.coerce(x) for x in w[n:]]
        cols.append([a[j] * uinv + b[j] if j < m else a[j] + b[j] * u
                     for j in range(n)])
    lam = base_lattice(K, n, "pimodular")
    return LaurentLattice(K, cols + (lam.matrix * K.monomial(2)).cols())


def _on_locus(q, n, rng):
    """Window lattices with dual(L) = u*L: the shifted F-lattices of
    sampled points, the coweight translates, and diagonal lattices with
    exponent pairs (d, -d) relative to lam, |d| <= 2, so that some types
    are not coweights."""
    field = PrimeField(q)
    K = FunctionField(field, "u")
    m = n // 2
    out = []
    for h, l in ((0, 2), (2, 2)) if n == 4 else ((1, 1), (1, 3), (3, 3)):
        point = sample_general_chart_point(n, m, h, l, field, rng)
        out.append(window_from_point(point.F_rows, point.frame).shifted(-1))
    for i in range(m + 1):
        label = CoweightLabel(i, n)
        out.append(_window_of(translated_base(label, K)))
    for _ in range(3):
        d = [rng.randrange(-2, 3) for _ in range(m)]
        diag = [K.monomial(x - 1) for x in d] + [K.monomial(-x) for x in d[::-1]]
        out.append(_window_of(LaurentLattice(K, Matrix.diagonal(K, diag))))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SplitModelError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("q, n", CASES)
def test_round_trip_equality_and_random_window_lattice(q, n):
    ring = PrimeField(q)
    rng = random.Random(100 * q + n)
    windows = [_random_window(ring, n, rng) for _ in range(6)]
    K = FunctionField(ring, "u")
    windows += [_window_of(random_window_lattice(K, n, rng))
                for _ in range(3)]
    for S in windows:
        L = S.lattice()
        assert _window_of(L) == S
        # the same lattice from a shuffled, redundant generator set
        rows = [list(r) for r in S.basis]
        rng.shuffle(rows)
        T = _closure(ring, n, rows + [[a + b for a, b in zip(*rows[:2])]]
                     if len(rows) > 1 else rows)
        assert T == S and hash(T) == hash(S)
    for S, T in zip(windows, windows[1:]):
        assert (S == T) == (S.lattice() == T.lattice())


@pytest.mark.parametrize("q, n", CASES)
def test_shifts_agree_or_refuse_to_leave_the_window(q, n):
    ring = PrimeField(q)
    K = FunctionField(ring, "u")
    rng = random.Random(200 * q + n)
    lam = base_lattice(K, n, "pimodular")
    top, bottom = shifted(lam, -2), shifted(lam, 2)
    seen = set()
    for _ in range(6):
        S = _random_window(ring, n, rng, lowest=rng.randrange(3))
        L = S.lattice()
        for d in range(-4, 5):
            X = shifted(L, d)
            try:
                got = S.shifted(d)
            except ConstructionFailed:
                assert not (lattice_contains(top, X)
                            and lattice_contains(X, bottom))
                seen.add("refused")
                continue
            assert got.lattice() == X
            seen.add("shifted")
    assert seen == {"refused", "shifted"}
    with pytest.raises(ConstructionFailed):
        WindowLattice.base(ring, n).shifted(-3)
    with pytest.raises(ConstructionFailed):
        _closure(ring, n, []).shifted(1)
    with pytest.raises(ConstructionFailed):
        _closure(ring, n, []).shifted(-5)


@pytest.mark.parametrize("q, n", CASES)
def test_shifted_dual_and_type_vector_agree(q, n):
    ring = PrimeField(q)
    K = FunctionField(ring, "u")
    rng = random.Random(300 * q + n)
    lam = base_lattice(K, n, "pimodular")
    for _ in range(6):
        S = _random_window(ring, n, rng)
        L = S.lattice()
        assert S.shifted_dual().lattice() == shifted_dual(L)
        assert S.type_vector() == lattice_type(L, lam)
    assert WindowLattice.base(ring, n).lattice() == lam


@pytest.mark.parametrize("q, n", CASES)
def test_containment_and_free_quotient_agree(q, n):
    ring = PrimeField(q)
    rng = random.Random(400 * q + n)
    seen = set()
    for _ in range(8):
        outer = _random_window(ring, n, rng)
        # inner between u*outer or u^2*outer and outer, or a random window
        depth = rng.randrange(3)
        if depth:
            keep = [list(r) for r in outer.basis if rng.random() < 0.5]
            inner = _closure(ring, n, keep + outer._moved(depth))
        else:
            inner = _random_window(ring, n, rng)
        Lo, Li = outer.lattice(), inner.lattice()
        assert outer.contains(inner) == lattice_contains(Lo, Li)
        assert inner.contains(outer) == lattice_contains(Li, Lo)
        gap = outer.dim - inner.dim
        for rank in {gap, gap + 1} & set(range(n + 1)):
            got = _free_quotient(outer, inner, rank)
            assert got == free_quotient(Lo, Li, rank)
            seen.add(got[0])
    assert seen == {True, False}


@pytest.mark.parametrize("q, n", CASES)
def test_cell_agrees_with_its_raises(q, n):
    ring = PrimeField(q)
    rng = random.Random(500 * q + n)
    windows = _on_locus(q, n, rng)
    windows += [_random_window(ring, n, rng) for _ in range(3)]
    kinds = set()
    for S in windows:
        got = _outcome(_window_cell, S)
        assert got == _outcome(schubert_cell, S.lattice())
        kinds.add(got[0] if isinstance(got, tuple) else "cell")
    assert kinds == {"cell", "NotInGrassmannian", "UnrecognizedType"}


def _z_pairs(ring, n, rng, count):
    """(first, second, s) of sampled points with l = s: the lattice pairs
    the transfer builds, which pass the pair test at index s."""
    s, out = n // 2, []
    while len(out) < count:
        h = rng.choice(range(s % 2, s + 1, 2))
        point = sample_general_chart_point(n, s, h, s, ring, rng)
        if point.report.verdict and invariants(point).l == s:
            first, _ = _shifted_cell(point)
            LG = window_from_point(point.G_rows, point.frame)
            out.append((first, LG.shifted_dual().shifted(2), s))
    return out


@pytest.mark.parametrize("q, n", CASES)
def test_pair_test_reports_agree(q, n):
    ring = PrimeField(q)
    rng = random.Random(600 * q + n)
    lam = WindowLattice.base(ring, n)
    own = _z_pairs(ring, n, rng, 2)
    firsts = [f for f, _, _ in own] + [
        S for S in _on_locus(q, n, rng)[-n // 2 - 4:]
        if not isinstance(_outcome(_window_cell, S), tuple)]
    # random second lattices inside u^-1*lam, so that u^-1*Lp stays in
    # the window
    seconds = [p for _, p, _ in own] + [
        _random_window(ring, n, rng, lowest=1) for _ in range(2)]
    cases = own + [(rng.choice(firsts), rng.choice(seconds),
                    rng.randrange(n // 2 + 1))
                   for _ in range(10)]
    seen = [set() for _ in range(4)]
    for L, Lp, i in cases:
        got = _pair_test(L, Lp, lam, i, _window_cell(L))
        want = demazure_membership(L.lattice(), Lp.lattice(), i)
        assert got.to_json_dict() == want.to_json_dict()
        for k, c in enumerate(got.conditions):
            seen[k].add(c)
    assert seen == [{True, False}] * 4


def test_embedding_is_the_coordinate_lift():
    for q in (3, 7):
        field = PrimeField(q)
        rng = random.Random(q)
        for h, l in ((1, 1), (1, 3), (3, 3)):
            point = sample_general_chart_point(6, 3, h, l, field, rng)
            for rows in (point.F_rows, point.G_rows):
                assert (window_from_point(rows, point.frame).lattice()
                        == _lift_reference(rows.rows(), point.frame))


def test_the_transfer_refuses_an_extension_field():
    field = PrimeField(9)
    point = sample_general_chart_point(6, 3, 1, 3, field, random.Random(9))
    with pytest.raises(RingUnsupported):
        window_from_point(point.F_rows, point.frame)
    with pytest.raises(RingUnsupported):
        lattice_from_point(point.F_rows, point.frame)


def test_failing_phi_image_certificate_is_the_k_u_one():
    # l = 1 < s = 3: the pair test fails its second condition
    point = chart_point_general(6, 3, 1, 1)
    label = invariants(point)
    image = _phi_image(point, label, *_shifted_cell(point))
    assert not image.ok and image.demazure.conditions[1] is False
    first = shifted(lattice_from_point(point.F_rows, point.frame), -1)
    cell = schubert_cell(first)
    second = shifted(lattice_dual(
        lattice_from_point(point.G_rows, point.frame)), 1)
    want = {
        "first": first.to_json_dict(),
        "second": second.to_json_dict(),
        "cell": cell,
        "label": {"h": label.h, "l": label.l},
        "demazure": demazure_membership(first, second,
                                        point.s).to_json_dict(),
        "square_ok": cell == label.h,
    }
    assert (json.dumps(image.to_json_dict(), sort_keys=True)
            == json.dumps(want, sort_keys=True))
    assert image.first == first and image.second == second


def test_schubert_exits_1_when_a_shift_leaves_the_window(monkeypatch, capsys):
    frame = build_frame(4)
    whole = WindowLattice(frame.ring, 16,
                          Matrix.identity(frame.ring, 16).rows(), coerce=False)
    monkeypatch.setattr(lattices, "window_from_point",
                        lambda component, frame: whole)
    code = cli.main(["schubert", "--n", "4", "--s", "1"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1 and report["failures"] >= 1
    assert report["fault"] == {
        "exception": "ConstructionFailed",
        "message": "u^-1 times the lattice leaves the window"}
    assert captured.err.startswith("ConstructionFailed")
