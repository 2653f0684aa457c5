"""How the strata fit together: the closure partial order on labels, explicit
one-parameter families that move a special point into a more generic stratum,
and dual-number witnesses showing the deeper strata carry obstructed
deformation directions."""

from __future__ import annotations

import random

from .errors import BadLabel, BadParameters, BadTargets, ConstructionFailed
from .frame import build_frame, normal_form_gram, pair
from .linalg import Matrix
from .points import (
    ModelPoint,
    StratumLabel,
    chart_point_general,
    chart_transform,
    invariants,
)
from .rings import DualNumbers, FunctionField, PrimeField, SeriesRing


# ---------------------------------------------------------------------------
# closure partial order
# ---------------------------------------------------------------------------

class ClosurePoset:
    """Partial order on stratum labels for a fixed signature rank s:
    a <= b exactly when the a-stratum lies in the closure of the b-stratum,
    i.e. a.h <= b.h and a.l >= b.l."""

    __slots__ = ("s", "labels")

    def __init__(self, s: int):
        if s < 0:
            raise BadParameters("s must be nonnegative")
        self.s = s
        eps = s % 2
        self.labels = tuple(sorted(
            StratumLabel(h, l)
            for l in range(eps, s + 1, 2)
            for h in range(eps, l + 1, 2)))

    def is_label(self, a) -> bool:
        return StratumLabel(*a) in set(self.labels)

    def leq(self, a, b) -> bool:
        a = StratumLabel(*a)
        b = StratumLabel(*b)
        if not (self.is_label(a) and self.is_label(b)):
            raise BadLabel(f"not labels for s={self.s}: {a}, {b}")
        return a.h <= b.h and a.l >= b.l

    def closure(self, b):
        """Labels of the strata contained in the closure of the b-stratum."""
        return {a for a in self.labels if self.leq(a, b)}

    def maximal(self):
        return tuple(a for a in self.labels
                     if not any(self.leq(a, b) and a != b for b in self.labels))

    def minimal(self):
        out = tuple(a for a in self.labels
                    if not any(self.leq(b, a) and a != b for b in self.labels))
        if len(out) != 1:
            raise ConstructionFailed(f"{len(out)} minimal labels, expected one")
        return out[0]

    def component_count(self) -> int:
        return len(self.maximal())

    def component_count_note(self):
        """For even s the number of closure-maximal strata exceeds the
        irreducible-component count s/2 quoted in summary statements by one;
        the mismatch is surfaced here instead of being smoothed over."""
        if self.s % 2 != 0:
            return None
        k = self.component_count()
        return (f"even s={self.s}: found {k} closure-maximal strata, while "
                f"the usually quoted irreducible-component count is "
                f"{self.s // 2}; discrepancy reported, not resolved")

    def to_json_dict(self):
        return {
            "s": self.s,
            "labels": [[a.h, a.l] for a in self.labels],
            "relations": [[[a.h, a.l], [b.h, b.l]]
                          for a in self.labels for b in self.labels
                          if a != b and self.leq(a, b)],
            "maximal": [[a.h, a.l] for a in self.maximal()],
            "minimal": list(self.minimal()),
            "component_count": self.component_count(),
            "component_count_note": self.component_count_note(),
        }

    def __repr__(self):
        return f"ClosurePoset(s={self.s}, {len(self.labels)} labels)"


def admissible_generization_pairs(s: int):
    """All (source, target) label pairs a one-parameter family can connect:
    the target must dominate, i.e. source.h <= target.h <= target.l <=
    source.l.  Identity pairs are included (constant families)."""
    poset = ClosurePoset(s)
    out = []
    for src in poset.labels:
        for tgt in poset.labels:
            if src.h <= tgt.h <= tgt.l <= src.l:
                out.append((src, tgt))
    return out


# ---------------------------------------------------------------------------
# one-parameter generization families
# ---------------------------------------------------------------------------

def _paired_skew_blocks(ring, size, live):
    """size x size block matrix: 2x2 skew blocks on the first `live`
    coordinates, zero elsewhere.  `live` must be even."""
    if live % 2 != 0 or live > size:
        raise ConstructionFailed(f"cannot place {live} skew coordinates in {size}")
    data = [[ring.zero] * size for _ in range(size)]
    for b in range(live // 2):
        data[2 * b][2 * b + 1] = ring.one
        data[2 * b + 1][2 * b] = -ring.one
    return Matrix(ring, data, coerce=False)


def _shift_down(M: Matrix, offset, size):
    """Embed M (acting on coordinates offset..offset+k) into size x size."""
    ring = M.ring
    data = [[ring.zero] * size for _ in range(size)]
    for i in range(M.nrows):
        for j in range(M.ncols):
            data[offset + i][offset + j] = M.data[i][j]
    return Matrix(ring, data, coerce=False)


class LiftRecord:
    """Certificate of a generization family: matrices of the family over
    k(u), the three primary flags, and spot checks at nonzero points."""

    __slots__ = ("n", "s", "source", "target", "seed", "Z", "Y2",
                 "valid_generic", "special_label", "generic_label",
                 "samples")

    def __init__(self, n, s, source, target, seed, Z, Y2, valid_generic,
                 special_label, generic_label, samples):
        self.n = n
        self.s = s
        self.source = source
        self.target = target
        self.seed = seed
        self.Z = Z
        self.Y2 = Y2
        self.valid_generic = valid_generic
        self.special_label = special_label
        self.generic_label = generic_label
        self.samples = samples

    @property
    def specializes_to_source(self) -> bool:
        return self.special_label == self.source

    @property
    def generic_matches_target(self) -> bool:
        return self.generic_label == self.target

    @property
    def ok(self) -> bool:
        return (self.valid_generic and self.specializes_to_source
                and self.generic_matches_target)

    @property
    def samples_ok(self) -> bool:
        return all(rec["ok"] for rec in self.samples)

    def to_json_dict(self):
        return {
            "n": self.n, "s": self.s,
            "source": list(self.source), "target": list(self.target),
            "seed": self.seed,
            "Z": [[repr(c) for c in row] for row in self.Z.rows()],
            "Y2": [[repr(c) for c in row] for row in self.Y2.rows()],
            "valid_generic": self.valid_generic,
            "special_label": list(self.special_label),
            "specializes_to_source": self.specializes_to_source,
            "generic_label": list(self.generic_label),
            "generic_matches_target": self.generic_matches_target,
            "samples": self.samples,
            "ok": self.ok and self.samples_ok,
        }

    def __repr__(self):
        return (f"LiftRecord({self.source} -> {self.target} at n={self.n}, "
                f"s={self.s}, ok={self.ok})")


def _check_label(n, s, lab, what):
    h, l = lab
    if not (0 <= h <= l <= s <= n // 2):
        raise BadTargets(f"{what} {lab} out of range for (n, s) = ({n}, {s})")
    if (l - s) % 2 != 0 or (h - s) % 2 != 0:
        raise BadTargets(f"{what} {lab} violates the parity constraints")


def generization_lift(n: int, s: int, source, target, seed: int = 0) -> LiftRecord:
    """Family over k(u) through the source chart whose u = 0 member lies in
    the source stratum and whose generic member lies in the target stratum.

    The rank-a skew block u * K feeds the h-invariant, the complementary
    block in the second parameter matrix cuts the l-invariant; supports are
    disjoint so the chart relations hold identically in u.  Spot checks
    rebuild the family at three random nonzero values in the nine-element
    field.
    """
    source = StratumLabel(*source)
    target = StratumLabel(*target)
    if n % 2 != 0 or n < 4:
        raise BadParameters("n must be even and at least 4")
    _check_label(n, s, source, "source")
    _check_label(n, s, target, "target")
    h, l = source
    h2, l2 = target
    if not (h <= h2 <= l2 <= l):
        raise BadTargets(f"target {target} does not dominate source {source}")
    d = l - h
    a = h2 - h
    b = l2 - h

    base = PrimeField(3)
    ku = FunctionField(base, "u")
    u = ku.monomial(1)
    Z = _paired_skew_blocks(ku, d, a) * u
    Y2 = _shift_down(_paired_skew_blocks(ku, d - b, d - b), b, d) * u

    point = chart_point_general(n, s, h, l, Y2=Y2, Z=Z, ring=ku)
    valid_generic = point.report.verdict
    generic_label = invariants(point)

    # honest specialization: evaluate the family matrices at u = 0
    zero = base.zero
    frame0 = build_frame(n, ring=base)
    F0 = point.F_rows.map_entries(lambda c: c.evaluate(zero), base)
    G0 = point.G_rows.map_entries(lambda c: c.evaluate(zero), base)
    special = ModelPoint(frame0, F0, G0)
    special_label = invariants(special)

    rng = random.Random(seed)
    F9 = PrimeField(9)
    nonzero = [e for e in F9.elements() if not e.is_zero()]
    samples = []
    for _ in range(3):
        c = rng.choice(nonzero)
        Zc = _paired_skew_blocks(F9, d, a) * c
        Y2c = _shift_down(_paired_skew_blocks(F9, d - b, d - b), b, d) * c
        pt = chart_point_general(n, s, h, l, Y2=Y2c, Z=Zc, ring=F9)
        lab = invariants(pt)
        samples.append({"at": repr(c), "label": list(lab),
                        "ok": bool(pt.report.verdict and lab == target)})

    return LiftRecord(n, s, source, target, seed, Z, Y2, valid_generic,
                      special_label, generic_label, samples)


# ---------------------------------------------------------------------------
# dual-number witnesses of obstructed directions
# ---------------------------------------------------------------------------

def _ft_basis(ring, C, n):
    """Plain and t-image basis vectors of the chart in frame coordinates,
    0-indexed."""
    z = [ring.zero] * n
    f = [C.col(j) + list(z) for j in range(n)]
    tf = [list(z) + C.col(j) for j in range(n)]
    return f, tf


def _vadd(x, y):
    return [a + b for a, b in zip(x, y)]


def _vscale(c, x):
    return [c * a for a in x]


class WitnessRecord:
    __slots__ = ("n", "s", "label", "report", "obstruction", "expected")

    def __init__(self, n, s, label, report, obstruction, expected):
        self.n = n
        self.s = s
        self.label = label
        self.report = report
        self.obstruction = obstruction
        self.expected = expected

    @property
    def obstructed(self) -> bool:
        return not self.obstruction.is_zero()

    @property
    def matches_expected(self) -> bool:
        return self.obstruction == self.expected

    def to_json_dict(self):
        return {
            "n": self.n, "s": self.s, "label": list(self.label),
            "validates": self.report.verdict,
            "flags": self.report.as_dict(),
            "obstruction": repr(self.obstruction),
            "expected": repr(self.expected),
            "obstructed": self.obstructed,
            "matches_expected": self.matches_expected,
        }

    def __repr__(self):
        return (f"WitnessRecord(n={self.n}, s={self.s}, label={self.label}, "
                f"obstructed={self.obstructed})")


def nonsmooth_witness(n: int, s: int, label, order: int = 3) -> WitnessRecord:
    """Dual-number point over an (h, l)-stratum point with h < l that
    validates to first order, together with the exact pairing value any
    second-order extension would have to kill.  The value is 2 eps^2, so the
    direction is obstructed precisely in odd characteristic.

    The point is a point of the chart adapted to the (h, l) stratum,
    chart_point_general over the dual numbers; the pairing is read in the
    same chart basis over the series ring.

    ``order`` is the series truncation; anything below 3 would silence the
    obstruction term itself and is refused."""
    if order < 3:
        raise BadParameters("series order below 3 cannot see the obstruction")
    label = StratumLabel(*label)
    h, l = label
    if n % 2 != 0 or n < 4 or not (0 <= h <= l <= s <= n // 2):
        raise BadLabel(f"no stratum {label} for (n, s) = ({n}, {s})")
    if (l - s) % 2 != 0 or (h - s) % 2 != 0:
        raise BadLabel(f"label {label} violates the parity constraints")
    if h >= l:
        raise BadLabel("witness needs a label with h < l")

    base = PrimeField(3)
    d = l - h
    # Z = -Y2 is eps on the last two coordinates of its block, which
    # displaces G directions l-1 and l towards their pairing partners;
    # (Y2 - Y2^t) Z is a multiple of eps^2 = 0
    D = DualNumbers(base)
    Z = [[D.zero] * d for _ in range(d)]
    Z[d - 2][d - 1], Z[d - 1][d - 2] = -D.gen, D.gen
    Z = Matrix(D, Z, coerce=False)
    report = chart_point_general(n, s, h, l, Y2=-Z, Z=Z, ring=D).report

    # read the obstruction one order deeper
    S = SeriesRing(base, "eps", order)
    frameS = build_frame(n, ring=S)
    T = normal_form_gram(h, l, s, n, ring=S)
    f, tf = _ft_basis(S, chart_transform(frameS, T), n)
    eps = S.gen
    i1, i2 = l - 2, l - 1
    j1, j2 = n - h - 2, n - h - 1
    u1 = _vadd(tf[i1], _vscale(-eps, tf[j2]))
    v1 = _vadd(_vadd(tf[j1], _vscale(eps, f[i2])), _vscale(eps * eps, f[j1]))
    obstruction = pair(frameS, u1, v1, "symmetric")
    expected = S.from_int(2) * eps * eps
    return WitnessRecord(n, s, label, report, obstruction, expected)
