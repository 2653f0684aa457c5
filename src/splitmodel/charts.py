"""Symbolic presentations of the chart-local coordinate rings.

The closed conditions of the moduli problem cut the standard chart out of
affine space by matrix equations.  This module expands those equations into
sparse polynomials so that they can be examined directly:

  * ``isotropy_relations`` and ``reduced_presentation`` build the defining
    ideals in the parameter entries, with ``pi`` as an ordinary polynomial
    variable (setting pi = 0 is substitution, never a quotient);
  * ``flat_lift`` produces the explicit skew block pair (T, W) with
    T W = 2*pi*I witnessing that a chart point thickens flatly;
  * ``groebner`` / ``reduce_poly`` are a small Buchberger engine (sugar
    selection, both classical pair-pruning criteria, hard pair budget)
    returning reduced monic bases;
  * ``macaulay_member`` decides degree-truncated ideal membership by plain
    row reduction, independently of the Buchberger route;
  * ``substitution_check`` verifies, generator by generator, the two
    changes of variables that carry the isotropy presentation onto the
    reduced skew presentation.

Polynomial text output is one polynomial per line, each term written as a
coefficient*var^k product with literal ``*`` and ``^``.
"""

import heapq

from .errors import (
    AmbientMismatch,
    BadDimension,
    BadParameters,
    BudgetExceeded,
)
from .linalg import Matrix, rank, inverse
from .rings import (
    FunctionField,
    MultiPoly,
    PolynomialRing,
    PrimeField,
    SeriesRing,
    _key_degrevlex,
    poly_trim,
)

#: default cap on Buchberger pairs processed in one completion run
PAIR_BUDGET = 100000

#: default cap on ring size for the public groebner entry point
VARIABLE_LIMIT = 16


# ---------------------------------------------------------------------------
# variable layout helpers
# ---------------------------------------------------------------------------
#
# Monomial order convention: every PolynomialRing orders by degrevlex, with
# earlier names larger.  So that w-entries come smallest, then the t/s/z
# families, then y, then x, and pi below everything, blocks are listed from
# x down to pi.

def _grid_names(prefix, nrows, ncols):
    return [f"{prefix}_{i}_{j}" for i in range(1, nrows + 1)
            for j in range(1, ncols + 1)]


def _upper_names(prefix, m):
    # strict upper triangle, row-major: the free entries of a skew matrix
    return [f"{prefix}_{i}_{j}" for i in range(1, m + 1)
            for j in range(i + 1, m + 1)]


def _var_matrix(ring, prefix, nrows, ncols):
    return Matrix(ring, [[ring.gen(f"{prefix}_{i}_{j}")
                          for j in range(1, ncols + 1)]
                         for i in range(1, nrows + 1)], coerce=False)


def _skew_var_matrix(ring, prefix, m):
    """Skew matrix whose strict upper triangle is the named variables."""
    z = ring.zero
    data = [[z] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            g = ring.gen(f"{prefix}_{i + 1}_{j + 1}")
            data[i][j], data[j][i] = g, -g
    return Matrix(ring, data, coerce=False)


def _upper_entries(M, include_diag):
    out = []
    for i in range(M.nrows):
        lo = i if include_diag else i + 1
        for j in range(lo, M.ncols):
            out.append(M.data[i][j])
    return out


def _all_entries(M):
    return [x for row in M.data for x in row]


def _two_pi_identity(ring, m, zero_pi):
    if zero_pi:
        return Matrix.zero(ring, m, m)
    c = ring.monomial({"pi": 1}, 2)
    return Matrix.diagonal(ring, [c] * m)


def _chart_sizes(s, r):
    if s < 1:
        raise BadParameters("need s >= 1")
    if r < s:
        raise BadParameters("need s <= r")
    if (r - s) % 2:
        raise BadParameters("r and s must have equal parity")
    eps = s % 2
    return s - eps, eps, (r - s) // 2


_ODD_ELIMINATIONS = (
    "corner entry of the unit-block parameter -> 0",
    "first row of the unit-block parameter -> -(first column of the skew parameter)^t",
    "first-column relations of the pairing block absorbed into the free variables",
)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class IdealPresentation:
    """A finite generator list inside a fixed polynomial ring.

    ``s_prime`` is the size of the active skew blocks, ``eps`` the parity
    defect of s, and ``aux`` the number of free variables u_k that appear in
    the ring but in no generator.  ``eliminated`` records, as plain strings,
    the variable families that were solved away before this presentation.
    """

    __slots__ = ("ring", "generators", "s", "r", "s_prime", "eps", "aux",
                 "eliminated")

    def __init__(self, ring, generators, s, r, s_prime, eps, aux, eliminated):
        self.ring = ring
        self.generators = tuple(generators)
        self.s = s
        self.r = r
        self.s_prime = s_prime
        self.eps = eps
        self.aux = aux
        self.eliminated = tuple(eliminated)

    def text(self):
        return "\n".join(g.text() for g in self.generators)

    def to_json_dict(self):
        return {
            "s": self.s,
            "r": self.r,
            "s_prime": self.s_prime,
            "eps": self.eps,
            "aux": self.aux,
            "variables": list(self.ring.names),
            "eliminated": list(self.eliminated),
            "order": "degrevlex",
            "generators": [g.text() for g in self.generators],
        }

    def __repr__(self):
        return (f"IdealPresentation(s={self.s}, r={self.r}, "
                f"{len(self.generators)} generators, "
                f"{self.ring.nvars} variables)")


def isotropy_relations(s, r=None, base=None):
    """Defining relations of the standard chart in full matrix coordinates.

    Variables: the cross blocks x, y (each q x s'), the pairing block z
    (s' x s', all entries), the skew parameter w (s' x s', all entries),
    free variables u_1..u_a for odd s, and pi.  Generators: the upper
    triangle of W + W^t, then every entry of
    (Z - Z^t + X^t Y - Y^t X) W - 2*pi*I.

    For odd s the chart normalizes the unit-block parameter first; the
    relations then live on blocks one size smaller and the presentation
    records what was solved away.
    """
    if r is None:
        r = s + 2
    sp, eps, q = _chart_sizes(s, r)
    if base is None:
        base = PrimeField(3)
    aux = 0 if eps == 0 else r + s - 1

    names = (_grid_names("x", q, sp) + _grid_names("y", q, sp)
             + _grid_names("z", sp, sp) + _grid_names("w", sp, sp)
             + [f"u_{k}" for k in range(1, aux + 1)] + ["pi"])
    ring = PolynomialRing(base, names)

    gens = []
    if sp:
        W = _var_matrix(ring, "w", sp, sp)
        Z = _var_matrix(ring, "z", sp, sp)
        Q = Z - Z.transpose()
        if q:
            X = _var_matrix(ring, "x", q, sp)
            Y = _var_matrix(ring, "y", q, sp)
            Q = Q + X.transpose() * Y - Y.transpose() * X
        gens.extend(_upper_entries(W + W.transpose(), include_diag=True))
        gens.extend(_all_entries(Q * W - _two_pi_identity(ring, sp, False)))

    eliminated = _ODD_ELIMINATIONS if eps else ()
    return IdealPresentation(ring, gens, s, r, sp, eps, aux, eliminated)


def reduced_presentation(s, r, base=None, set_pi_zero=False):
    """The chart presentation after both changes of variables.

    The skew matrices T and W keep only their strict upper triangles as
    variables; the generators are the nonzero entries of T W - 2*pi*I
    (at pi = 0, of T W).  The cross blocks x, y stay in the ring as free
    variables, as do u_1..u_a when s is odd.
    """
    sp, eps, q = _chart_sizes(s, r)
    if base is None:
        base = PrimeField(3)
    aux = 0 if eps == 0 else r + s - 1

    names = (_grid_names("x", q, sp) + _grid_names("y", q, sp)
             + _upper_names("t", sp) + _upper_names("w", sp)
             + [f"u_{k}" for k in range(1, aux + 1)] + ["pi"])
    ring = PolynomialRing(base, names)

    gens = []
    if sp:
        T = _skew_var_matrix(ring, "t", sp)
        W = _skew_var_matrix(ring, "w", sp)
        M = T * W - _two_pi_identity(ring, sp, set_pi_zero)
        gens = [g for g in _all_entries(M) if not g.is_zero()]

    eliminated = _ODD_ELIMINATIONS if eps else ()
    return IdealPresentation(ring, gens, s, r, sp, eps, aux, eliminated)


# ---------------------------------------------------------------------------
# flat lift
# ---------------------------------------------------------------------------

def flat_lift(T0=None, W0=None, pi=None):
    """Skew pair (T, W) of size 2(a+b) with T W = 2*pi*I.

    ``T0`` (a x a) and ``W0`` (b x b) are invertible seed blocks; either may
    be omitted.  Entries over a plain prime field are first lifted into the
    rational function field in pi.  The blocks sit on the antidiagonal:

        T = antidiag(T0, -2*pi*(W0^t)^-1, 2*pi*W0^-1, -T0^t)
        W = antidiag(-2*pi*(T0^t)^-1, W0, -W0^t, 2*pi*T0^-1)

    with block sizes (a, b, b, a).  Raises Singular when a seed block is
    not invertible.
    """
    if T0 is None and W0 is None:
        raise BadParameters("need at least one seed block")
    blocks = [M for M in (T0, W0) if M is not None]
    ring = blocks[0].ring
    for M in blocks:
        if M.ring is not ring:
            raise AmbientMismatch("seed blocks over different rings")
        if M.nrows != M.ncols:
            raise BadDimension("seed blocks must be square")

    if isinstance(ring, PrimeField):
        ff = FunctionField(ring, "pi")
        up = lambda M: M.map_entries(ff.coerce, ff) if M is not None else None
        T0, W0 = up(T0), up(W0)
        ring = ff
    if pi is None:
        if isinstance(ring, (FunctionField, SeriesRing)):
            pi = ring.gen
        else:
            raise BadParameters("cannot infer pi for this coefficient ring")
    two_pi = pi + pi

    a = T0.nrows if T0 is not None else 0
    b = W0.nrows if W0 is not None else 0
    n = 2 * a + 2 * b
    off = [0, a, a + b, a + 2 * b]

    def assemble(placements):
        data = [[ring.zero] * n for _ in range(n)]
        for bi, bj, M in placements:
            if M is None:
                continue
            for i in range(M.nrows):
                for j in range(M.ncols):
                    data[off[bi] + i][off[bj] + j] = M.data[i][j]
        return Matrix(ring, data, coerce=False)

    Ti = inverse(T0) if a else None
    Wi = inverse(W0) if b else None
    tr = lambda M: M.transpose() if M is not None else None
    scale = lambda M, c: M.map_entries(lambda x: x * c) if M is not None else None

    T_lift = assemble([
        (0, 3, T0),
        (1, 2, scale(tr(Wi), -two_pi)),
        (2, 1, scale(Wi, two_pi)),
        (3, 0, scale(tr(T0), ring.from_int(-1)) if a else None),
    ])
    W_lift = assemble([
        (0, 3, scale(tr(Ti), -two_pi)),
        (1, 2, W0),
        (2, 1, scale(tr(W0), ring.from_int(-1)) if b else None),
        (3, 0, scale(Ti, two_pi)),
    ])
    return T_lift, W_lift


# ---------------------------------------------------------------------------
# Buchberger engine
# ---------------------------------------------------------------------------

def _div_exps(m, d):
    out = []
    for a, b in zip(m, d):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def _lcm_exps(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _shift(f, exps, coeff):
    # f * coeff * x^exps; coeff nonzero, so no term can cancel
    return MultiPoly(f.ring,
                     {tuple(a + b for a, b in zip(e, exps)): c * coeff
                      for e, c in f.terms.items()}, clean=False)


class GroebnerBasis:
    """Reduced monic basis together with the order it was computed in."""

    __slots__ = ("ring", "basis", "pairs_processed")
    order = "degrevlex"

    def __init__(self, ring, basis, pairs_processed=0):
        self.ring = ring
        self.basis = tuple(basis)
        self.pairs_processed = pairs_processed

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def contains(self, f):
        return reduce_poly(f, self).is_zero()

    def text(self):
        return "\n".join(g.text() for g in self.basis)

    def to_json_dict(self):
        return {
            "order": self.order,
            "variables": list(self.ring.names),
            "pairs_processed": self.pairs_processed,
            "basis": [g.text() for g in self.basis],
        }

    def __repr__(self):
        return (f"GroebnerBasis({len(self.basis)} polynomials, "
                f"{self.order}, {self.ring.nvars} variables)")


def reduce_poly(f, gb):
    """Full normal form of f against a basis (every term reduced).

    ``gb`` may be a GroebnerBasis or any iterable of polynomials over the
    same ring.  Against a genuine Groebner basis the result is zero exactly
    when f lies in the ideal.
    """
    polys = list(gb.basis if isinstance(gb, GroebnerBasis) else gb)
    polys = [g for g in polys if not g.is_zero()]
    ring = f.ring
    for g in polys:
        if g.ring is not ring:
            raise AmbientMismatch("polynomial and basis over different rings")
    leads = [(g.lead_monomial(), g.lead_coeff(), g) for g in polys]

    remainder = ring.zero
    work = f
    while not work.is_zero():
        m = max(work.terms, key=_key_degrevlex)
        c = work.terms[m]
        step = None
        for le, lc, g in leads:
            d = _div_exps(m, le)
            if d is not None:
                step = _shift(g, d, c * lc.inverse())
                break
        if step is None:
            t = MultiPoly(ring, {m: c}, clean=False)
            remainder = remainder + t
            work = work - t
        else:
            work = work - step
    return remainder


def _spoly(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = _lcm_exps(lf, lg)
    a = _shift(f, _div_exps(lcm, lf), f.lead_coeff().inverse())
    b = _shift(g, _div_exps(lcm, lg), g.lead_coeff().inverse())
    return a - b


def _reduced_basis(G):
    # minimal: ascending leads, so divisors are seen before their multiples
    ordered = sorted(G, key=lambda g: _key_degrevlex(g.lead_monomial()))
    kept = []
    for g in ordered:
        lm = g.lead_monomial()
        if any(_div_exps(lm, h.lead_monomial()) is not None for h in kept):
            continue
        kept.append(g)
    # tail-reduce each element against all the others, in place
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        kept[i] = reduce_poly(kept[i], others).monic()
    kept.sort(key=lambda g: _key_degrevlex(g.lead_monomial()), reverse=True)
    return kept


def _buchberger(gens, pair_budget):
    G = []
    for g in gens:
        if not g.is_zero():
            g = g.monic()
            if g not in G:
                G.append(g)
    if not G:
        return [], 0

    sugars = [g.total_degree() for g in G]
    heap = []
    pending = set()

    def push(i, j):
        li, lj = G[i].lead_monomial(), G[j].lead_monomial()
        lcm = _lcm_exps(li, lj)
        sugar = max(sugars[i] + sum(lcm) - sum(li),
                    sugars[j] + sum(lcm) - sum(lj))
        heapq.heappush(heap, (sugar, _key_degrevlex(lcm), i, j))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)

    processed = 0
    while heap:
        sugar, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(
                f"groebner pair budget {pair_budget} exhausted")

        li, lj = G[i].lead_monomial(), G[j].lead_monomial()
        lcm = _lcm_exps(li, lj)
        # first criterion: coprime leading terms
        if lcm == tuple(a + b for a, b in zip(li, lj)):
            continue
        # second (chain) criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _div_exps(lcm, G[k].lead_monomial()) is None:
                continue
            pi_, pj_ = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if pi_ not in pending and pj_ not in pending:
                skip = True
                break
        if skip:
            continue

        r = reduce_poly(_spoly(G[i], G[j]), G)
        if r.is_zero():
            continue
        G.append(r.monic())
        sugars.append(max(sugar, r.total_degree()))
        new = len(G) - 1
        for k in range(new):
            push(k, new)

    return _reduced_basis(G), processed


def groebner(generators, pair_budget=PAIR_BUDGET,
             variable_limit=VARIABLE_LIMIT):
    """Reduced Groebner basis, in degrevlex, of the ideal the generators
    span.  Raises BudgetExceeded when the pair cap is hit and
    BadParameters when the ring exceeds the variable bound.
    """
    gens = list(generators)
    if not gens:
        raise BadParameters("need at least one polynomial")
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise AmbientMismatch("generators over different rings")
    if ring.nvars > variable_limit:
        raise BadParameters(
            f"{ring.nvars} variables exceeds the bound {variable_limit}")
    basis, processed = _buchberger(gens, pair_budget)
    return GroebnerBasis(ring, basis, processed)


# ---------------------------------------------------------------------------
# independent membership oracle
# ---------------------------------------------------------------------------

def _monomials_up_to(nvars, degree):
    if nvars == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _monomials_up_to(nvars - 1, degree - head):
            yield (head,) + tail


def macaulay_member(f, generators, degree=None):
    """Degree-truncated membership by row reduction.

    Builds every product (monomial)*(generator) of total degree at most
    ``degree`` (default: the degree of f) and asks whether f lies in their
    row span over the base field.  A True answer certifies membership; a
    False answer only rules out certificates up to the truncation degree.
    """
    ring = f.ring
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        if g.ring is not ring:
            raise AmbientMismatch("oracle inputs over different rings")
    if degree is None:
        degree = f.total_degree()
    if f.total_degree() > degree:
        return False

    columns = {m: idx for idx, m in
               enumerate(_monomials_up_to(ring.nvars, degree))}
    base = ring.base

    def as_row(p):
        row = [base.zero] * len(columns)
        for e, c in p.terms.items():
            row[columns[e]] = c
        return row

    rows = []
    for g in gens:
        slack = degree - g.total_degree()
        if slack < 0:
            continue
        for m in _monomials_up_to(ring.nvars, slack):
            rows.append(as_row(_shift(g, m, base.one)))
    if not rows:
        return f.is_zero()

    A = Matrix(base, rows, coerce=False)
    Af = Matrix(base, rows + [as_row(f)], coerce=False)
    return rank(A) == rank(Af)


# ---------------------------------------------------------------------------
# substitution chain
# ---------------------------------------------------------------------------

class SubstitutionStage:
    """Per-generator verdicts for one change of variables."""

    __slots__ = ("name", "mapping", "verdicts")

    def __init__(self, name, mapping, verdicts):
        self.name = name
        self.mapping = mapping
        self.verdicts = tuple(verdicts)

    @property
    def ok(self):
        return all(v != "failed" for _, v in self.verdicts)

    def to_json_dict(self):
        return {"name": self.name, "mapping": self.mapping,
                "verdicts": [{"generator": g, "verdict": v}
                             for g, v in self.verdicts]}

    def __repr__(self):
        tally = {}
        for _, v in self.verdicts:
            tally[v] = tally.get(v, 0) + 1
        inner = ", ".join(f"{k}: {tally[k]}" for k in sorted(tally))
        return f"SubstitutionStage({self.name}: {inner})"


class SubstitutionReport:
    __slots__ = ("s", "r", "s_prime", "stages")

    def __init__(self, s, r, s_prime, stages):
        self.s = s
        self.r = r
        self.s_prime = s_prime
        self.stages = tuple(stages)

    @property
    def ok(self):
        return all(st.ok for st in self.stages)

    def to_json_dict(self):
        return {"s": self.s, "r": self.r, "s_prime": self.s_prime,
                "ok": self.ok,
                "stages": [st.to_json_dict() for st in self.stages]}

    def __repr__(self):
        flag = "ok" if self.ok else "FAILED"
        return (f"SubstitutionReport(s={self.s}, r={self.r}, "
                f"{len(self.stages)} stages, {flag})")


def substitution_check(s, r=None, base=None, pair_budget=PAIR_BUDGET):
    """Verify the change-of-variables chain between the presentations.

    Three stages, each checking that every generator of a source
    presentation maps into a target ideal:

      1. split-symmetric-part: t -> Z - Z^t, s -> Z + Z^t carries the
         intermediate presentation onto the isotropy relations;
      2. absorb-cross-terms: t -> T - (X^t Y - Y^t X) carries the same
         presentation onto the reduced skew form;
      3. full-chain: the composite t -> (Z - Z^t) + (X^t Y - Y^t X) carries
         the reduced skew form back onto the isotropy relations.

    Verdicts per generator: "zero" (image vanishes identically), "literal"
    (image is plus or minus a target generator), "reduced" (normal form
    against the target's Groebner basis vanishes), or "failed".
    """
    if r is None:
        r = s + 2
    sp, eps, q = _chart_sizes(s, r)
    if sp < 1:
        raise BadParameters("no skew block to check at this size")
    if sp > 4:
        raise BadParameters("symbolic expansion bound is s - eps <= 4")
    if base is None:
        base = PrimeField(3)

    names = (_grid_names("x", q, sp) + _grid_names("y", q, sp)
             + _grid_names("z", sp, sp) + _grid_names("s", sp, sp)
             + _grid_names("t", sp, sp) + _grid_names("w", sp, sp) + ["pi"])
    ring = PolynomialRing(base, names)

    Z = _var_matrix(ring, "z", sp, sp)
    S = _var_matrix(ring, "s", sp, sp)
    T = _var_matrix(ring, "t", sp, sp)
    W = _var_matrix(ring, "w", sp, sp)
    if q:
        X = _var_matrix(ring, "x", q, sp)
        Y = _var_matrix(ring, "y", q, sp)
        K = X.transpose() * Y - Y.transpose() * X
    else:
        K = Matrix.zero(ring, sp, sp)
    two_pi_I = _two_pi_identity(ring, sp, False)

    skew_w = _upper_entries(W + W.transpose(), include_diag=True)
    skew_t = _upper_entries(T + T.transpose(), include_diag=True)
    iso_gens = skew_w + _all_entries((Z - Z.transpose() + K) * W - two_pi_I)
    mid_gens = skew_w + skew_t + _all_entries((T + K) * W - two_pi_I)
    fin_gens = skew_w + skew_t + _all_entries(T * W - two_pi_I)

    def mapping_for(img_of_t, extra=None):
        out = {}
        for i in range(sp):
            for j in range(sp):
                out[f"t_{i + 1}_{j + 1}"] = img_of_t.data[i][j]
        if extra:
            out.update(extra)
        return out

    sym_split = mapping_for(Z - Z.transpose(),
                            {f"s_{i + 1}_{j + 1}": (Z + Z.transpose()).data[i][j]
                             for i in range(sp) for j in range(sp)})
    absorb = mapping_for(T - K)
    composite = mapping_for(Z - Z.transpose() + K)

    gb_cache = {}

    def verdict(gen, mapping, target, target_key):
        img = gen.substitute(mapping)
        if img.is_zero():
            return "zero"
        if any(img == t or img == -t for t in target):
            return "literal"
        if target_key not in gb_cache:
            basis, _ = _buchberger(target, pair_budget)
            gb_cache[target_key] = basis
        if reduce_poly(img, gb_cache[target_key]).is_zero():
            return "reduced"
        return "failed"

    stages = []
    for name, mapping, desc, source, target, tkey in (
            ("split-symmetric-part", sym_split,
             "t[i][j] -> z[i][j] - z[j][i]; s[i][j] -> z[i][j] + z[j][i]",
             mid_gens, iso_gens, "iso"),
            ("absorb-cross-terms", absorb,
             "t[i][j] -> t[i][j] - (x^t y - y^t x)[i][j]",
             mid_gens, fin_gens, "fin"),
            ("full-chain", composite,
             "t[i][j] -> (z - z^t + x^t y - y^t x)[i][j]",
             fin_gens, iso_gens, "iso")):
        verdicts = [(g.text(), verdict(g, mapping, target, tkey))
                    for g in source]
        stages.append(SubstitutionStage(name, desc, verdicts))

    return SubstitutionReport(s, r, sp, stages)


# ---------------------------------------------------------------------------
# squarefreeness
# ---------------------------------------------------------------------------

def poly_derivative(f, name):
    """Partial derivative with respect to the named variable."""
    ring = f.ring
    idx = ring.names.index(name)
    out = {}
    for e, c in f.terms.items():
        if not e[idx]:
            continue
        k = ring.base.from_int(e[idx])
        if k.is_zero():
            continue
        d = list(e)
        d[idx] -= 1
        out[tuple(d)] = c * k
    return MultiPoly(ring, out, clean=False)


def _as_univariate(f, name):
    # ascending coefficient list; coefficients are polynomials in the
    # remaining variables (the named exponent slot zeroed out)
    ring = f.ring
    idx = ring.names.index(name)
    coeffs = {}
    for e, c in f.terms.items():
        d = list(e)
        k = d[idx]
        d[idx] = 0
        coeffs.setdefault(k, {})[tuple(d)] = c
    top = max(coeffs) if coeffs else -1
    return [MultiPoly(ring, coeffs.get(i, {}), clean=False)
            for i in range(top + 1)]


def _uni_gcd(A, B):
    """A gcd of A and B over k(other variables)[v], up to a factor from
    k(other variables): Euclid's algorithm on pseudo-remainders of the
    coefficient lists of _as_univariate."""
    while B:
        lb = B[-1]
        while len(A) >= len(B):
            la, shift = A[-1], len(A) - len(B)
            A = poly_trim([a * lb - la * B[i - shift] if i >= shift else a * lb
                           for i, a in enumerate(A)])
        A, B = B, A
    return A


def is_squarefree(f):
    """No repeated factor: over the perfect field k, f is squarefree exactly
    when gcd(f, df/dx_1, ..., df/dx_n) = 1.

    Checked variable by variable: a common factor of positive degree in v
    divides f and every partial over k(other variables)[v], and by Gauss's
    lemma a gcd there of positive degree in v comes from one in k[x].
    """
    if f.is_zero():
        return False
    partials = [poly_derivative(f, name) for name in f.ring.names]
    for name in f.ring.names:
        g = _as_univariate(f, name)
        for df in partials:
            if len(g) <= 1:
                break
            g = _uni_gcd(g, _as_univariate(df, name))
        if len(g) > 1:
            return False
    return True
