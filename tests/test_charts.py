"""Chart presentations, the Groebner engine, flat lifts, substitution chain."""

import random
import time

import pytest

from splitmodel.charts import (
    GroebnerBasis,
    _shift,
    _spoly,
    flat_lift,
    groebner,
    is_squarefree,
    isotropy_relations,
    macaulay_member,
    reduce_poly,
    reduced_presentation,
    substitution_check,
)
from splitmodel.errors import (
    AmbientMismatch,
    BadParameters,
    BudgetExceeded,
    Singular,
)
from splitmodel.linalg import Matrix, det
from splitmodel.rings import (
    FunctionField,
    MultiPoly,
    PolynomialRing,
    PrimeField,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_isotropy_generator_counts_even():
    p = isotropy_relations(2)
    assert (p.s, p.r, p.s_prime, p.eps, p.aux) == (2, 4, 2, 0, 0)
    assert p.eliminated == ()
    # 3 skew generators, then the 4 entries of the matrix relation
    assert len(p.generators) == 7
    assert [g.text() for g in p.generators[:3]] == [
        "2*w_1_1", "1*w_1_2 + 1*w_2_1", "2*w_2_2"]
    for g in p.generators[3:]:
        assert g.total_degree() in (2, 3)
    # -2*pi*I contributes +pi on the diagonal entries over F_3
    diag = [p.generators[3], p.generators[6]]
    pi = p.ring.gen("pi")
    for g in diag:
        assert g.terms.get(pi.lead_monomial()) is not None


def test_isotropy_odd_case_reduces_block_size():
    p = isotropy_relations(3)
    assert (p.s, p.r, p.s_prime, p.eps) == (3, 5, 2, 1)
    assert p.aux == 5 + 3 - 1
    assert len(p.eliminated) == 3
    assert "-> 0" in p.eliminated[0]
    assert "unit-block" in p.eliminated[1]
    # relations live on blocks one size down: same shape as the even case
    assert len(p.generators) == 7
    for k in range(1, p.aux + 1):
        assert f"u_{k}" in p.ring.names


def test_isotropy_size_one_has_no_relations():
    p = isotropy_relations(1)
    assert p.s_prime == 0
    assert p.generators == ()
    assert p.ring.names == ("u_1", "u_2", "u_3", "pi")


def test_presentation_parameter_checks():
    with pytest.raises(BadParameters):
        isotropy_relations(0)
    with pytest.raises(BadParameters):
        reduced_presentation(4, 2)
    with pytest.raises(BadParameters):
        reduced_presentation(2, 5)


def test_reduced_presentation_shape():
    p = reduced_presentation(2, 4)
    assert p.ring.names == ("x_1_1", "x_1_2", "y_1_1", "y_1_2",
                            "t_1_2", "w_1_2", "pi")
    assert [g.text() for g in p.generators] == [
        "2*t_1_2*w_1_2 + 1*pi", "2*t_1_2*w_1_2 + 1*pi"]

    p0 = reduced_presentation(2, 4, set_pi_zero=True)
    assert [g.text() for g in p0.generators] == [
        "2*t_1_2*w_1_2", "2*t_1_2*w_1_2"]

    # pi = 0 agrees with substituting pi -> 0 in the generic generators
    zero = p.ring.zero
    assert [g.substitute({"pi": zero}) for g in p.generators] == \
        list(p0.generators)


def test_reduced_presentation_records_odd_bookkeeping():
    p = reduced_presentation(3, 5)
    assert p.s_prime == 2 and p.aux == 7
    assert len(p.eliminated) == 3
    assert sum(1 for n in p.ring.names if n.startswith("u_")) == 7


def test_presentation_text_is_one_polynomial_per_line():
    p = reduced_presentation(2, 4)
    lines = p.text().splitlines()
    assert len(lines) == len(p.generators)
    assert all("*" in ln for ln in lines)
    d = p.to_json_dict()
    assert d["generators"] == lines
    assert d["order"] == "degrevlex"


# ---------------------------------------------------------------------------
# flat lift
# ---------------------------------------------------------------------------

def _check_lift_identities(T_lift, W_lift):
    ring = T_lift.ring
    two_pi = ring.gen + ring.gen
    n = T_lift.nrows
    assert (T_lift + T_lift.transpose()).is_zero()
    assert (W_lift + W_lift.transpose()).is_zero()
    assert (T_lift * W_lift - Matrix.diagonal(ring, [two_pi] * n)).is_zero()


def test_flat_lift_single_block_each_way():
    ff = FunctionField(F5, "pi")
    pi = ff.gen
    T_lift, W_lift = flat_lift(T0=Matrix(F5, [[1]]))
    assert T_lift.data == Matrix(ff, [[0, 1], [-1, 0]]).data
    assert W_lift == Matrix.from_rows(ff, [[ff.zero, -(pi + pi)],
                                           [pi + pi, ff.zero]])
    _check_lift_identities(T_lift, W_lift)

    T_lift, W_lift = flat_lift(W0=Matrix(F5, [[1]]))
    assert W_lift.data == Matrix(ff, [[0, 1], [-1, 0]]).data
    assert T_lift == Matrix.from_rows(ff, [[ff.zero, -(pi + pi)],
                                           [pi + pi, ff.zero]])
    _check_lift_identities(T_lift, W_lift)


def test_flat_lift_random_profiles():
    ff = FunctionField(F5, "pi")
    rng = random.Random(401)

    def random_invertible(n):
        while True:
            M = Matrix(ff, [[ff.random_poly(rng, 1) for _ in range(n)]
                            for _ in range(n)])
            if not det(M).is_zero():
                return M

    for a, b in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1)):
        for _ in range(10):
            T0 = random_invertible(a) if a else None
            W0 = random_invertible(b) if b else None
            T_lift, W_lift = flat_lift(T0, W0)
            assert T_lift.nrows == 2 * (a + b)
            _check_lift_identities(T_lift, W_lift)


def test_flat_lift_pi_zero_reduction():
    # specializing pi -> 0 kills the product entirely
    ff = FunctionField(F5, "pi")
    T0 = Matrix(ff, [[1, 1], [1, 2]])
    W0 = Matrix(ff, [[3]])
    T_lift, W_lift = flat_lift(T0, W0)
    zero = F5.zero
    T_sp = T_lift.map_entries(lambda c: c.evaluate(zero), F5)
    W_sp = W_lift.map_entries(lambda c: c.evaluate(zero), F5)
    assert not T_sp.is_zero() and not W_sp.is_zero()
    assert (T_sp * W_sp).is_zero()


def test_flat_lift_errors():
    with pytest.raises(BadParameters):
        flat_lift()
    with pytest.raises(Singular):
        flat_lift(T0=Matrix(F5, [[1, 2], [2, 4]]))
    ff3 = FunctionField(F3, "pi")
    with pytest.raises(AmbientMismatch):
        flat_lift(T0=Matrix(F5, [[1]]), W0=Matrix(ff3, [[1]]))


# ---------------------------------------------------------------------------
# Groebner engine
# ---------------------------------------------------------------------------

def test_groebner_worked_examples():
    R = PolynomialRing(F3, ("x", "y"))
    x, y = R.gens

    gb = groebner([x * x, x * y])
    assert [g.text() for g in gb] == ["1*x^2", "1*x*y"]

    gb = groebner([x * y])
    assert [g.text() for g in gb] == ["1*x*y"]

    gb = groebner([x + y, x - y])
    assert [g.text() for g in gb] == ["1*x", "1*y"]


def test_groebner_every_spoly_reduces_to_zero():
    R = PolynomialRing(F3, ("x", "y", "z"))
    x, y, z = R.gens
    gb = groebner([x * y - z, y * z - x, x * z - y])
    basis = list(gb.basis)
    assert len(basis) >= 3
    for i in range(len(basis)):
        for j in range(i):
            assert reduce_poly(_spoly(basis[i], basis[j]), gb).is_zero()
    # reduced: no head divides another, all monic, tails in normal form
    for i, g in enumerate(basis):
        assert g.lead_coeff() == F3.one
        others = basis[:i] + basis[i + 1:]
        assert reduce_poly(g, others) == g


def test_groebner_guards_and_order_transport():
    R = PolynomialRing(F3, tuple(f"v_{i}" for i in range(17)))
    with pytest.raises(BadParameters):
        groebner([R.gens[0]])
    with pytest.raises(BadParameters):
        groebner([])

    R2 = PolynomialRing(F3, ("x", "y"))
    x, y = R2.gens
    with pytest.raises(BudgetExceeded):
        groebner([x * x * y - x, x * y * y - y * y + x], pair_budget=1)

    gb = groebner([x + y, x - y])
    assert [g.text() for g in gb] == ["1*x", "1*y"]


def test_reduce_poly_examples():
    R = PolynomialRing(F3, ("x", "y"))
    x, y = R.gens
    gb = groebner([x * x, x * y])
    assert reduce_poly(x * x * y, gb).is_zero()
    assert reduce_poly(x, groebner([x * x])) == x
    # remainder has no term divisible by any head
    f = (x + y) * (x + y) + y
    r = reduce_poly(f, gb)
    assert not any(e[0] >= 2 or (e[0] >= 1 and e[1] >= 1) for e in r.terms)


# ---------------------------------------------------------------------------
# the size-2 reducedness base case
# ---------------------------------------------------------------------------

def test_size_two_special_fiber_is_principal_and_squarefree():
    p0 = reduced_presentation(2, 2, set_pi_zero=True)
    gb0 = groebner(p0.generators)
    assert len(gb0) == 1
    tw = gb0.basis[0]
    assert tw.text() == "1*t_1_2*w_1_2"
    assert is_squarefree(tw)
    # (tw)^2 is a member; against the generic ideal tw is not a member
    assert reduce_poly(tw * tw, gb0).is_zero()
    gb_generic = groebner(reduced_presentation(2, 2).generators)
    assert [g.text() for g in gb_generic] == ["1*t_1_2*w_1_2 + 2*pi"]
    leftover = reduce_poly(tw, gb_generic)
    assert not leftover.is_zero()
    assert leftover.text() == "1*pi"


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("zero_pi", [False, True])
def test_groebner_matches_sympy(s, q, zero_pi):
    sympy = pytest.importorskip("sympy")
    pres = reduced_presentation(s, s + 2, base=PrimeField(q),
                                set_pi_zero=zero_pi)
    names = sympy.symbols(pres.ring.names)
    theirs = sympy.groebner(
        [sympy.Poly.from_dict({e: c.val for e, c in g.terms.items()}, *names)
         for g in pres.generators],
        *names, modulus=q, order="grevlex")
    ours = groebner(pres.generators, variable_limit=pres.ring.nvars)
    # both bases are reduced and monic, so they are equal as sets of terms
    assert ours.order == "degrevlex"
    assert ({frozenset((e, c.val) for e, c in g.terms.items()) for g in ours}
            == {frozenset((e, c % q) for e, c in p.terms())
                for p in theirs.polys})


def test_squarefreeness_detector():
    R = PolynomialRing(F3, ("t", "w"))
    t, w = R.gens
    assert is_squarefree(t * w)
    assert is_squarefree(t * w + t)          # t*(w+1)
    assert not is_squarefree(t * t)
    assert not is_squarefree(t * t * w)
    assert not is_squarefree(t * t * t)      # derivative vanishes in char 3
    assert not is_squarefree((t * w + t) * (t * w + t))
    # d/dx vanishes on x^3 + y in char 3, but d/dy does not: irreducible
    R = PolynomialRing(F3, ("x", "y"))
    x, y = R.gens
    assert is_squarefree(x * x * x + y)
    assert is_squarefree(x * x * x * x + x * y)  # x*(x^3 + y)
    assert not is_squarefree(x * x * x * y)
    assert not is_squarefree(x * x * x)
    assert not is_squarefree(R.zero) and is_squarefree(R.one)


@pytest.mark.parametrize("q", [3, 5])
def test_squarefreeness_on_seeded_products(q):
    # g*h^2 with h nonconstant has a repeated factor; a product of pairwise
    # non-proportional linear forms has none; in one variable sympy decides
    F = PrimeField(q)
    R = PolynomialRing(F, ("x", "y", "z"))
    rng = random.Random(f"squarefree:{q}")

    def draw(maxdeg, nterms):
        terms = {tuple(rng.randrange(maxdeg + 1) for _ in R.names): F.random(rng)
                 for _ in range(nterms)}
        return MultiPoly(R, terms)

    for _ in range(20):
        g = draw(2, 3)
        h = draw(1, 3)
        if g.is_zero() or h.total_degree() < 1:
            continue
        assert not is_squarefree(g * h * h)
    for _ in range(20):
        forms = {}
        for _ in range(rng.randrange(1, 5)):
            form = R.zero
            while form.total_degree() < 1:
                form = draw(0, 1) + sum((R.gens[i] * F.random(rng) for i in range(3)), R.zero)
            forms[tuple(sorted(form.monic().terms.items()))] = form
        product = R.one
        for form in forms.values():
            product = product * form
        assert is_squarefree(product)
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    Rx = PolynomialRing(F, ("x",))
    for _ in range(60):
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
        if not any(coeffs):
            continue
        f = MultiPoly(Rx, {(i,): F.from_int(c) for i, c in enumerate(coeffs)})
        assert is_squarefree(f) == sympy.Poly(coeffs[::-1], X, modulus=q).is_sqf


# ---------------------------------------------------------------------------
# Macaulay-matrix membership oracle
# ---------------------------------------------------------------------------

def _random_ideal_trials():
    """Seeded random ideals in x, y, z over F_3, criterion-10 style: per
    trial two or three random generators of degree at most 2, an explicit
    combination of them with the degree bound of its certificate, and a
    random polynomial of degree at most 3 (possibly zero)."""
    rng = random.Random(5)
    R = PolynomialRing(F3, ("x", "y", "z"))

    def random_poly(maxdeg, nterms):
        out = R.zero
        for _ in range(nterms):
            e = tuple(rng.randrange(maxdeg + 1) for _ in range(3))
            if sum(e) > maxdeg:
                continue
            out = out + MultiPoly(R, {e: F3.from_int(rng.randrange(1, 3))},
                                  clean=False)
        return out

    for trial in range(20):
        gens = [random_poly(2, 3) for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        combo = R.zero
        topdeg = 0
        for g in gens:
            m = tuple(rng.randrange(2) for _ in range(3))
            combo = combo + _shift(g, m, F3.from_int(rng.randrange(1, 3)))
            topdeg = max(topdeg, g.total_degree() + sum(m))
        yield gens, combo, topdeg, random_poly(3, 4)


def test_membership_routes_agree_on_random_ideals():
    checked = 0
    for gens, combo, topdeg, f in _random_ideal_trials():
        gb = groebner(gens)

        # an explicit combination is certified by both routes
        if not combo.is_zero():
            assert reduce_poly(combo, gb).is_zero()
            assert macaulay_member(combo, gens, topdeg)

        # on a random polynomial the two decisions coincide (the degrevlex
        # order is degree-compatible, so membership in the span of the basis
        # always has a certificate at the degree of the polynomial itself)
        if f.is_zero():
            continue
        gb_yes = reduce_poly(f, gb).is_zero()
        mac_yes = macaulay_member(f, list(gb.basis), f.total_degree())
        assert gb_yes == mac_yes
        checked += 1
    assert checked >= 15


def test_groebner_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    names = sympy.symbols(("x", "y", "z"))
    compared = 0
    for gens, _, _, _ in _random_ideal_trials():
        theirs = sympy.groebner(
            [sympy.Poly.from_dict({e: c.val for e, c in g.terms.items()},
                                  *names) for g in gens],
            *names, modulus=3, order="grevlex")
        ours = groebner(gens)
        assert ({frozenset((e, c.val) for e, c in g.terms.items())
                 for g in ours}
                == {frozenset((e, c % 3) for e, c in p.terms())
                    for p in theirs.polys})
        compared += 1
    assert compared > 0


def test_macaulay_oracle_basics():
    R = PolynomialRing(F3, ("x", "y"))
    x, y = R.gens
    assert macaulay_member(x * x * y, [x * x, x * y], 3)
    assert not macaulay_member(x, [x * x], 4)
    assert macaulay_member(R.zero, [x * x], 0)


# ---------------------------------------------------------------------------
# substitution chain
# ---------------------------------------------------------------------------

def test_substitution_chain_size_two():
    report = substitution_check(2)
    assert report.ok
    assert report.s_prime == 2
    assert [st.name for st in report.stages] == [
        "split-symmetric-part", "absorb-cross-terms", "full-chain"]

    def tally(stage):
        out = {}
        for _, v in stage.verdicts:
            out[v] = out.get(v, 0) + 1
        return out

    # the three skew generators of T + T^t vanish identically under the
    # first map and under the composite; everything else matches literally
    assert tally(report.stages[0]) == {"literal": 7, "zero": 3}
    assert tally(report.stages[1]) == {"literal": 10}
    assert tally(report.stages[2]) == {"literal": 7, "zero": 3}

    d = report.to_json_dict()
    assert d["ok"] is True
    assert len(d["stages"]) == 3


def test_substitution_chain_odd_size_and_guards():
    report = substitution_check(3)
    assert report.ok and report.s_prime == 2

    with pytest.raises(BadParameters):
        substitution_check(1)      # no skew block left
    with pytest.raises(BadParameters):
        substitution_check(6)      # expansion bound


def test_skew_coordinates_land_in_isotropy_ideal():
    # the reduced presentation uses only the upper skew entries; mapping
    # t -> Z - Z^t + X^tY - Y^tX and keeping w takes its generators into
    # the full isotropy ideal, but only up to the skew relations, so this
    # membership genuinely needs the Groebner route
    iso = isotropy_relations(2)
    gb = groebner(iso.generators)
    R = iso.ring

    def g(name):
        return R.gen(name)

    q12 = (g("z_1_2") - g("z_2_1")
           + g("x_1_1") * g("y_1_2") - g("y_1_1") * g("x_1_2"))
    mapping = {"t_1_2": q12, "w_1_2": g("w_1_2"), "pi": g("pi")}

    red = reduced_presentation(2, 4)
    for gen in red.generators:
        img = R.zero
        for exps, coeff in gen.terms.items():
            term = R.coerce(coeff)
            for name, e in zip(gen.ring.names, exps):
                for _ in range(e):
                    term = term * mapping[name]
            img = img + term
        assert not img.is_zero()
        assert reduce_poly(img, gb).is_zero()
