import math
import random

import pytest

from splitmodel.errors import BadParameters, NotInvertible, RingUnsupported
from splitmodel.rings import (
    DualNumbers,
    FFElement,
    FunctionField,
    PolynomialRing,
    PrimeField,
    RationalFunction,
    SeriesRing,
    poly_add,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_trim,
)

INF = math.inf


def test_prime_field_rejects_bad_orders():
    with pytest.raises(BadParameters):
        PrimeField(6)
    with pytest.raises(BadParameters):
        PrimeField(4)  # even characteristic
    with pytest.raises(BadParameters):
        PrimeField(1)


def test_prime_field_is_cached():
    assert PrimeField(5) is PrimeField(5)
    assert PrimeField(9) is not PrimeField(3)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_field_axioms_random(q):
    F = PrimeField(q)
    rng = random.Random(1000 + q)
    els = list(F.elements())
    assert len(els) == q
    assert len(set(els)) == q
    for _ in range(300):
        a, b, c = (F.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero
        if not b.is_zero():
            assert b * b.inverse() == F.one
            assert (a / b) * b == a


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_frobenius_fixes_field(q):
    F = PrimeField(q)
    for a in F.elements():
        x = F.one
        for _ in range(q):
            x = x * a if not a.is_zero() else F.zero
        # a^q = a in F_q
        power = F.one
        for _ in range(q):
            power = power * a
        assert power == a


def test_f9_structure():
    F = PrimeField(9)
    assert F.char == 3
    assert F.deg == 2
    # the modulus is irreducible: no element squares to the generator's
    # defining relation being violated
    g = None
    for a in F.elements():
        if a != F.zero and a != F.one and a.val[1] != 0:
            g = a
            break
    assert g is not None
    with pytest.raises(NotInvertible):
        F.zero.inverse()


def test_zero_division_raises():
    F = PrimeField(5)
    with pytest.raises(NotInvertible):
        F.zero.inverse()


def test_poly_helpers():
    F = PrimeField(5)
    one = F.one
    # (x+1)(x-1) = x^2 - 1
    a = (one, one)
    b = (-one, one)
    prod = poly_mul(a, b, F)
    assert prod == (-one, F.zero, one)
    q, r = poly_divmod(prod, a, F)
    assert q == b and r == ()
    g = poly_gcd(prod, a, F)
    assert g == a  # monic gcd is x+1


def test_rational_canonical_form():
    K = FunctionField(PrimeField(5), "u")
    u = K.gen
    # (u^2-1)/(u-1) collapses to u+1
    f = (u * u - 1) / (u - 1)
    assert f == u + 1
    # denominators come out monic
    g = K.one / (u * 2 + 1)
    lead = g.den[-1]
    assert lead == K.base.one
    assert hash(f) == hash(u + 1)


def test_rational_field_axioms_random():
    K = FunctionField(PrimeField(3), "u")
    rng = random.Random(77)
    for _ in range(120):
        a = K.random_poly(rng, 2) / (K.random_poly(rng, 2) + K.one * 0 + K.monomial(3))
        b = K.random_poly(rng, 2)
        c = K.random_poly(rng, 1)
        assert (a + b) * c == a * c + b * c
        assert a - a == K.zero
        if not b.is_zero():
            assert (a / b) * b == a


def test_valuation_and_sigma():
    K = FunctionField(PrimeField(5), "u")
    u = K.gen
    assert K.zero.valuation() == INF
    assert (u * u).valuation() == 2
    assert (K.one / u).valuation() == -1
    assert (u + u * u).valuation() == 1
    f = (u + 1) / (u * u * u)
    assert f.sigma().sigma() == f
    assert u.sigma() == -u
    assert K.coerce(2).sigma() == K.coerce(2)


@pytest.mark.parametrize("q", [3, 7])
def test_shift_is_multiplication_by_a_power(q):
    K = FunctionField(PrimeField(q), "u")
    rng = random.Random(q)
    for _ in range(40):
        f = K.random_poly(rng, 3) * K.monomial(rng.randrange(-2, 3))
        g = K.random_poly(rng, 2)
        if not g.is_zero():
            f = f / g
        # == compares the canonical numerator and denominator
        for e in range(-3, 4):
            assert f.shift(e) == f * K.monomial(e)


def test_rational_evaluate():
    F = PrimeField(7)
    K = FunctionField(F, "u")
    u = K.gen
    f = (u * u + 1) / (u - 1)
    assert f.evaluate(F.from_int(2)) == F.from_int(5)
    with pytest.raises(NotInvertible):
        f.evaluate(F.from_int(1))


def test_truncate_below_splits_off_integral_tail():
    K = FunctionField(PrimeField(7), "u")
    u = K.gen
    f = K.one / (K.one - u)
    head = f.truncate_below(3)
    assert head == K.one + u + u * u
    tail = f - head
    assert tail.valuation() >= 3
    # negative-exponent case
    g = (u + 1) / (u * u)
    head = g.truncate_below(0)
    assert head == K.monomial(-2) + K.monomial(-1)
    assert (g - head).valuation() >= 0


def test_laurent_roundtrip():
    K = FunctionField(PrimeField(5), "u")
    f = K.laurent({-2: 3, 0: 1, 1: 4})
    mn, coeffs = f.laurent_coeffs()
    assert mn == -2
    assert coeffs[0] == K.base.from_int(3)
    with pytest.raises(RingUnsupported):
        (K.one / (K.gen + 1)).laurent_coeffs()


def test_series_ring_units_and_nilpotents():
    R = SeriesRing(PrimeField(3), "v", N=4)
    v = R.gen
    assert (v * v * v * v).is_zero()
    x = R.one + v
    assert x * x.inverse() == R.one
    with pytest.raises(NotInvertible):
        v.inverse()
    rng = random.Random(5)
    for _ in range(200):
        a = R.random(rng)
        if R.is_unit(a):
            assert a * a.inverse() == R.one
        else:
            nil = a
            for _ in range(R.N - 1):
                nil = nil * a
            assert nil.valuation() == INF or nil.is_zero() or nil.valuation() >= R.N - 1


def test_series_sigma_and_residue():
    R = SeriesRing(PrimeField(5), "v", N=3)
    v = R.gen
    x = R.one + v + v * v
    assert x.sigma() == R.one - v + v * v
    assert x.residue() == PrimeField(5).one
    assert (v * v).valuation() == 2


def test_dual_numbers():
    D = DualNumbers(PrimeField(7))
    # one ring object, so its elements mix with those of the series ring
    assert D is SeriesRing(PrimeField(7), "eps", 2)
    eps = D.gen
    assert (eps * eps).is_zero()
    assert D.N == 2
    a = D.one * 3 + eps * 2
    b = D.one * 2 + eps
    # first-order product rule
    assert a * b == D.one * 6 + eps * 7


def test_multipoly_arithmetic_and_orders():
    F = PrimeField(7)
    R = PolynomialRing(F, ("x", "y"))
    x, y = R.gens
    p = x * x + x * y * 3 + y
    q = x - y
    assert p * q - q * p == R.zero
    assert (p + q) - q == p
    # degrevlex ranks x^2 over xy over y
    assert p.lead_monomial() == (2, 0)
    assert (x * y + y * y).lead_monomial() == (1, 1)


def test_multipoly_substitute_and_evaluate():
    F = PrimeField(5)
    R = PolynomialRing(F, ("x", "y"))
    x, y = R.gens
    p = x * x + y
    q = p.substitute({"x": y})
    assert q == y * y + y
    val = p.evaluate({"x": F.from_int(2), "y": F.from_int(3)})
    assert val == F.from_int(2)


def test_multipoly_text_format():
    F = PrimeField(7)
    R = PolynomialRing(F, ("w_1_2", "pi"))
    w, pi = R.gens
    p = w * pi * 2 + pi * pi + w
    txt = p.text()
    assert "2*w_1_2*pi" in txt
    assert "pi^2" in txt
    assert R.zero.text() == "0"


def _rings_over(F):
    """The rings over F: series, dual numbers, polynomials, and k(u) when F
    is a prime field."""
    rings = [SeriesRing(F, "v", 3), DualNumbers(F), PolynomialRing(F, ["x", "y"])]
    return rings + ([FunctionField(F, "u")] if F.deg == 1 else [])


@pytest.mark.parametrize("q", [3, 5, 9])
def test_equal_constants_hash_alike(q):
    F = PrimeField(q)
    rings = _rings_over(F)
    for x in F.elements():
        # x itself, and the int it equals when it is a prime-field constant
        values = [x]
        if q == F.p or not any(x.val[1:]):
            values.append(x.val if q == F.p else x.val[0])
        for y in [R.coerce(x) for R in rings] + values:
            for v in values:
                assert y == v and v == y
                assert y in {v} and v in {y} and hash(y) == hash(v)
    assert F.one in {1} and PrimeField(3).one in {1}


@pytest.mark.parametrize("q", [3, 5, 9])
def test_int_equality_implies_equal_hash(q):
    # an int equals an element only as its canonical residue 0..p-1, so
    # PrimeField(3).one == 4 is False like PrimeField(3).one in {4}
    F = PrimeField(q)
    rings = _rings_over(F)
    values = list(F.elements())
    values += [R.coerce(x) for R in rings for x in F.elements()]
    values += [g for R in rings
               for g in (R.gens if isinstance(R, PolynomialRing) else [R.gen])]
    for x in values:
        for k in range(-2 * q, 2 * q):
            if x == k or k == x:
                assert x == k and k == x
                assert hash(x) == hash(k) and x in {k} and k in {x}
                assert 0 <= k < F.p
    assert PrimeField(3).one != 4 and PrimeField(3).one not in {4}
    assert FunctionField(PrimeField(3), "u").one != -2


def test_coerce_rejects_foreign_elements():
    F3, F5 = PrimeField(3), PrimeField(5)
    with pytest.raises(RingUnsupported):
        FunctionField(F3, "u").coerce(F5.one)
    with pytest.raises(RingUnsupported):
        SeriesRing(F3, "v", 2).coerce(FunctionField(F3, "u").gen)


# ---------------------------------------------------------------------------
# k(u) over a prime field on residues against the element helpers
# ---------------------------------------------------------------------------

def poly_divmod(a, b, field):
    """Quotient and remainder of element polynomials, the oracle's division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(a) >= len(b):
        while a and a[-1].is_zero():
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = a[shift + i] - c * bi
        while a and a[-1].is_zero():
            a.pop()
    return poly_trim(q), poly_trim(a)


def poly_gcd(a, b, field):
    """Monic gcd of element polynomials by Euclid's algorithm."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b, field)
        a, b = b, r
    if a:
        a = poly_scale(a, a[-1].inverse())
    return a


def _canonical_by_elements(F, num, den):
    """num/den in canonical form by the element poly_* helpers: divide out
    the gcd, then make the denominator monic."""
    g = poly_gcd(num, den, F)
    num, den = poly_divmod(num, g, F)[0], poly_divmod(den, g, F)[0]
    inv = den[-1].inverse()
    return poly_scale(num, inv), poly_scale(den, inv)


def _random_rational_functions(K, rng, count):
    """Seeded canonical elements of K built by the element helpers: zero,
    one, constants, Laurent monomials, and ratios of products of small
    polynomials from one pool, so that operands share factors."""
    F = K.base
    pool = [poly_trim(tuple(F.random(rng) for _ in range(rng.randrange(1, 4))))
            for _ in range(8)]
    pool = [f for f in pool if f]
    out = [K.zero, K.one]
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            num, den = poly_trim((F.random(rng),)), (F.one,)
        elif kind == 1:
            e = rng.randrange(-3, 4)
            num = (F.zero,) * max(e, 0) + (F.from_int(rng.randrange(1, F.p)),)
            den = (F.zero,) * max(-e, 0) + (F.one,)
        else:
            num, den = (F.from_int(rng.randrange(1, F.p)),), (F.one,)
            for _ in range(rng.randrange(3)):
                num = poly_mul(num, rng.choice(pool), F)
            for _ in range(rng.randrange(3)):
                den = poly_mul(den, rng.choice(pool), F)
        out.append(RationalFunction(K, *_canonical_by_elements(F, num, den),
                                    reduce=False))
    return out


def _interned(F, entries):
    return all(type(x) is FFElement and x is F.table[x.val] for x in entries)


def _operations(a, b, e):
    """(result, num, den) for a*b, a+b, a-b, a/b, the inverse of a and
    a*u^e: each result with the numerator and denominator, not yet reduced,
    that it stands for."""
    F = a.ring.base
    cross = poly_mul(a.num, b.den, F), poly_mul(b.num, a.den, F)
    dens = poly_mul(a.den, b.den, F)
    pad = (F.zero,) * abs(e)
    out = [(a * b, poly_mul(a.num, b.num, F), dens),
           (a + b, poly_add(*cross), dens),
           (a - b, poly_add(cross[0], poly_neg(cross[1])), dens),
           (a.shift(e), pad * (e > 0) + a.num, pad * (e < 0) + a.den)]
    if b:
        out.append((a / b, cross[0], poly_mul(a.den, b.num, F)))
    if a:
        out.append((a.inverse(), a.den, a.num))
    return out


def _check_against_elements(K, values):
    F = K.base
    for a in values:
        for b in values:
            for result, num, den in _operations(a, b, 0):
                assert (result.num, result.den) == _canonical_by_elements(F, num, den)
        # the reducing constructor, on untrimmed input with a shared factor
        # and a denominator that is not monic
        shared = (F.one, F.from_int(2))
        raw = RationalFunction(K, poly_mul(a.num, shared, F) + (F.zero,),
                               poly_mul(a.den, shared, F))
        assert (raw.num, raw.den) == (a.num, a.den)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_residue_arithmetic_matches_element_helpers(q):
    F = PrimeField(q)
    K = FunctionField(F, "u")
    values = _random_rational_functions(K, random.Random(f"rational:{q}"), 30)
    assert len({(x.num, x.den) for x in values}) >= 15
    _check_against_elements(K, values)
    results = [op(a, b) for a in values for b in values
               for op in (lambda x, y: x * y, lambda x, y: x + y,
                          lambda x, y: x - y)]
    assert _interned(F, [c for x in results for c in x.num + x.den])
    for x in values:
        assert x * K.zero is K.zero and K.zero * x is K.zero
        if x:
            assert x + K.zero is x and K.zero + x is x and x - K.zero is x


def test_function_field_refuses_an_extension_field():
    with pytest.raises(RingUnsupported):
        FunctionField(PrimeField(9), "u")
    with pytest.raises(RingUnsupported):
        FunctionField(FunctionField(PrimeField(3), "u"), "v")
    assert FunctionField(PrimeField(3), "u") is FunctionField(PrimeField(3), "u")


@pytest.mark.parametrize("q", [3, 7])
def test_zero_denominators_and_zero_inverses_still_raise(q):
    K = FunctionField(PrimeField(q), "u")
    F = K.base
    for den in [(), (F.zero,), (F.zero, F.zero)]:
        with pytest.raises(ZeroDivisionError):
            RationalFunction(K, (F.one,), den)
    with pytest.raises(NotInvertible):
        K.zero.inverse()
    with pytest.raises(NotInvertible):
        K.gen / K.zero


def _canonical_by_sympy(F, num, den):
    """num/den in canonical form by sympy's cancel over GF(p), made monic."""
    import sympy

    u, p = sympy.Symbol("u"), F.p
    poly = lambda c: sympy.Poly([x.val for x in reversed(c)] or [0], u, modulus=p)
    num, den = poly(num).cancel(poly(den), include=True)
    inv = pow(int(den.LC()) % p, p - 2, p)
    as_elements = lambda f: poly_trim(tuple(
        F.from_int(int(c) * inv) for c in reversed(f.all_coeffs())))
    return as_elements(num), as_elements(den)


@pytest.mark.parametrize("oracle", [_canonical_by_elements, _canonical_by_sympy],
                         ids=["elements", "sympy"])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_residue_arithmetic_property(q, oracle):
    pytest.importorskip("hypothesis")
    if oracle is _canonical_by_sympy:
        pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    F = PrimeField(q)
    K = FunctionField(F, "u")
    polys = st.lists(st.sampled_from(list(F.elements())), max_size=4)

    @st.composite
    def rational_functions(draw):
        # a factor shared by numerator and denominator, so that the
        # constructor has a gcd to divide out
        shared = draw(polys.filter(poly_trim))
        num = poly_mul(draw(polys), shared, F)
        den = poly_mul(draw(polys.filter(poly_trim)), shared, F)
        x = RationalFunction(K, num, den)
        assert (x.num, x.den) == oracle(F, num, den)
        return x

    @settings(derandomize=True, max_examples=30)
    @given(rational_functions(), rational_functions(), st.integers(-3, 3))
    def check(a, b, e):
        for result, num, den in _operations(a, b, e):
            assert (result.num, result.den) == oracle(F, num, den)

    check()
