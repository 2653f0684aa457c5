"""Exact coefficient rings.

Everything downstream computes over one of the rings defined here:

* ``PrimeField(q)``        -- F_q, q an odd prime power,
* ``FunctionField(k, v)``  -- rational functions k(v) in canonical form,
  over a prime field k = F_p only,
* ``SeriesRing(k, v, N)``  -- truncated power series k[v]/(v^N),
* ``DualNumbers(k)``       -- k[eps]/(eps^2), the SeriesRing(k, "eps", 2),
* ``PolynomialRing(k, names)`` -- sparse multivariate polynomials, degrevlex.

All arithmetic is exact; nothing here floats.  Elements are immutable and
hashable, and equality is structural, which the canonical forms make sound.
Univariate polynomials use the helpers here: the ``_ipoly_*`` functions on
int residues do every gcd and division mod p (extension-field moduli and
k(v)), and the ``poly_*`` functions on elements do what must work over any
coefficient ring (characteristic polynomials, valuations, text).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import BadParameters, NotInvertible, RingUnsupported

INF = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int):
    """Return (p, k) with q = p^k, p prime, or raise."""
    for p in range(2, q + 1):
        if not _is_prime(p):
            continue
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1 and k >= 1:
            return p, k
        if q % p == 0:
            break
    raise BadParameters(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over int coefficients mod p
# (extension-field moduli and arithmetic, and k(v) over F_p);
# lists of residues, ascending degree
# ---------------------------------------------------------------------------

def _ipoly_trim(c):
    """Strip the trailing zeros of the list c in place; returns c."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _ipoly_mul(a, b, p):
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                res[j] += ai * bj
    return [c % p for c in res]


def _ipoly_divmod(a, b, p):
    """Quotient and remainder of a on division by b (trimmed, nonzero)."""
    r = _ipoly_trim(list(a))
    q = [0] * max(len(r) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv_lead % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b, shift):
            r[i] = (r[i] - c * bi) % p
        _ipoly_trim(r)
    return q, r


def _ipoly_rem(a, b, p):
    return _ipoly_divmod(a, b, p)[1]


def _ipoly_powmod(a, e, mod, p):
    result = [1]
    base = _ipoly_rem(a, mod, p)
    while e:
        if e & 1:
            result = _ipoly_rem(_ipoly_mul(result, base, p), mod, p)
        base = _ipoly_rem(_ipoly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _ipoly_gcd(a, b, p):
    a, b = _ipoly_trim(list(a)), _ipoly_trim(list(b))
    while b:
        a, b = b, _ipoly_rem(a, b, p)
    return a


def _irreducible(mod, p):
    """Rabin test: mod (monic, degree k) irreducible over F_p."""
    k = len(mod) - 1

    def frobenius_minus_x(e):
        """x^(p^e) - x reduced mod mod."""
        xq = _ipoly_powmod([0, 1], p ** e, mod, p)
        return _ipoly_trim([(a - b) % p for a, b in
                            zip_longest(xq, [0, 1], fillvalue=0)])

    if frobenius_minus_x(k):
        return False
    for d in range(2, k + 1):
        if k % d == 0 and _is_prime(d):
            if len(_ipoly_gcd(frobenius_minus_x(k // d), mod, p)) > 1:
                return False
    return True


def _digits(code: int, p: int, k: int):
    """The k base-p digits of code, least significant first."""
    out = []
    for _ in range(k):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _find_modulus(p: int, k: int):
    """Smallest monic irreducible of degree k over F_p, by lex search."""
    for code in range(p ** k):
        mod = _digits(code, p, k) + [1]
        if _irreducible(mod, p):
            return tuple(mod)
    raise BadParameters(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

def _interned(cls, key):
    """The one instance of the cached ring class cls for key."""
    if key not in cls._cache:
        cls._cache[key] = object.__new__(cls)
    return cls._cache[key]


class FFElement:
    """Element of a PrimeField.  ``val`` is an int (prime field) or a
    coefficient tuple of ints (extension field).  A prime field builds each
    of its p elements once, and its arithmetic returns those same objects
    (see ``PrimeField.table``)."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __add__(self, other):
        f = self.field
        if isinstance(other, int):
            other = f.from_int(other)
        if other.field is not f:
            return NotImplemented
        if f.deg == 1:
            return f.table[(self.val + other.val) % f.p]
        p = f.p
        return FFElement(f, tuple((a + b) % p for a, b in zip(self.val, other.val)))

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if isinstance(other, int):
            other = f.from_int(other)
        if other.field is not f:
            return NotImplemented
        if f.deg == 1:
            return f.table[(self.val - other.val) % f.p]
        p = f.p
        return FFElement(f, tuple((a - b) % p for a, b in zip(self.val, other.val)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        f = self.field
        if f.deg == 1:
            return f.table[(-self.val) % f.p]
        p = f.p
        return FFElement(f, tuple((-a) % p for a in self.val))

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            other = f.from_int(other)
        if not isinstance(other, FFElement) or other.field is not f:
            return NotImplemented
        if f.deg == 1:
            return f.table[(self.val * other.val) % f.p]
        prod = _ipoly_rem(_ipoly_mul(self.val, other.val, f.p), f.modulus, f.p)
        prod = prod + [0] * (f.deg - len(prod))
        return FFElement(f, tuple(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise NotInvertible("division by zero in a finite field")
        # Fermat: x^(q-2) is the inverse of every nonzero x in F_q
        if f.deg == 1:
            return f.table[pow(self.val, f.p - 2, f.p)]
        inv = _ipoly_powmod(list(self.val), f.q - 2, list(f.modulus), f.p)
        return FFElement(f, tuple(inv + [0] * (f.deg - len(inv))))

    def is_zero(self):
        if self.field.deg == 1:
            return self.val == 0
        return all(c == 0 for c in self.val)

    def __bool__(self):
        return self.val != 0 if self.field.deg == 1 else any(self.val)

    def __eq__(self, other):
        if isinstance(other, int):
            # an int is equal only as its canonical residue 0..p-1, the one
            # int whose hash agrees
            if not 0 <= other < self.field.p:
                return False
            other = self.field.from_int(other)
        if not isinstance(other, FFElement):
            return NotImplemented  # rings over this field compare their constants
        return other.field is self.field and other.val == self.val

    def __hash__(self):
        # a prime-field constant hashes like the int it equals
        if self.field.deg == 1:
            return hash(self.val)
        return hash(self.val[0] if not any(self.val[1:]) else self.val)

    def __repr__(self):
        if self.field.deg == 1:
            return str(self.val)
        name = "g"
        terms = []
        for i, c in enumerate(self.val):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{name}" if c != 1 else name)
            else:
                terms.append(f"{c}*{name}^{i}" if c != 1 else f"{name}^{i}")
        return " + ".join(terms) if terms else "0"


class PrimeField:
    """F_q for an odd prime power q.  Instances are cached, so field
    identity can be tested with ``is``."""

    _cache: dict = {}

    def __new__(cls, q: int):
        return _interned(cls, q)

    def __init__(self, q: int):
        if getattr(self, "_ready", False):
            return
        p, k = _factor_prime_power(q)
        if p == 2:
            raise BadParameters("even characteristic is not supported")
        self.q = q
        self.p = p
        self.deg = k
        self.char = p
        self.modulus = _find_modulus(p, k) if k > 1 else None
        self.is_field = True
        if k == 1:
            # the p elements, indexed by residue; every prime-field result is
            # one of them, so arithmetic allocates nothing
            self.table = tuple(FFElement(self, v) for v in range(p))
            self.zero, self.one = self.table[0], self.table[1]
        else:
            self.zero = FFElement(self, (0,) * k)
            self.one = FFElement(self, (1,) + (0,) * (k - 1))
        self._ready = True

    def from_int(self, c: int) -> FFElement:
        if self.deg == 1:
            return self.table[c % self.p]
        return FFElement(self, (c % self.p,) + (0,) * (self.deg - 1))

    def coerce(self, x) -> FFElement:
        if isinstance(x, FFElement) and x.field is self:
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_int(x.numerator) / self.from_int(x.denominator)
        raise RingUnsupported(f"cannot coerce {x!r} into F_{self.q}")

    def is_unit(self, x: FFElement) -> bool:
        return not x.is_zero()

    def elements(self):
        if self.deg == 1:
            yield from self.table
            return
        for code in range(self.q):
            yield FFElement(self, tuple(_digits(code, self.p, self.deg)))

    def random(self, rng) -> FFElement:
        if self.deg == 1:
            return self.table[rng.randrange(self.p)]
        return FFElement(self, tuple(rng.randrange(self.p) for _ in range(self.deg)))

    def __repr__(self):
        return f"PrimeField({self.q})"


# ---------------------------------------------------------------------------
# dense univariate polynomials over any coefficient ring (coefficient tuples,
# ascending degree, trailing zeros stripped, () is the zero polynomial)
# ---------------------------------------------------------------------------

def poly_trim(c):
    n = len(c)
    while n and c[n - 1].is_zero():
        n -= 1
    return tuple(c[:n])


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] = out[i] + bi
    return poly_trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b, field):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return poly_trim(out)


def poly_scale(a, c):
    return poly_trim(tuple(c * ai for ai in a))


def poly_eval(a, x, zero):
    acc = zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_valuation(a):
    for i, c in enumerate(a):
        if not c.is_zero():
            return i
    return INF


def poly_str(a, var):
    if not a:
        return "0"
    terms = []
    for i, c in enumerate(a):
        if c.is_zero():
            continue
        if i == 0:
            terms.append(repr(c))
        else:
            head = "" if c == c.field.one else f"{c!r}*"
            terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(terms)


def series_quotient(a, b, nterms, zero):
    """The first nterms coefficients of the power series a/b, for ascending
    coefficient sequences a and b with b[0] invertible."""
    inv0 = b[0].inverse()
    out = []
    for i in range(nterms):
        acc = a[i] if i < len(a) else zero
        for j in range(1, min(i, len(b) - 1) + 1):
            acc = acc - b[j] * out[i - j]
        out.append(acc * inv0)
    return out


# ---------------------------------------------------------------------------
# rational function fields k(v)
# ---------------------------------------------------------------------------

def _reduce_mod_p(field, num, den):
    """Canonical form of num/den, lists of residues mod p: coprime, monic
    denominator, as tuples of the prime field's interned elements."""
    p, table = field.p, field.table
    _ipoly_trim(num)
    _ipoly_trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (field.one,)
    if len(den) > 1 and not any(den[:-1]):
        # den = c*v^d, so the gcd is v^k with k = min(d, valuation of num)
        k = min(len(den) - 1, next(i for i, c in enumerate(num) if c))
        num, den = num[k:], den[k:]
    elif len(den) > 1:
        g = _ipoly_gcd(num, den, p)
        if len(g) > 1:
            num = _ipoly_divmod(num, g, p)[0]
            den = _ipoly_divmod(den, g, p)[0]
    inv = pow(den[-1], p - 2, p)
    if inv != 1:
        num = [c * inv % p for c in num]
        den = [c * inv % p for c in den]
    return tuple([table[c] for c in num]), tuple([table[c] for c in den])


class RationalFunction:
    """Element of a FunctionField, kept in canonical form: numerator and
    denominator coprime, denominator monic.  Equality is structural.  The
    arithmetic runs on residues mod p (_reduce_mod_p); a zero operand costs
    no polynomial work."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den, reduce=True):
        if reduce:
            num, den = _reduce_mod_p(ring.base, [c.val for c in num],
                                     [c.val for c in den])
        self.ring = ring
        self.num = num
        self.den = den

    def _coerced(self, other):
        if isinstance(other, RationalFunction) and other.ring is self.ring:
            return other
        if isinstance(other, (int, FFElement)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        base = self.ring.base
        p = base.p
        an, bn = [c.val for c in self.num], [c.val for c in o.num]
        den = [c.val for c in self.den]
        if self.den != o.den:
            bd = [c.val for c in o.den]
            an, bn = _ipoly_mul(an, bd, p), _ipoly_mul(bn, den, p)
            den = _ipoly_mul(den, bd, p)
        num = [(x + y) % p for x, y in zip_longest(an, bn, fillvalue=0)]
        return RationalFunction(self.ring, *_reduce_mod_p(base, num, den), reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.ring, poly_neg(self.num), self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        if not self.num or not o.num:
            return ring.zero
        base = ring.base
        p = base.p
        num = _ipoly_mul([c.val for c in self.num], [c.val for c in o.num], p)
        den = _ipoly_mul([c.val for c in self.den], [c.val for c in o.den], p)
        return RationalFunction(ring, *_reduce_mod_p(base, num, den), reduce=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self):
        if self.is_zero():
            raise NotInvertible("division by zero rational function")
        # den/num is already coprime; only the new denominator needs scaling
        c = self.num[-1].inverse()
        return RationalFunction(self.ring, poly_scale(self.den, c),
                                poly_scale(self.num, c), reduce=False)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int) and not 0 <= other < self.ring.char:
            return False
        o = self._coerced(other) if not isinstance(other, RationalFunction) else other
        return (isinstance(o, RationalFunction) and o.ring is self.ring
                and o.num == self.num and o.den == self.den)

    def __hash__(self):
        # a constant hashes like the base-field element and the int it equals
        if len(self.num) <= 1 and len(self.den) == 1:
            return hash(self.num[0]) if self.num else hash(0)
        return hash((self.num, self.den))

    def valuation(self):
        """Order of vanishing at v = 0 (INF for the zero element)."""
        if self.is_zero():
            return INF
        return poly_valuation(self.num) - poly_valuation(self.den)

    def shift(self, e: int):
        """self * v^e, moving the power of v without a product or gcd."""
        if not self.num:
            return self
        vn, vd = poly_valuation(self.num), poly_valuation(self.den)
        e += vn - vd
        pad = (self.ring.base.zero,) * abs(e)
        return RationalFunction(self.ring, pad * (e > 0) + self.num[vn:],
                                pad * (e < 0) + self.den[vd:], reduce=False)

    def sigma(self):
        """Substitute v -> -v (the order-two twist of k(v) over k(v^2))."""
        flip = lambda p: tuple(c if i % 2 == 0 else -c for i, c in enumerate(p))
        return RationalFunction(self.ring, flip(self.num), flip(self.den))

    def evaluate(self, x):
        """Evaluate at a base-field element x; the denominator must not
        vanish there."""
        zero = x - x
        den = poly_eval(self.den, x, zero)
        if den.is_zero():
            raise NotInvertible("denominator vanishes at the evaluation point")
        return poly_eval(self.num, x, zero) / den

    def is_integral(self):
        """True when regular at v = 0 (lies in the local ring at v)."""
        return self.is_zero() or self.valuation() >= 0

    def truncate_below(self, a: int):
        """Laurent expansion at v = 0 truncated to exponents < a, returned as
        a RationalFunction (a Laurent polynomial)."""
        if self.is_zero():
            return self
        v = self.valuation()
        if v >= a:
            return self.ring.zero
        series = series_quotient(self.num[poly_valuation(self.num):],
                                 self.den[poly_valuation(self.den):],
                                 a - v, self.ring.base.zero)
        return self.ring.laurent(dict(enumerate(series, start=v)))

    def laurent_coeffs(self):
        """Return (minexp, coefficient tuple) when self is a Laurent
        polynomial, i.e. the denominator is a power of v."""
        if self.is_zero():
            return 0, ()
        vd = poly_valuation(self.den)
        if len(self.den) - 1 != vd:
            raise RingUnsupported("not a Laurent polynomial")
        return -vd + poly_valuation(self.num), poly_trim(self.num[poly_valuation(self.num):])

    def __repr__(self):
        v = self.ring.var
        if self.den == (self.ring.base.one,):
            return poly_str(self.num, v)
        return f"({poly_str(self.num, v)})/({poly_str(self.den, v)})"


class FunctionField:
    """k(v): rational functions in one variable over a prime field k = F_p.
    Every k(v) the package builds is over F_3, F_5 or F_7, and the
    arithmetic runs on residues mod p, so an extension field is refused."""

    _cache: dict = {}

    def __new__(cls, base: PrimeField, var: str = "u"):
        if not isinstance(base, PrimeField) or base.deg != 1:
            raise RingUnsupported(f"k(v) is built over a prime field, not {base!r}")
        return _interned(cls, (id(base), var))

    def __init__(self, base: PrimeField, var: str = "u"):
        if getattr(self, "_ready", False):
            return
        self.base = base
        self.var = var
        self.char = base.char
        self.is_field = True
        self.zero = RationalFunction(self, (), (base.one,), reduce=False)
        self.one = RationalFunction(self, (base.one,), (base.one,), reduce=False)
        self.gen = RationalFunction(self, (base.zero, base.one), (base.one,), reduce=False)
        self._ready = True

    def from_int(self, c: int):
        return self.coerce(self.base.from_int(c))

    def coerce(self, x):
        if isinstance(x, RationalFunction) and x.ring is self:
            return x
        if isinstance(x, int):
            x = self.base.from_int(x)
        if isinstance(x, FFElement) and x.field is self.base:
            if x.is_zero():
                return self.zero
            return RationalFunction(self, (x,), (self.base.one,), reduce=False)
        raise RingUnsupported(f"cannot coerce {x!r} into {self!r}")

    def from_coeffs(self, coeffs):
        """Polynomial from ascending base-field (or int) coefficients."""
        cs = tuple(self.base.coerce(c) for c in coeffs)
        return RationalFunction(self, poly_trim(cs), (self.base.one,), reduce=False)

    def laurent(self, exp_to_coeff: dict):
        """Laurent polynomial from an {exponent: coefficient} mapping."""
        if not exp_to_coeff:
            return self.zero
        lo = min(exp_to_coeff)
        hi = max(exp_to_coeff)
        shift = max(0, -lo)
        num = [self.base.zero] * (hi + shift + 1)
        for e, c in exp_to_coeff.items():
            num[e + shift] = self.base.coerce(c)
        den = [self.base.zero] * shift + [self.base.one]
        return RationalFunction(self, tuple(num), tuple(den))

    def monomial(self, e: int, coeff=1):
        return self.laurent({e: coeff})

    def is_unit(self, x) -> bool:
        return not x.is_zero()

    def random_poly(self, rng, maxdeg: int):
        return self.from_coeffs([self.base.random(rng) for _ in range(maxdeg + 1)])

    def __repr__(self):
        return f"FunctionField(F_{self.base.q}, {self.var!r})"


# ---------------------------------------------------------------------------
# truncated power series k[v]/(v^N) and dual numbers
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Element of k[v]/(v^N), stored as exactly N coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def _coerced(self, other):
        if isinstance(other, TruncatedSeries) and other.ring is self.ring:
            return other
        if isinstance(other, (int, FFElement)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return TruncatedSeries(self.ring, (a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, (-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        N = self.ring.N
        base = self.ring.base
        out = [base.zero] * N
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(N - i):
                b = o.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self):
        if self.coeffs[0].is_zero():
            raise NotInvertible("series with zero constant term has no inverse")
        base = self.ring.base
        return TruncatedSeries(self.ring, series_quotient(
            (base.one,), self.coeffs, self.ring.N, base.zero))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int) and not 0 <= other < self.ring.char:
            return False
        o = self._coerced(other) if not isinstance(other, TruncatedSeries) else other
        return (isinstance(o, TruncatedSeries) and o.ring is self.ring
                and o.coeffs == self.coeffs)

    def __hash__(self):
        # a constant hashes like the base-field element and the int it equals
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return INF

    def sigma(self):
        return TruncatedSeries(self.ring,
                               (c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def residue(self):
        """Constant term, the image in the residue field."""
        return self.coeffs[0]

    def __repr__(self):
        s = poly_str(poly_trim(self.coeffs), self.ring.var)
        return f"{s} (mod {self.ring.var}^{self.ring.N})"


class SeriesRing:
    """k[v]/(v^N).  Local: units are exactly the series with nonzero
    constant term, nilpotents exactly the multiples of v."""

    _cache: dict = {}

    def __new__(cls, base, var="u", N=4):
        return _interned(cls, (id(base), var, N))

    def __init__(self, base: PrimeField, var: str = "u", N: int = 4):
        if getattr(self, "_ready", False):
            return
        if N < 1:
            raise BadParameters("truncation order must be >= 1")
        self.base = base
        self.var = var
        self.N = N
        self.char = base.char
        self.is_field = False
        self.zero = TruncatedSeries(self, (base.zero,) * N)
        self.one = TruncatedSeries(self, (base.one,) + (base.zero,) * (N - 1))
        self.gen = TruncatedSeries(
            self, (base.zero, base.one) + (base.zero,) * (N - 2)) if N >= 2 else self.zero
        self._ready = True

    def from_int(self, c: int):
        return self.coerce(self.base.from_int(c))

    def coerce(self, x):
        if isinstance(x, TruncatedSeries) and x.ring is self:
            return x
        if isinstance(x, int):
            x = self.base.from_int(x)
        if isinstance(x, FFElement) and x.field is self.base:
            return TruncatedSeries(self, (x,) + (self.base.zero,) * (self.N - 1))
        raise RingUnsupported(f"cannot coerce {x!r} into {self!r}")

    def from_coeffs(self, coeffs):
        cs = [self.base.coerce(c) for c in coeffs][: self.N]
        cs += [self.base.zero] * (self.N - len(cs))
        return TruncatedSeries(self, cs)

    def is_unit(self, x) -> bool:
        return not x.coeffs[0].is_zero()

    def random(self, rng):
        return TruncatedSeries(self, tuple(self.base.random(rng) for _ in range(self.N)))

    def __repr__(self):
        return f"SeriesRing(F_{self.base.q}, {self.var!r}, N={self.N})"


def DualNumbers(base: PrimeField) -> SeriesRing:
    """k[eps]/(eps^2): the one SeriesRing(k, "eps", 2)."""
    return SeriesRing(base, "eps", 2)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

def _key_degrevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MultiPoly:
    """Sparse multivariate polynomial over a PrimeField.

    ``terms`` maps exponent tuples to nonzero coefficients.  Leading terms
    are taken in degrevlex.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, clean=True):
        if clean:
            terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self.ring = ring
        self.terms = terms

    def _coerced(self, other):
        if isinstance(other, MultiPoly) and other.ring is self.ring:
            return other
        if isinstance(other, (int, FFElement)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(self.ring, out, clean=False)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()}, clean=False)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
                elif not c.is_zero():
                    out[e] = c
        return MultiPoly(self.ring, out, clean=False)

    __rmul__ = __mul__

    def scale(self, c):
        if c.is_zero():
            return self.ring.zero
        return MultiPoly(self.ring, {e: c * v for e, v in self.terms.items()}, clean=False)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and not 0 <= other < self.ring.char:
            return False
        o = self._coerced(other) if not isinstance(other, MultiPoly) else other
        return isinstance(o, MultiPoly) and o.ring is self.ring and o.terms == self.terms

    def __hash__(self):
        # a constant hashes like the base-field element and the int it equals
        if not self.terms or self.ring.is_unit(self):
            return hash(self.terms.get((0,) * self.ring.nvars, 0))
        return hash(frozenset(self.terms.items()))

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_key_degrevlex)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.lead_coeff().inverse())

    def substitute(self, mapping):
        """Substitute variables by MultiPolys of the same ring.

        ``mapping`` maps variable names to replacement polynomials; variables
        not mentioned stay themselves.
        """
        ring = self.ring
        images = []
        for i, name in enumerate(ring.names):
            if name in mapping:
                images.append(ring.coerce(mapping[name]))
            else:
                images.append(ring.gens[i])
        out = ring.zero
        for exps, coeff in self.terms.items():
            term = ring.coerce(coeff)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    def evaluate(self, values: dict):
        """Full evaluation; ``values`` maps every occurring variable name to a
        base-field element."""
        base = self.ring.base
        acc = base.zero
        for exps, coeff in self.terms.items():
            t = coeff
            for i, e in enumerate(exps):
                if e:
                    v = values[self.ring.names[i]]
                    for _ in range(e):
                        t = t * v
            acc = acc + t
        return acc

    def __repr__(self):
        return self.text()

    def text(self):
        """Canonical text form: terms in descending monomial order, each as a
        coefficient*var^k product with literal * and ^."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_key_degrevlex, reverse=True):
            c = self.terms[exps]
            factors = [repr(c)]
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class PolynomialRing:
    """k[x_1, ..., x_m] ordered by degrevlex, earlier names larger.

    Cached by (base, names) so that equal constructions hand back the
    identical ring object, like the other ring classes here.
    """

    _cache: dict = {}

    def __new__(cls, base: PrimeField, names):
        return _interned(cls, (id(base), tuple(names)))

    def __init__(self, base: PrimeField, names):
        if getattr(self, "_ready", False):
            return
        self.base = base
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise BadParameters("duplicate variable names")
        self.nvars = len(self.names)
        self.char = base.char
        self.is_field = False
        self.zero = MultiPoly(self, {}, clean=False)
        self.one = MultiPoly(self, {(0,) * self.nvars: base.one}, clean=False)
        self.gens = tuple(
            MultiPoly(self, {tuple(1 if j == i else 0 for j in range(self.nvars)): base.one},
                      clean=False)
            for i in range(self.nvars))
        self._gen_by_name = dict(zip(self.names, self.gens))
        self._ready = True

    def gen(self, name: str) -> MultiPoly:
        return self._gen_by_name[name]

    def from_int(self, c: int):
        return self.coerce(self.base.from_int(c))

    def coerce(self, x):
        if isinstance(x, MultiPoly) and x.ring is self:
            return x
        if isinstance(x, int):
            x = self.base.from_int(x)
        if isinstance(x, FFElement) and x.field is self.base:
            if x.is_zero():
                return self.zero
            return MultiPoly(self, {(0,) * self.nvars: x}, clean=False)
        raise RingUnsupported(f"cannot coerce {x!r} into {self!r}")

    def is_unit(self, x) -> bool:
        return len(x.terms) == 1 and (0,) * self.nvars in x.terms

    def monomial(self, name_to_exp: dict, coeff=1):
        exps = [0] * self.nvars
        for name, e in name_to_exp.items():
            exps[self.names.index(name)] = e
        c = self.base.coerce(coeff)
        if c.is_zero():
            return self.zero
        return MultiPoly(self, {tuple(exps): c}, clean=False)

    def __repr__(self):
        return f"PolynomialRing(F_{self.base.q}, {self.names}, 'degrevlex')"
