"""The exhaustive census in closed form, for the tests: nothing is
enumerated.

Let m = n/2 and let l = dim(G meet G-perp') be the dimension of the radical
of the alternating pairing on G, an s-dimensional subspace of the 2m-
dimensional symplectic space im(t).  A G is a totally isotropic radical R
together with a nondegenerate (s - l)-dimensional subspace of R-perp/R, so
(D. E. Taylor, *The Geometry of the Classical Groups*, 1992, for the
counts of isotropic subspaces and for |Sp(2k, q)|):

- #G(l) = I(m, l) |Sp(2(m-l))| / (|Sp(s-l)| |Sp(2(m-l)-(s-l))|), where
  I(m, l) = [m choose l]_q prod_{i<l} (q^(m-i) + 1) counts the radicals;
- the stratum (h, l) holds #G(l) q^(h(h-1)/2) [l choose h]_q points;
- the spin rejections number sum_{l>=1} #G(l) prod_{0<i<l} (q^i + 1);
- `examined` is sum_l #G(l) [s+l choose l]_q, the candidates F in the
  intervals [G + G-perp', preimage of G under t].

Each count is a polynomial in q.  ``degree`` gives the degree of a
stratum's count from the degrees of its factors.
"""

from splitmodel.points import StratumLabel


def q_binomial(a, b, q):
    """[a choose b]_q, the number of b-dimensional subspaces of F_q^a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return exact(num, den)


def exact(num, den):
    quotient, remainder = divmod(num, den)
    assert remainder == 0, f"{num} / {den} is not an integer"
    return quotient


def sp_order(dim, q):
    """|Sp(dim, q)| for even dim = 2k: q^(k^2) prod_{i=1..k} (q^(2i) - 1)."""
    k = dim // 2
    order = q ** (k * k)
    for i in range(1, k + 1):
        order *= q ** (2 * i) - 1
    return order


def radicals(m, l, q):
    """I(m, l): the totally isotropic l-dimensional subspaces of a
    2m-dimensional symplectic space."""
    count = q_binomial(m, l, q)
    for i in range(l):
        count *= q ** (m - i) + 1
    return count


def g_count(n, s, l, q):
    """#G(l): the s-dimensional subspaces of im(t) whose radical has
    dimension l."""
    m, k = n // 2, n // 2 - l
    return exact(radicals(m, l, q) * sp_order(2 * k, q),
                 sp_order(s - l, q) * sp_order(2 * k - (s - l), q))


def labels(s):
    """The labels (h, l) with 0 <= h <= l <= s and h = l = s mod 2; each
    has points once s <= n/2."""
    return [StratumLabel(h, l) for l in range(s % 2, s + 1, 2)
            for h in range(l % 2, l + 1, 2)]


def stratum_count(n, s, h, l, q):
    return (g_count(n, s, l, q) * q ** (h * (h - 1) // 2)
            * q_binomial(l, h, q))


def census_closed_form(n, s, q):
    """{"strata": {label: count}, "spin": rejections, "examined": count}
    of the exhaustive census (n, s, q), from the formulas above."""
    ls = range(s % 2, s + 1, 2)
    spin = 0
    for l in ls:
        if l >= 1:
            factor = 1
            for i in range(1, l):
                factor *= q ** i + 1
            spin += g_count(n, s, l, q) * factor
    return {"strata": {lab: stratum_count(n, s, *lab, q)
                       for lab in labels(s)},
            "spin": spin,
            "examined": sum(g_count(n, s, l, q) * q_binomial(s + l, l, q)
                            for l in ls)}


def degree(n, s, h, l):
    """The degree in q of the stratum (h, l)'s count: [a choose b]_q has
    degree b(a - b), |Sp(2k)| degree 2k^2 + k, q^(m-i) + 1 degree m - i."""
    m, k = n // 2, n // 2 - l

    def sp(dim):
        return 2 * (dim // 2) ** 2 + dim // 2

    radical = l * (m - l) + sum(m - i for i in range(l))
    g = radical + sp(2 * k) - sp(s - l) - sp(2 * k - (s - l))
    return g + h * (h - 1) // 2 + h * (l - h)


def assert_census_is_the_closed_form(result):
    """The exhaustive census result equals the closed form for its (n, s,
    q): strata, spin rejections and examined; no rank or splitting
    rejection; every other candidate an isotropy rejection."""
    params = result.params
    expected = census_closed_form(params["n"], params["s"], params["q"])
    rejected = result.rejected
    assert result.strata == expected["strata"]
    assert params["examined"] == expected["examined"]
    assert rejected["spin"] == expected["spin"]
    assert rejected["rank"] == rejected["splitting-a"] == 0
    assert rejected["splitting-b"] == 0
    assert rejected["isotropy"] == (expected["examined"] - expected["spin"]
                                    - sum(expected["strata"].values()))
