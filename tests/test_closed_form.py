"""The exhaustive census against its closed form (tests/closed_form.py),
which enumerates nothing, and stratum_dimension against the degrees of
the closed-form counts.  The slow censuses 6/2/3 and 6/3/3 are compared
with the closed form where they run, in test_points.py and test_walker.py.
"""

import pytest

from closed_form import (assert_census_is_the_closed_form, degree, labels,
                         stratum_count)
from splitmodel.degenerations import ClosurePoset
from splitmodel.points import census, stratum_dimension


@pytest.mark.parametrize("n, s, q", [(4, 1, 3), (4, 1, 5), (4, 1, 7),
                                     (4, 2, 3), (4, 2, 5), (4, 2, 7),
                                     (6, 1, 3)])
def test_census_is_the_closed_form(n, s, q):
    assert_census_is_the_closed_form(census(n, s, q))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_stratum_dimension_is_the_degree_of_the_count(n):
    # the degree comes from the factors' degrees; evaluated at Q = 2^64 the
    # count is Q^d (1 + O(1/Q)), so its degree is d and its leading
    # coefficient 1.  By Lang-Weil each top-dimensional stratum (h = l,
    # dimension rs) then contributes one geometric component, and there
    # are s/2 + 1 of them at even s, (s + 1)/2 at odd s: the closure-
    # maximal count of the poset, one more than the s/2 quoted at even s
    Q = 2 ** 64
    for s in range(1, n // 2 + 1):
        top = 0
        for h, l in labels(s):
            d = degree(n, s, h, l)
            assert d == stratum_dimension(n - s, s, h, l)
            assert abs(stratum_count(n, s, h, l, Q) - Q ** d) < Q ** d >> 32
            top += d == (n - s) * s
        expected = s // 2 + 1 if s % 2 == 0 else (s + 1) // 2
        assert top == expected == ClosurePoset(s).component_count()
