"""The closed-form T1 coefficients and the kink-split B against mpmath.

A1, A2 under the constant and power(s) kernels and A3 under the constant
kernel are elementary: the integral of |t*(lam - t**alpha)| * t**k over
[0, 1] is 2*F(m) - F(1) with F(t) = lam*t**(k+2)/(k+2) -
t**(alpha+k+2)/(alpha+k+2) and m = lam**(1/alpha) the kink, evaluated here
at 50 digits.  B with the kink inside (0, 1) is, at every p, the sum of
its quadratures either side of it; it is checked against mpmath's
quadrature at 40 digits.

Worst cases on these grids: A2 1.4 eps (alpha 50, lam 0.1, and power(0.25)
at alpha 5, lam 0.5) and A3 3.5 eps (alpha 8.9, lam 0.9); A3 computed as
A1 - A2 read 26 eps at alpha 28, lam 0.  B is off by at most 3.2e-13
relative (alpha 0.1, lam 0.5, p 1.5), where the whole-interval quadrature
read 8.7e-15; both lie inside the engine's max(0.1*quad_tol,
10*quad_tol*B).
"""

import pytest

from phi_ineq.bounds import EvalParams, t1_coefficients, theorem1_bound
from phi_ineq.coefquad import coef_integral
from phi_ineq.convexity import PhiKernel
from phi_ineq.functions import registry
from phi_ineq.quadrature import QUAD_TOL

mp = pytest.importorskip("mpmath").mp

EPS = 2.0 ** -52
ALPHAS = tuple(0.05 * 1000.0 ** (i / 24) for i in range(25))  # log grid on [0.05, 50]
LAMS = (0.0, 0.1, 0.5, 0.9, 1.0)
CONST = PhiKernel.constant()


def _moment(k, alpha, lam):
    """int_0^1 |t*(lam - t**alpha)| * t**k dt at 50 digits, from the
    antiderivative on each side of the kink."""
    with mp.workdps(50):
        k, a, lam = mp.mpf(k), mp.mpf(alpha), mp.mpf(lam)

        def F(t):
            return lam * t ** (k + 2) / (k + 2) - t ** (a + k + 2) / (a + k + 2)

        m = lam ** (1 / a) if lam > 0 else mp.mpf(0)
        return 2 * F(m) - F(mp.mpf(1))


def _rel(got, want):
    with mp.workdps(50):
        return float(abs(mp.mpf(got) - want) / want)


def test_the_antiderivative_is_the_integral():
    # the reference above against mpmath's own quadrature, split at the kink
    for alpha, lam, k in ((0.07, 0.9, 1.0), (0.6, 0.3, 0.25), (3.0, 0.5, 0.0), (40.0, 0.3, 1.0)):
        with mp.workdps(40):
            a, lm, kk = mp.mpf(alpha), mp.mpf(lam), mp.mpf(k)
            quad = mp.quad(lambda t: abs(t * (lm - t ** a)) * t ** kk, [0, lm ** (1 / a), 1])
        assert _rel(quad, _moment(k, alpha, lam)) < 1e-30


@pytest.mark.parametrize("alpha", ALPHAS)
def test_closed_forms_within_a_few_eps(alpha):
    for lam in LAMS:
        _, a2, a3 = t1_coefficients(alpha, lam, CONST)
        a2_want = _moment(1.0, alpha, lam)
        assert _rel(a2, a2_want) <= 6 * EPS, ("A2 constant", lam)
        assert _rel(a3, _moment(0.0, alpha, lam) - a2_want) <= 6 * EPS, ("A3 constant", lam)
        for s in (0.25, 0.5, 1.0):
            # t * phi(t) = t**s under power(s)
            _, a2, _ = t1_coefficients(alpha, lam, PhiKernel.power(s))
            assert _rel(a2, _moment(s, alpha, lam)) <= 6 * EPS, (f"A2 power({s})", lam)


@pytest.mark.parametrize("alpha", (1e-9, 1e-6, 1e-3))
def test_a1_at_lambda_one_and_a_small_alpha(alpha):
    # A1 = alpha/(2*(alpha + 2)) there; A1 as (alpha*lam**(1 + 2/alpha) +
    # 1)/(alpha + 2) - lam/2 cancelled to 8.3e-8 relative at alpha 1e-9
    for kernel in (CONST, PhiKernel.power(0.5), PhiKernel.mt()):
        a1 = t1_coefficients(alpha, 1.0, kernel)[0]
        assert _rel(a1, _moment(0.0, alpha, 1.0)) <= 2 * EPS


def test_t1_bound_at_lambda_one_and_a_tiny_alpha():
    # t^2 on [0, 1] at x = 1/2: A2 + A3 = A1 under the constant kernel, so
    # the bound is 0.5**alpha * A1; it read 4.2e-8 relative off
    alpha = 1e-9
    fn = registry()["t^2"]
    params = EvalParams(fn.domain, x=0.5, lam=1.0, alpha=alpha, q=2.0)
    got = theorem1_bound(fn, params, CONST)
    with mp.workdps(50):
        want = mp.mpf(0.5) ** mp.mpf(alpha) * _moment(0.0, alpha, 1.0)
    assert _rel(got, want) <= 4 * EPS


@pytest.mark.parametrize("alpha", (1e200, 1e300))
def test_closed_forms_stay_finite_at_a_huge_alpha(alpha):
    # |t*(lam - t**alpha)| tends to lam*t: A2 -> lam/3, A3 -> lam/6
    for lam in (0.0, 0.5, 1.0):
        _, a2, a3 = t1_coefficients(alpha, lam, CONST)
        _, a2_power, _ = t1_coefficients(alpha, lam, PhiKernel.power(1.0))
        for got, want in ((a2, lam / 3.0), (a2_power, lam / 3.0), (a3, lam / 6.0)):
            assert got == pytest.approx(want, rel=1e-12, abs=2.0 / alpha)


def _b_mpmath(alpha, lam, p):
    with mp.workdps(40):
        a, lm, pe = mp.mpf(alpha), mp.mpf(lam), mp.mpf(p)
        return mp.quad(lambda t: abs(t * (lm - t ** a)) ** pe, [0, lm ** (1 / a), 1])


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.158, 0.5, 1.58, 5.0, 15.8, 50.0))
@pytest.mark.parametrize("p", (1.25, 1.5, 2.5, 3.0))
def test_kink_split_b_against_mpmath(alpha, p):
    for lam in (0.1, 0.5, 0.9):
        want = _b_mpmath(alpha, lam, p)
        got = coef_integral("B", alpha, lam, p=p)
        assert abs(got - float(want)) <= max(0.1 * QUAD_TOL, 10.0 * QUAD_TOL * float(want)), lam


def test_b_is_the_sum_of_its_pieces_at_the_kink():
    # the ledger's C1 and C2 pieces add up to B bit for bit
    alpha, lam, p = 0.1, 0.5, 1.5
    m = lam ** (1.0 / alpha)
    pieces = (coef_integral("B", alpha, lam, p=p, hi=m)
              + coef_integral("B", alpha, lam, p=p, lo=m))
    assert coef_integral("B", alpha, lam, p=p) == pieces
