"""Independent oracles used to check the library against different routes.

Nothing here imports the package's computational paths: determinants come
from the Leibniz permutation expansion, Bernoulli numbers from the classical
binomial recurrence, the entire Coulomb factor from a direct complex
confluent-series product (and from mpmath's 35-digit 1F1, or 0F1 at eta = 0;
mpmath is a test-only dependency), the normalized Bessel function from its own
even power series, and the Coulomb and Rayleigh closed products from their
k-indexed form.  `series_sum_reference` keeps the evaluator's series sum with
its stop test decided term by term.
"""

from fractions import Fraction
from itertools import permutations
from math import comb


def leibniz_det(rows):
    """Permutation-expansion determinant; exact and O(n!)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def bernoulli_classical(n):
    """B_n by the binomial recurrence sum_{r<m} C(m+1, r) B_r = 0 (B_1 = -1/2)."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for r in range(m):
            acc += comb(m + 1, r) * values[r]
        values.append(-acc / (m + 1))
    return values[n]


def _k_product(L, eta, n, base_exp, shift_exp):
    """prod_{k=0}^{n-1} (2L+2n-2k+1)^-base_exp(k) (1 + eta^2/(L+n-k)^2)^shift_exp(k),
    the eta factors dropped when eta = 0."""
    L, eta = Fraction(L), Fraction(eta)
    out = Fraction(1)
    for k in range(n):
        out /= (2 * L + 2 * n - 2 * k + 1) ** base_exp(k)
        if eta != 0:
            out *= (1 + (eta / (L + n - k)) ** 2) ** shift_exp(k)
    return out


def det_coulomb_k_product(L, eta, n):
    """det H_n(L, eta) = prod_{k=0}^{n-1} (2L+2n-2k+1)^-(2k+1) (1 + eta^2/(L+n-k)^2)^(k+1)."""
    return _k_product(L, eta, n, lambda k: 2 * k + 1, lambda k: k + 1)


def dd_k_product(L, eta, n):
    """D_{n-1} D_n = 1/(2L+2n+3) (1 + eta^2/(L+n+1)^2)
    * prod_{k=0}^{n-1} (2L+2n-2k+1)^-(4k+4) (1 + eta^2/(L+n-k)^2)^(2k+3)."""
    L, eta = Fraction(L), Fraction(eta)
    lead = 1 / (2 * L + 2 * n + 3)
    if eta != 0:
        lead *= 1 + (eta / (L + n + 1)) ** 2
    return lead * _k_product(L, eta, n, lambda k: 4 * k + 4, lambda k: 2 * k + 3)


def rayleigh_k_product(nu, ell, n):
    """2^(-2n(n+ell)) prod_{k=1}^{2n+ell-1} (nu+k)^(k-2n-ell), the ell in {0,1} shape."""
    nu = Fraction(nu)
    out = Fraction(1, 2 ** (2 * n * (n + ell)))
    for k in range(1, 2 * n + ell):
        out *= (nu + k) ** (k - 2 * n - ell)
    return out


# classical Genocchi numbers G_2, G_4, ..., G_20
GENOCCHI_CLASSICAL = [-1, 1, -3, 17, -155, 2073, -38227, 929569, -28820619, 1109652905]


def sigma2_closed(nu):
    """sigma_2(nu) = 1/(4(nu+1))."""
    return Fraction(1, 4) / (Fraction(nu) + 1)


def sigma4_closed(nu):
    """sigma_4(nu) = 1/(16(nu+1)^2(nu+2))."""
    nu = Fraction(nu)
    return Fraction(1, 16) / ((nu + 1) ** 2 * (nu + 2))


def sigma6_from_convolution(nu):
    """sigma_6(nu) = 2 sigma_2 sigma_4 / (nu+3), the hand-expanded convolution step."""
    nu = Fraction(nu)
    return 2 * sigma2_closed(nu) * sigma4_closed(nu) / (nu + 3)


def phi_hyp1f1(L, eta, rho, terms=300):
    """e^(-i rho) 1F1(L+1-i eta; 2L+2; 2i rho) summed directly in complex doubles.

    The alternative evaluation route; loses accuracy past |rho| ~ 5, so only
    use it at moderate arguments.
    """
    import cmath

    a = complex(L + 1, -eta)
    b = complex(2 * L + 2)
    z = 2j * complex(rho)
    term = complex(1.0)
    total = complex(1.0)
    for k in range(terms):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) < 1e-18 * (1 + abs(total)) and k > abs(z):
            break
    return cmath.exp(-1j * complex(rho)) * total


def phi_mpmath(L, eta, rho):
    """e^(-i rho) 1F1(L+1-i eta; 2L+2; 2i rho) by mpmath at 35 digits, rounded to a complex.

    At eta = 0 it is 0F1(; L+3/2; -rho^2/4) (Kummer's second transformation),
    the form that stays defined where 2L+2 is a nonpositive integer.
    """
    import mpmath as mp

    with mp.workdps(35):
        rho = mp.mpc(rho)
        if eta == 0:
            return complex(mp.hyp0f1(mp.mpf(L) + 1.5, -rho**2 / 4))
        value = mp.e ** (-1j * rho) * mp.hyp1f1(
            mp.mpf(L) + 1 - 1j * mp.mpf(eta), 2 * mp.mpf(L) + 2, 2j * rho
        )
        return complex(value)


def phi_derivative_mpmath(L, eta, rho):
    """d/drho of `phi_mpmath`'s function by mpmath at 35 digits, rounded to a complex:
    -i phi + e^(-i rho) (a/b) 2i 1F1(a+1; b+1; 2i rho) with a = L+1-i eta, b = 2L+2,
    and at eta = 0 -rho/(2c) 0F1(; c+1; -rho^2/4) with c = L+3/2."""
    import mpmath as mp

    with mp.workdps(35):
        rho = mp.mpc(rho)
        if eta == 0:
            c = mp.mpf(L) + 1.5
            return complex(-rho / (2 * c) * mp.hyp0f1(c + 1, -rho**2 / 4))
        a, b = mp.mpf(L) + 1 - 1j * mp.mpf(eta), 2 * mp.mpf(L) + 2
        e = mp.e ** (-1j * rho)
        return complex(-1j * e * mp.hyp1f1(a, b, 2j * rho) + e * (a / b) * 2j * mp.hyp1f1(
            a + 1, b + 1, 2j * rho))


def bessel_normalized(nu, rho, terms=120):
    """Gamma(nu+1) (2/rho)^nu J_nu(rho) = sum_k (-1)^k (rho^2/4)^k / (k! (nu+1)_k)."""
    z = complex(rho) ** 2 / 4
    term = complex(1.0)
    total = complex(1.0)
    for k in range(terms):
        term *= -z / ((k + 1) * (nu + 1 + k))
        total += term
    return total


def dj_solution_formula(nu, ell, n, det):
    """Explicit solution of the Desnanot-Jacobi difference equation:

        d_n^(l+2) = d_{n+1}^(l) * ( s_{2l+6} / (s_{2l+2} s_{2l+6} - s_{2l+4}^2)
                                    + sum_{k=2}^{n} (d_k^(l+1))^2 / (d_k^(l) d_{k+1}^(l)) )

    fed by caller-supplied determinant values `det(ell, n)` and Rayleigh
    values from the closed sigma formulas where possible.
    """
    from czeta.zeta import rayleigh  # sigma values only; determinants come from `det`

    s22 = rayleigh(nu, ell + 1)
    s24 = rayleigh(nu, ell + 2)
    s26 = rayleigh(nu, ell + 3)
    acc = s26 / (s22 * s26 - s24**2)
    for k in range(2, n + 1):
        acc += det(ell + 1, k) ** 2 / (det(ell, k) * det(ell, k + 1))
    return det(ell, n + 1) * acc


class SeriesNoConvergence(Exception):
    """Raised by `series_sum_reference` where the library raises NoConvergence."""


def series_sum_reference(coeffs, L, eta, guard_tol, rho, tol, want_derivative):
    """The evaluator's series sum as it was before it found its first stop index
    once per sum: the shift j + 2L + 2 and the stop test are recomputed at every
    term.  coeffs are B_0 .. B_cap and guard_tol the evaluator's tolerance, which
    the cancellation guard reads; returns (phi, phi' or 0j)."""
    cap = len(coeffs) - 1
    rho = complex(rho)
    c = coeffs
    if rho == 0:
        return complex(1.0), complex(c[1])
    s = complex(1.0)
    comp = 0j
    s1 = complex(c[1]) if want_derivative else 0j
    comp1 = 0j
    power = complex(1.0)
    abs_rho = abs(rho)
    swing = 2 * abs(eta) * abs_rho + abs_rho * abs_rho
    twice_swing = 2 * swing
    t_prev = 1.0
    t_max = 1.0
    for j in range(1, cap + 1):
        power *= rho
        term = c[j] * power
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if want_derivative and j >= 2:
            dterm = (j * c[j]) * power / rho
            y1 = dterm - comp1
            t1 = s1 + y1
            comp1 = (t1 - s1) - y1
            s1 = t1
        t_cur = abs(term)
        if t_cur > t_max:
            t_max = t_cur
        shift = j + 2 * L + 2
        if shift > 0 and (j + 1) * shift >= twice_swing:
            last_two = t_prev if t_prev > t_cur else t_cur
            tail = 2 * last_two
            ok = tail <= tol * (1 + abs(s))
            if ok and want_derivative:
                dtail = 8 * last_two * (j + 2) / max(abs_rho, 1e-300)
                ok = dtail <= tol * (1 + abs(s1))
            if ok:
                if 2.3e-16 * t_max > 1e6 * guard_tol * (1 + abs(s)):
                    raise SeriesNoConvergence(
                        f"cancellation floor {2.3e-16 * t_max:.2e} exceeds "
                        f"the tolerance at rho = {rho}; |rho| too large for "
                        "double precision"
                    )
                return s, s1
        t_prev = t_cur
    raise SeriesNoConvergence(
        f"series for phi did not reach tol = {tol} within {cap} terms "
        f"at rho = {rho}"
    )
