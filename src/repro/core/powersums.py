"""Closed forms for ``Σ_{v=L}^{U} z(v)`` (Section 4.1, generalized).

``sum_over_range`` sums a polynomial in ``v`` between polynomial bounds
using the Faulhaber telescoping identity

    Σ_{v=L}^{U} v**p  ==  F_p(U) - F_p(L-1)      (valid for all L <= U),

which replaces the paper's four-piece decomposition (implemented in
:mod:`repro.core.basic` and tested equal).  The result is valid exactly
when L <= U; the caller must guard with that constraint.

With ``z = Σ_p a_p·v**p`` and ``F_p(x) = Σ_k c_{p,k}·x**k`` the sum is
regrouped by powers of the bounds,

    Σ_k B_k·(U**k - (L-1)**k)      with   B_k = Σ_p c_{p,k}·a_p,

so each power of each bound is built once: O(degree) polynomial
products instead of one Faulhaber expansion per power of ``v``.
"""

from fractions import Fraction
from typing import Dict

from repro.intarith.bernoulli import faulhaber_coefficients
from repro.qpoly import Polynomial


def faulhaber_polynomial(p: int, x: Polynomial) -> Polynomial:
    """F_p composed with a polynomial argument: F_p(x)."""
    coeffs = faulhaber_coefficients(p)
    result = Polynomial()
    power = Polynomial.one
    for c in coeffs:
        if c:
            result = result + power * c
        power = power * x
    return result


def sum_over_range(
    z: Polynomial, var: str, lower: Polynomial, upper: Polynomial
) -> Polynomial:
    """Σ_{var=lower}^{upper} z, as a polynomial in the other atoms.

    ``lower`` and ``upper`` may have rational coefficients (they arise
    from floors pinned by stride constraints) but must evaluate to
    integers on the guarded domain; the result is exact whenever
    lower <= upper holds and both bounds are integral there.
    """
    weights: Dict[int, Polynomial] = {}
    for p, coeff in z.coefficients_in(var).items():
        for k, c in enumerate(faulhaber_coefficients(p)):
            if c:
                weights[k] = weights.get(k, Polynomial.zero) + coeff * c
    total = Polynomial()
    lower_minus_1 = lower - 1
    upper_k = lower_k = Polynomial.one
    for k in range(1, max(weights, default=0) + 1):
        upper_k = upper_k * upper
        lower_k = lower_k * lower_minus_1
        if k in weights:
            total = total + weights[k] * (upper_k - lower_k)
    return total


def count_range(lower: Polynomial, upper: Polynomial) -> Polynomial:
    """Σ_{v=lower}^{upper} 1 == upper - lower + 1 (guarded by L <= U)."""
    return upper - lower + Polynomial.one


def power_sum(p: int, n: Polynomial) -> Polynomial:
    """The classic Σ_{i=1}^{n} i**p of Section 4.1 (guard: 1 <= n)."""
    return faulhaber_polynomial(p, n)


def sum_affine_power(
    coeff: Fraction, var: str, p: int, lower: Polynomial, upper: Polynomial
) -> Polynomial:
    """Σ_{var=lower}^{upper} coeff·var**p (convenience wrapper)."""
    z = Polynomial({((var, p),): Fraction(coeff)})
    return sum_over_range(z, var, lower, upper)
