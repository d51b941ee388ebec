"""Reference oracle for the attempt-count moments: the inclusion-exclusion
closed form in mpmath at the same working precision as the package's
stdlib ``decimal`` closed form, so the two can be compared bit for bit."""

from __future__ import annotations

import math

from mpmath import mp


def mp_closed_form_moments(p: float, n: int) -> tuple[float, float]:
    # Inclusion-exclusion closed forms for the mean and variance of the
    # maximum of n geometric variables.  The alternating binomial sums
    # cancel ~n bits, 1 - p must stay distinguishable from 1, and the
    # variance second - mean^2 cancels ~log2(1 / (1 - p)) bits when p is
    # close to 1, so the working precision covers all three.  The floor
    # adds no bit for p < 1/2; at p = 1, q = 0 and nothing cancels.
    prec = 70 + n + max(0, math.ceil(-math.log2(p)))
    if p < 1.0:
        prec += max(0, math.floor(-math.log2(1.0 - p)))
    with mp.workprec(prec):
        q = mp.one - mp.mpf(p)
        mean = mp.mpf(0)
        second = mp.mpf(0)
        for i in range(1, n + 1):
            qi = q**i
            denom = mp.one - qi
            term = mp.mpf(math.comb(n, i))
            if i % 2 == 0:
                term = -term
            mean += term / denom
            second += term * (mp.one + qi) / (denom * denom)
        variance = second - mean * mean
        return float(mean), max(float(variance), 0.0)
