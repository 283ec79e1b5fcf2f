"""The earlier quadratic Hensel lift on IntPoly values, kept as the oracle of
the coefficient-list kernel in twistcert.polynomials. Each step works with
symmetric representatives mod m**2 and always updates s and t. Monic Hensel
lifts are unique, so both kernels must return the same factors at the same
target.
"""
from __future__ import annotations

from twistcert.polynomials import ONE, IntPoly, _gf_gcdex, _gf_mul, _sym


def hensel_step(m: int, f: IntPoly, g: IntPoly, h: IntPoly,
                s: IntPoly, t: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly]:
    """One quadratic Hensel step: lifts f = g*h (mod m) to mod m**2."""
    mm = m * m

    def trunc(p: IntPoly) -> IntPoly:
        return IntPoly(tuple(_sym(c, mm) for c in p.coeffs))

    e = trunc(f - g * h)
    q, r = (e * s).monic_divmod(h)
    g1 = trunc(g + e * t + q * g)
    h1 = trunc(h + r)
    b = trunc(s * g1 + t * h1 - ONE)
    c, d = (s * b).monic_divmod(h1)
    s1 = trunc(s - d)
    t1 = trunc(t - t * b - c * g1)
    return g1, h1, s1, t1


def hensel_lift(f: IntPoly, mod_factors: list[list[int]], p: int,
                bound: int) -> tuple[list[IntPoly], int]:
    """Factor-tree lift of the mod-p factors of monic f past bound."""
    target = p
    while target <= bound:
        target *= target

    def lift(f_int: IntPoly, parts: list[list[int]]) -> list[IntPoly]:
        if len(parts) == 1:
            return [f_int]
        half = len(parts) // 2
        g_mod = [1]
        for fac in parts[:half]:
            g_mod = _gf_mul(g_mod, fac, p)
        h_mod = [1]
        for fac in parts[half:]:
            h_mod = _gf_mul(h_mod, fac, p)
        s_mod, t_mod, one = _gf_gcdex(g_mod, h_mod, p)
        assert one == [1]
        g, h, s, t = (IntPoly(tuple(_sym(c, p) for c in v))
                      for v in (g_mod, h_mod, s_mod, t_mod))
        m = p
        while m < target:
            g, h, s, t = hensel_step(m, f_int, g, h, s, t)
            m *= m
        return lift(g, parts[:half]) + lift(h, parts[half:])

    return lift(f, mod_factors), target
