"""The trace-polynomial route of factor_over_Z, the coefficient-list Hensel
lift and the cached cyclotomic orders against independent references: the
generic Zassenhaus route on the same body, the brute-force search up to
degree 8, products built from known irreducible pieces, the earlier IntPoly
Hensel kernel and the plain phi scan."""
import gc
import math
import random
import time

import twistcert.polynomials as polynomials
from twistcert.certify import sample_t_word
from twistcert.polynomials import (
    ONE,
    IntPoly,
    _factor_generic,
    _factor_through_trace,
    _from_trace,
    _gf_factor_squarefree,
    _gf_from_poly,
    _hensel_lift,
    _mignotte_bound,
    _orders_of_degree,
    _squarefree_prime,
    _strip_unit_roots,
    _trace_polynomial,
    canonical_factor_order,
    charpoly,
    cyclotomic_index,
    cyclotomic_polynomial,
    euler_phi,
    factor_over_Z,
    is_reciprocal,
)
from twistcert.words import eval_word

from brute_force_factor import factor_over_Z_bruteforce
from hensel_oracle import hensel_lift
from test_pa_factor_once import built_products, family_charpolys

X4_MINUS_11X2_PLUS_1 = IntPoly((1, 0, -11, 0, 1))   # (x^2 + 3x - 1)(x^2 - 3x - 1)


def generic_route(body: IntPoly) -> tuple[IntPoly, ...]:
    return canonical_factor_order(_factor_generic(body, random.Random(0)))


def trace_route(body: IntPoly) -> tuple[IntPoly, ...]:
    return canonical_factor_order(_factor_through_trace(body, random.Random(0)))


def squarefree_bodies(polys):
    """The palindromic bodies (x, x - 1, x + 1 divided out) of reciprocal
    polys that some prime keeps squarefree."""
    out = []
    for p in polys:
        body = _strip_unit_roots(p)[0]
        if body.degree > 0 and _squarefree_prime(body) is not None:
            assert is_reciprocal(body) and body.degree % 2 == 0, str(p)
            out.append(body)
    return out


def spy(monkeypatch, name) -> list:
    calls = []
    real = getattr(polynomials, name)

    def record(f, *args):
        calls.append(f)
        return real(f, *args)

    monkeypatch.setattr(polynomials, name, record)
    return calls


def star(f: IntPoly) -> IntPoly:
    """The reversal of f, sign-normalized to monic."""
    rev = f.reversed_poly()
    return -rev if rev.coeffs[-1] < 0 else rev


def test_trace_map_round_trips():
    rng = random.Random(1201)
    assert _trace_polynomial(X4_MINUS_11X2_PLUS_1) == IntPoly((-13, 0, 1))
    assert _trace_polynomial(IntPoly((1, -3, 1))) == IntPoly((-3, 1))
    assert _from_trace(IntPoly((-3, 1))) == IntPoly((1, -3, 1))
    for _ in range(200):
        d = rng.randint(1, 20)
        half = [rng.randint(-50, 50) for _ in range(d)]
        f = IntPoly(tuple([1] + half + half[-2::-1] + [1]))
        assert is_reciprocal(f) and f.degree == 2 * d
        q = _trace_polynomial(f)
        assert q.degree == d and q.is_monic()
        assert _from_trace(q) == f
        r = IntPoly(tuple(rng.randint(-50, 50) for _ in range(d)) + (1,))
        assert _trace_polynomial(_from_trace(r)) == r


def test_trace_route_matches_generic_route_on_family_chi():
    bodies = squarefree_bodies(family_charpolys())
    # of the other 10, 8 have a squared factor and 2 are powers of x - 1, x + 1
    assert len(bodies) == 110
    small = 0
    for body in bodies:
        factors = trace_route(body)
        assert factors == generic_route(body), str(body)
        # the brute force takes up to 35 s on one degree-8 family body;
        # the built products below reach degree 8 with smaller coefficients
        if body.degree <= 6:
            assert factors == factor_over_Z_bruteforce(body), str(body)
            small += 1
    assert small == 56


def test_split_pairs_take_the_fallback(monkeypatch):
    calls = spy(monkeypatch, "_factor_generic")
    rng = random.Random(1213)
    cases = [(X4_MINUS_11X2_PLUS_1, [IntPoly((-1, -3, 1)), IntPoly((-1, 3, 1))])]
    while len(cases) < 40:
        f = IntPoly((rng.choice((1, -1)),) + tuple(
            rng.randint(-6, 6) for _ in range(rng.randint(1, 3))) + (1,))
        if star(f) != f and factor_over_Z_bruteforce(f) == (f,):
            cases.append((f * star(f), [f, star(f)]))
    for p, pieces in cases:
        calls.clear()
        expected = canonical_factor_order(pieces)
        assert factor_over_Z(p) == expected, str(p)
        # q went to the generic route, then the whole f f*
        assert calls == [_trace_polynomial(p), p], str(p)
        assert trace_route(p) == generic_route(p) == factor_over_Z_bruteforce(p)
    # Phi_12 = x^4 - x^2 + 1 passes the square test (q = y^2 - 3 is -1 at
    # y = +-2) but is irreducible: the generic route returns it whole
    calls.clear()
    assert factor_over_Z(cyclotomic_polynomial(12)) == (cyclotomic_polynomial(12),)
    assert calls == [IntPoly((-3, 0, 1)), cyclotomic_polynomial(12)]


def reciprocal_pieces(rng):
    """Known irreducible reciprocal pieces and pairs (f, f*), no factor
    shared between two pieces."""
    pieces = [[cyclotomic_polynomial(n)] for n in range(3, 31) if euler_phi(n) <= 8]
    seen = {f for piece in pieces for f in piece}
    while len(pieces) < 40:
        r = IntPoly(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) + (1,))
        big = _from_trace(r)
        if big not in seen and factor_over_Z_bruteforce(big) == (big,):
            pieces.append([big])
            seen.add(big)
    while len(pieces) < 60:
        f = IntPoly((rng.choice((1, -1)),) + tuple(
            rng.randint(-4, 4) for _ in range(rng.randint(1, 3))) + (1,))
        if star(f) != f and f not in seen and factor_over_Z_bruteforce(f) == (f,):
            pieces.append([f, star(f)])
            seen |= {f, star(f)}
    return pieces


def test_reciprocal_products_with_cyclotomic_and_unit_root_factors(monkeypatch):
    rng = random.Random(1217)
    pieces = reciprocal_pieces(rng)
    x_minus_1, x_plus_1 = IntPoly((-1, 1)), IntPoly((1, 1))
    yun = spy(monkeypatch, "_squarefree_decomposition")
    for _ in range(150):
        factors = [f for piece in rng.sample(pieces, rng.randint(1, 4)) for f in piece]
        factors += [x_minus_1] * rng.choice((0, 2, 4)) + [x_plus_1] * rng.choice((0, 2))
        p = math.prod(factors, start=ONE)
        if p.degree > polynomials.DESK_DEGREE_BOUND:
            continue
        yun.clear()
        assert factor_over_Z(p) == canonical_factor_order(factors), str(p)
        assert not yun  # distinct pieces: the body is squarefree
        body = _strip_unit_roots(p)[0]
        assert trace_route(body) == generic_route(body)
        if p.degree <= 8:
            assert factor_over_Z(p) == factor_over_Z_bruteforce(p)
    for p in built_products():
        for body in squarefree_bodies([p]):
            assert trace_route(body) == generic_route(body), str(p)


def test_repeated_reciprocal_factor_stays_on_the_trace_route():
    # q = r^2 s gives body = R^2 S: no prime keeps q squarefree, and the
    # trace route maps each factor of q back with its multiplicity
    golden = IntPoly((1, -3, 1))
    phi12 = cyclotomic_polynomial(12)
    for pieces in ([golden] * 2, [golden] * 2 + [cyclotomic_polynomial(5)], [phi12] * 3):
        body = math.prod(pieces, start=ONE)
        assert _squarefree_prime(_trace_polynomial(body)) is None, str(body)
        assert trace_route(body) == factor_over_Z(body) == canonical_factor_order(pieces)


def test_no_body_prime_search_after_the_trace_search_fails(monkeypatch):
    # q = r^2 s mod p makes the body R^2 S mod p, so a body whose q no prime
    # keeps squarefree goes to Yun as q, and is itself never searched
    golden = IntPoly((1, -3, 1))
    phi12 = cyclotomic_polynomial(12)
    polys = family_charpolys() + [golden * golden, golden * golden * cyclotomic_polynomial(5),
                                  phi12 * phi12 * phi12]
    searched = spy(monkeypatch, "_squarefree_prime")
    yun = spy(monkeypatch, "_squarefree_decomposition")
    reached = 0
    for p in polys:
        body = _strip_unit_roots(p)[0]
        searched.clear()
        yun.clear()
        factor_over_Z(p)
        if yun:
            reached += 1
            q = _trace_polynomial(body)
            assert yun == [q] and searched[0] == q, str(p)
            assert q not in searched[1:] and body not in searched, str(p)
    assert reached == 8 + 3


def test_g6_family_chi_run_zassenhaus_on_half_degree_only(monkeypatch):
    calls = spy(monkeypatch, "_factor_squarefree_monic")
    yun = spy(monkeypatch, "_squarefree_decomposition")
    top, reached = 0, 0
    for chi in family_charpolys():
        if chi.degree != 12:
            continue
        calls.clear()
        yun.clear()
        factor_over_Z(chi)
        assert calls and max(f.degree for f in calls + yun) <= 6, str(chi)
        top = max(top, max(f.degree for f in calls))
        reached += bool(yun)
    assert top == 6
    assert reached > 0  # some degree-12 chi has a repeated factor


def test_repeated_factors_at_the_genus_cap_run_yun_on_q(monkeypatch):
    # seeded 3-block family chi at g = 28..30 times a squared reciprocal
    # piece, degree 60..64: Yun runs once, on q of degree <= 32, so all six
    # factor within a wall bound that the body-degree Yun route exceeds
    yun = spy(monkeypatch, "_squarefree_decomposition")
    rng = random.Random(2830)
    elapsed = 0.0
    for g in (28, 29, 30):
        chi = charpoly(eval_word(sample_t_word(g, 3, 3, rng)))
        expected = list(factor_over_Z(chi))
        for piece in (IntPoly((1, 7, 1)), IntPoly((1, -3, 1))):
            yun.clear()
            start = time.perf_counter()
            factors = factor_over_Z(chi * piece * piece)
            elapsed += time.perf_counter() - start
            assert factors == canonical_factor_order(expected + [piece, piece]), g
            assert len(yun) == 1 and yun[0].degree <= 32, g
    assert elapsed < 3.0


def lift_inputs():
    rng = random.Random(1223)
    polys = squarefree_bodies(family_charpolys())
    polys += [_trace_polynomial(b) for b in polys]
    while len(polys) < 300:
        polys.append(IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 16))) + (1,)))
    return polys


def test_list_lift_matches_intpoly_lift():
    rng = random.Random(1229)
    lifted = 0
    for f in lift_inputs():
        p = _squarefree_prime(f)
        if p is None:
            continue
        mod_factors = sorted(_gf_factor_squarefree(_gf_from_poly(f, p), p, rng),
                             key=lambda g: (len(g), g))
        if len(mod_factors) < 2:
            continue
        for bound in (p, p ** 3, 2 * _mignotte_bound(f)):
            factors, target = _hensel_lift(f, mod_factors, p, bound)
            assert (factors, target) == hensel_lift(f, mod_factors, p, bound), str(f)
            prod = math.prod(factors, start=ONE)
            assert all((a - b) % target == 0 for a, b in zip(prod.coeffs, f.coeffs))
        lifted += 1
    assert lifted >= 200


def phi_scan_index(f: IntPoly):
    """The earlier cyclotomic_index: scan n <= 2*deg^2 and compute phi(n)."""
    d = f.degree
    return next((n for n in range(1, 2 * d * d + 1)
                 if euler_phi(n) == d and cyclotomic_polynomial(n) == f), None)


def test_cyclotomic_index_matches_the_phi_scan():
    for d in range(25):
        orders = _orders_of_degree(d)
        assert orders == tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) == d)
        others = [IntPoly((2,) + (0,) * (d - 1) + (1,)) if d else IntPoly((3,))]
        for n in orders:
            phi_n = cyclotomic_polynomial(n)
            assert cyclotomic_index(phi_n) == phi_scan_index(phi_n) == n
            others.append(phi_n + IntPoly((1,)))
        for f in others:
            assert cyclotomic_index(f) is phi_scan_index(f) is None, str(f)


def test_factoring_leaves_no_reference_cycle():
    # the factor-tree lift is a module-level function, not a closure over
    # itself, so factoring leaves nothing for the cyclic collector
    chi = IntPoly((1, -3, 1)) * IntPoly((1, -4, 1)) * IntPoly((1, 1, 0, -1, 1))
    gc.collect()
    gc.disable()
    try:
        factors = factor_over_Z(chi)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(factors) == 3
