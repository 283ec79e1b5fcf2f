"""Slow, independent references for the sparse fast paths.

- `row_form_product`: the transvection product applied row by row to every
  row of the matrix, one letter at a time, with no merging of runs.
- `verify_identities_dense`: the identity suite on dense certified matrices,
  multiplied and inverted as `SpMatrix` values and compared entry by entry.
- `match_root_pattern_dense`: root-pattern recognition from the dense
  difference M - I.
"""
from __future__ import annotations

from mod_oracle import add, scale
from twistcert.congruence import (
    IdentityCheck,
    IdentityReport,
    RootSpec,
    _chain_relation_check,
    _theta_word,
    d_matrix,
    d_prime_matrix,
    eval_gen_word,
    root_matrix,
    rotation_matrix,
    twist_gen,
)
from twistcert.matrices import IntMatrix, SpMatrix, symplectic_form
from twistcert.words import transvection


def transvect_rows(rows, u, w, e):
    """rows <- rows (I + e u w^T) in place: each row r <- r + e (r.u) w^T."""
    for r in rows:
        s = e * sum(r[k] * c for k, c in u)
        if s:
            for k, c in w:
                r[k] += s * c


def row_form_product(genus, letters):
    """M(x_1)^e_1 ... M(x_k)^e_k for (CurveLetter, exponent) pairs."""
    rows = [list(row) for row in IntMatrix.identity(2 * genus).rows]
    for letter, exponent in letters:
        transvect_rows(rows, *transvection(letter, genus), exponent)
    return SpMatrix(IntMatrix(tuple(map(tuple, rows))))


def _matrix_diff(lhs, rhs):
    diff = add(lhs.m, scale(rhs.m, -1))
    return f"difference rows {diff.rows}"


def _commutator(p, q):
    return p @ q @ p.inverse() @ q.inverse()


def verify_identities_dense(genus):
    if genus < 2:
        raise ValueError("genus must be >= 2")
    g = genus
    checks = []

    def check(name, lhs, rhs):
        ok = lhs == rhs
        checks.append(IdentityCheck(name, ok, "" if ok else _matrix_diff(lhs, rhs)))

    for i in range(1, g + 1):
        check(f"v_equals_a_twist[i={i}]", root_matrix(RootSpec("V", i), g),
              twist_gen("A", i, g))
        check(f"w_equals_b_twist_inverse[i={i}]", root_matrix(RootSpec("W", i), g),
              twist_gen("B", i, g).inverse())
    d = {i: d_matrix(i, g) for i in range(1, g)}
    d_inv = {i: m.inverse() for i, m in d.items()}
    for i in range(1, g):
        check(f"x_up_base[i={i}]", d[i], root_matrix(RootSpec("X", i, i + 1, 2), g))
    for i in range(2, g + 1):
        check(f"x_down_base[i={i}]", d_prime_matrix(i, g),
              root_matrix(RootSpec("X", i, i - 1, -2), g))
    for j in range(1, g):
        for ell in range(1, g):
            if not j < j + ell <= g - 1:
                continue
            lhs = _commutator(
                root_matrix(RootSpec("X", j, j + ell, 2 ** ell), g),
                root_matrix(RootSpec("X", j + ell, j + ell + 1, 2), g))
            check(f"x_up_step[j={j},l={ell}]", lhs,
                  root_matrix(RootSpec("X", j, j + ell + 1, 2 ** (ell + 1)), g))
    for j in range(2, g + 1):
        for ell in range(1, g):
            if not 2 <= j - ell < j or j - ell - 1 < 1:
                continue
            lhs = _commutator(
                root_matrix(RootSpec("X", j, j - ell, 2 ** ell), g),
                root_matrix(RootSpec("X", j - ell, j - ell - 1, 2), g))
            check(f"x_down_step[j={j},l={ell}]", lhs,
                  root_matrix(RootSpec("X", j, j - ell - 1, 2 ** (ell + 1)), g))
    for k in range(2, g + 1):
        lhs = _commutator(root_matrix(RootSpec("V", k), g), d_inv[k - 1])
        lhs = lhs @ root_matrix(RootSpec("V", k - 1, t=4), g)
        check(f"z_base[k={k}]", lhs, root_matrix(RootSpec("Z", k - 1, k, 2), g))
    for k in range(3, g + 1):
        for ell in range(2, k):
            lhs = _commutator(
                root_matrix(RootSpec("Z", k - ell + 1, k, 2 ** (ell - 1)), g),
                d_inv[k - ell])
            check(f"z_step[k={k},l={ell}]", lhs,
                  root_matrix(RootSpec("Z", k - ell, k, 2 ** ell), g))

    theta = eval_gen_word(_theta_word(g))
    check("rotations_give_form_matrix", theta, SpMatrix(symplectic_form(g)))
    for jj in range(1, g + 1):
        for kk in range(jj + 1, g + 1):
            lhs = theta @ root_matrix(RootSpec("Z", jj, kk), g).inverse() @ theta.inverse()
            check(f"y_from_z_conjugation[j={jj},k={kk}]", lhs,
                  root_matrix(RootSpec("Y", jj, kk), g))
    for i in range(1, g + 1):
        rot = rotation_matrix(i, g)
        expected = IntMatrix.from_unit_entries(2 * g, {
            (i, i): -1, (g + i, g + i): -1,
            (g + i, i): -1, (i, g + i): 1,
        })
        check(f"quarter_turn[i={i}]", rot, SpMatrix(expected))

    for i in range(1, g):
        checks.append(_chain_relation_check(i, g))

    return IdentityReport(genus, tuple(checks))


def match_root_pattern_dense(m):
    """The root spec whose displayed matrix has the entry pattern of M - I,
    or None; a pattern whose indices no spec accepts (X_{j,j}) is None."""
    spec = _root_pattern_dense(m)
    if spec is None:
        return None
    try:
        spec.validate(m.genus)
    except ValueError:
        return None
    return spec


def _root_pattern_dense(m):
    g = m.genus
    n = 2 * g
    delta = add(m.m, scale(IntMatrix.identity(n), -1))
    nonzero = [(r + 1, c + 1, x) for r, row in enumerate(delta.rows)
               for c, x in enumerate(row) if x]
    if len(nonzero) == 1:
        r, c, t = nonzero[0]
        if c == g + r:
            return RootSpec("V", r, t=t)
        if r == g + c:
            return RootSpec("W", c, t=t)
        return None
    if len(nonzero) != 2:
        return None
    (r1, c1, t1), (r2, c2, t2) = nonzero
    if r1 <= g and c1 <= g and (r2, c2) == (g + c1, g + r1) and t2 == -t1:
        return RootSpec("X", r1, c1, t1)
    if r1 <= g and c1 > g and (r2, c2) == (c1 - g, g + r1) and t2 == t1 and r1 < c1 - g:
        return RootSpec("Z", r1, c1 - g, t1)
    if r1 > g and c1 <= g and (r2, c2) == (g + c1, r1 - g) and t2 == t1 and r1 - g < c1:
        return RootSpec("Y", r1 - g, c1, t1)
    return None
