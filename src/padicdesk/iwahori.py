"""Explicit matrices and congruence-subgroup combinatorics.

Matrices for a single GL_2n component are lists of rows.  The exact
identities (factorizations, orbit stabilizers, the coset witness, the twist
identity) are `ExactMatrix` products over Fraction; every residue check runs
on int rows mod m, through the one product `_mod_mul` and the one
conjugation `_conjugate` by the simple open-orbit form.  The depth-beta
Iwahori subgroup consists of matrices congruent to upper-triangular mod
p^beta with unit diagonal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .artinian import ArtinianElement
from .matrices import ExactMatrix, cycles, rational_inverse, row_reduce
from .rationals import valuation


# ---------------------------------------------------------------------------
# special matrices (single GL_2n component, tau0 unless stated)


def antidiag(m: int) -> ExactMatrix:
    return ExactMatrix([[Fraction(1) if j == m - 1 - i else Fraction(0)
                         for j in range(m)] for i in range(m)])


def w_cycle(n: int) -> ExactMatrix:
    """The permutation matrix of the (n+1)-cycle 1 -> 2 -> ... -> n+1 -> 1.

    This is the minimal-length representative of length n for the quotient
    by the (1, 2n-1)-parabolic Weyl group, realized with +1 entries; the
    coset relations below fix it up to right multiplication by the Borel.
    """
    m = 2 * n
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        rows[i + 1][i] = Fraction(1)  # e_(i+1) -> e_(i+2)
    rows[0][n] = Fraction(1)          # e_(n+1) -> e_1
    for i in range(n + 1, m):
        rows[i][i] = Fraction(1)
    return ExactMatrix(rows)


def u_element(n: int, distinguished: bool = True) -> ExactMatrix:
    """The open-orbit conjugator as a 2n x 2n matrix.

    Distinguished component: block diag(1, u2) with u2 feeding coordinate
    n+1-i into n+1+i; other components: unipotent with the antidiagonal in
    the lower-left n x n block, which is also the simple open-orbit
    representative (the gammahat of the subgroup and coset checks below).
    """
    m = 2 * n
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    if distinguished:
        for i in range(1, n):
            rows[n + i][n - i] = Fraction(1)
    else:
        for i in range(n):
            rows[n + i][n - 1 - i] = Fraction(1)
    return ExactMatrix(rows)


def gamma_element(n: int, distinguished: bool = True) -> ExactMatrix:
    """gamma = u * (unipotent with 1 in the (1, n+1) slot) at the distinguished
    component; gamma = u elsewhere."""
    u = u_element(n, distinguished)
    if not distinguished:
        return u
    m = 2 * n
    ins = ExactMatrix.identity(m)
    ins.rows[0][n] = Fraction(1)
    return u * ins


def gammahat_element(n: int, distinguished: bool = True) -> ExactMatrix:
    """gammahat = gamma * w at the distinguished component; gamma elsewhere."""
    g = gamma_element(n, distinguished)
    if not distinguished:
        return g
    return g * w_cycle(n)


def t_p_matrix(n: int, p: int, e: int = 1) -> ExactMatrix:
    m = 2 * n
    return ExactMatrix([[Fraction(p) ** (e * (m - 1 - i)) if i == j else Fraction(0)
                         for j in range(m)] for i in range(m)])


def s_p_matrix(n: int, p: int, e: int = 1) -> ExactMatrix:
    w = antidiag(2 * n)
    return w * t_p_matrix(n, p, e) * w


def t_p_i_matrix(n: int, p: int, i: int) -> ExactMatrix:
    """diag(p, ..., p, 1, ..., 1) with i entries equal to p."""
    m = 2 * n
    return ExactMatrix([[Fraction(p) if r == c and r < i else
                         (Fraction(1) if r == c else Fraction(0))
                         for c in range(m)] for r in range(m)])


# ---------------------------------------------------------------------------
# Iwahori factorization (UL decomposition)


def iwahori_factor(mat: ExactMatrix):
    """Factor X = X_plus * X_minus with X_plus upper-triangular and X_minus
    lower-unipotent, by Schur complements from the bottom-right.

    Requires the trailing principal minors to be units (which the Iwahori /
    Artinian hypotheses guarantee); works over any coefficient ring with
    exact division by those pivots.
    """
    m = mat.nrows
    zero = mat.rows[0][0] - mat.rows[0][0]
    one = zero + 1
    lower = [[one if i == j else zero for j in range(m)] for i in range(m)]
    upper = [list(r) for r in mat.rows]
    for k in range(m - 1, -1, -1):  # k = 0 only tests the last pivot
        try:
            piv_inv = Fraction(1) / upper[k][k]
        except ZeroDivisionError:
            raise ZeroDivisionError("non-unit pivot in the factorization") from None
        # clear the entries of row k left of the pivot by column operations
        # (right multiplication by lower-unipotent factors)
        factors = [upper[k][j] * piv_inv for j in range(k)]
        for j in range(k):
            f = factors[j]
            if f == 0:
                continue
            for i in range(m):
                upper[i][j] = upper[i][j] - upper[i][k] * f
            # record the inverse column operation in the lower-unipotent factor
            for col in range(m):
                lower[k][col] = lower[k][col] + f * lower[j][col]
    return ExactMatrix(upper), ExactMatrix(lower)


def iwahori_diagonal_closed_form(sigma, ngens: int):
    """Predicted upper-factor diagonal for I + (permuted dual-number diagonal).

    For the matrix with entry t_i in position (i, sigma(i)) plus the
    identity, the diagonal of the upper factor is 1 except at each cycle
    minimum, where it is 1 + sgn(cycle) * prod of the cycle's t's.
    """
    diag = [ArtinianElement.constant(ngens, 1) for _ in sigma]
    for cyc in cycles([s - 1 for s in sigma]):
        if len(cyc) == 1:
            # fixed point: entry t on the diagonal itself
            diag[cyc[0]] = diag[cyc[0]] + ArtinianElement.gen(ngens, cyc[0])
            continue
        sign = -1 if len(cyc) % 2 == 0 else 1
        prod = ArtinianElement.constant(ngens, sign)
        for k in cyc:
            prod = prod * ArtinianElement.gen(ngens, k)
        mpos = min(cyc)
        diag[mpos] = diag[mpos] + prod
    return diag


def permuted_dual_matrix(sigma, ngens: int) -> ExactMatrix:
    """I + Y with Y_(i, sigma(i)) = T_i over Q[T_1..T_a]/(T_i^2)."""
    a = len(sigma)
    zero = ArtinianElement(ngens, {})
    one = ArtinianElement.constant(ngens, 1)
    rows = [[one if i == j else zero for j in range(a)] for i in range(a)]
    for i in range(a):
        j = sigma[i] - 1
        rows[i][j] = rows[i][j] + ArtinianElement.gen(ngens, i)
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# residue-level membership and enumeration


def iwahori_member(res: list, p: int, beta: int, modulus: int) -> bool:
    """Is a residue matrix (mod `modulus`) upper-triangular-unit mod p^beta?"""
    m = len(res)
    if modulus % p ** beta != 0:
        raise ValueError("modulus too shallow for the depth")
    for i in range(m):
        if res[i][i] % p == 0:
            return False
        for j in range(i):
            if res[i][j] % p ** beta != 0:
                return False
    return True


def block_diagonal_member(res: list, n: int, modulus: int) -> bool:
    m = 2 * n
    for i in range(m):
        for j in range(m):
            if (i < n) != (j < n) and res[i][j] % modulus != 0:
                return False
    return True


def _mod_mul(a: list, b: list, modulus: int) -> list:
    """The product a * b of int rows, reduced mod `modulus`; the zero entries
    of the left factor are skipped."""
    cols = range(len(b[0]))
    out = []
    for row in a:
        acc = [0] * len(cols)
        for x, brow in zip(row, b):
            if x:
                for j in cols:
                    acc[j] += x * brow[j]
        for j in cols:
            acc[j] %= modulus
        out.append(acc)
    return out


def iwahori_index_exponent(n: int, e: int, beta: int) -> int:
    """Index exponent of the depth-beta Iwahori inside the depth-e one.

    Counts the negative-root coordinates: (beta - e) * n(2n - 1).
    """
    if not (1 <= e <= beta):
        raise ValueError("need 1 <= e <= beta")
    return (beta - e) * n * (2 * n - 1)


def gl2_index_enumeration(p: int, e: int, beta: int) -> int:
    """[Iwahori_e : Iwahori_beta] in GL_2(Z/p^beta) by full enumeration."""
    modulus = p ** beta
    count_e = 0
    count_beta = 0
    for a, b, c, d in iproduct(range(modulus), repeat=4):
        if (a * d - b * c) % p == 0:
            continue
        if a % p == 0 or d % p == 0:
            continue
        if c % p ** e == 0:
            count_e += 1
        if c % modulus == 0:
            count_beta += 1
    if count_e % count_beta:
        raise ArithmeticError("index enumeration is not a multiple of the deeper count")
    return count_e // count_beta


# ---------------------------------------------------------------------------
# double cosets


@lru_cache(maxsize=None)
def _simple_conjugator(n: int) -> tuple:
    """The simple open-orbit form gh = u_element(n, False) = I + N and its
    inverse I - N as int rows (N, the antidiagonal in the lower-left n x n
    block, squares to 0); built once per n and shared read-only."""
    gh = [[int(x) for x in row] for row in u_element(n, False).rows]
    gh_inv = [[2 * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(gh)]
    return gh, gh_inv


def _conjugate(h: list, n: int, modulus: int) -> list:
    """gh^-1 h gh mod `modulus` for int rows h, with gh the simple form."""
    gh, gh_inv = _simple_conjugator(n)
    return _mod_mul(gh_inv, _mod_mul(h, gh, modulus), modulus)


def _subgroup_solver(n: int, p: int) -> tuple:
    """The F_p-linear solve for the block pair Y whose conjugate
    gh^-1 Y gh has a given strict lower part, with gh the simple form.

    [A | I] is reduced mod p once, where the columns of A are the strict
    lower parts of the conjugated block basis.  Its left block is the
    reduced form R of A and its right block an invertible E with E A = R.
    The reduced form of [A | t] is unique, so it is [R | E t] when E t
    vanishes below the rank of A; otherwise [A | t] has a pivot in its last
    column and the system is inconsistent.  Returns (block basis positions,
    strict lower positions, solve), where solve(t) gives the coordinates of
    Y on the block basis, or None when t is not reached.
    """
    m = 2 * n
    lower_pos = [(i, j) for i in range(m) for j in range(m) if i > j]
    y_basis = [(i, j) for i in range(m) for j in range(m) if (i < n) == (j < n)]
    cols = []
    for (yi, yj) in y_basis:
        y = [[int((i, j) == (yi, yj)) for j in range(m)] for i in range(m)]
        img = _conjugate(y, n, p)
        cols.append([img[i][j] for (i, j) in lower_pos])
    ncols = len(y_basis)
    nlower = len(lower_pos)
    reduced, pivots = row_reduce(
        [[*row, *(int(i == k) for k in range(nlower))] for i, row in enumerate(zip(*cols))], p)
    piv_cols = [c for c in pivots if c < ncols]
    rank = len(piv_cols)
    # E t is computed as the row t times the transpose of E
    e_transpose = list(zip(*(row[ncols:] for row in reduced)))

    def solve(target):
        v = _mod_mul([target], e_transpose, p)[0]
        if any(v[rank:]):
            return None
        sol = [0] * ncols
        for c, x in zip(piv_cols, v):
            sol[c] = x
        return sol

    return y_basis, lower_pos, solve


def double_coset_singleton(n: int, p: int, beta: int, max_witnesses: int = 3) -> dict:
    """Connect every depth-beta/depth-(beta+1) representative through the
    block subgroup conjugated by the simple open-orbit matrix.

    Each representative x = I + p^beta N (N strictly lower mod p) must factor
    as (conjugated subgroup element) * (depth beta+1 element).  One F_p solve,
    reduced once for all representatives, gives the subgroup element
    h = I + p^beta Y; each representative is then checked by explicit
    products mod p^(beta+1): conj = gh^-1 h gh must lie in the depth-beta
    Iwahori and k = gh^-1 h^-1 gh x = (2I - conj) x in the depth-(beta+1)
    one.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1 for the closed-form inverse I - p^beta Y")
    m = 2 * n
    nroots = n * (2 * n - 1)
    modulus = p ** (beta + 1)
    pb = p ** beta
    y_basis, lower_pos, solve = _subgroup_solver(n, p)

    witnesses = []
    checked = 0
    for digits in iproduct(range(p), repeat=nroots):
        target = list(digits)
        sol = solve(target)
        if sol is None:
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "no connecting subgroup element for a representative"}
        h = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (yi, yj) in zip(sol, y_basis):
            h[yi][yj] += pb * val
        conj = _conjugate(h, n, modulus)
        if not iwahori_member(conj, p, beta, modulus):
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "witness conjugate left the depth-beta Iwahori"}
        # (p^beta Y)^2 = 0 mod p^(beta+1) for beta >= 1, so h^-1 = I - p^beta Y
        # and gh^-1 h^-1 gh = 2I - conj
        x = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (i, j) in zip(target, lower_pos):
            x[i][j] = pb * val
        k_res = _mod_mul([[2 * (i == j) - v for j, v in enumerate(row)]
                          for i, row in enumerate(conj)], x, modulus)
        if not iwahori_member(k_res, p, beta + 1, modulus):
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "residual factor left the depth-(beta+1) Iwahori"}
        if len(witnesses) < max_witnesses:
            witnesses.append({"representative": target, "subgroup_part": sol})
        checked += 1
    return {"passed": True, "checked": checked, "witnesses": witnesses,
            "conjugator": "simple antidiagonal open-orbit form",
            "detail": f"all {checked} representatives connected"}


def sample_block_subgroup(n: int, p: int, beta: int, M: int, rnd) -> list:
    """A random element of the conjugated-subgroup intersection with the blocks,
    as int rows mod p^M.

    Elements are diag(A, B) with A congruent to a diagonal unit mod p^beta
    and B to its antidiagonal reversal.
    """
    modulus = p ** M
    w = list(range(n - 1, -1, -1))
    dvals = [rnd.randrange(1, modulus) for _ in range(n)]
    while any(d % p == 0 for d in dvals):
        dvals = [rnd.randrange(1, modulus) for _ in range(n)]
    a = [[(dvals[i] if i == j else 0) + p ** beta * rnd.randrange(0, p ** (M - beta))
          for j in range(n)] for i in range(n)]
    b = [[(dvals[w[i]] if i == j else 0) + p ** beta * rnd.randrange(0, p ** (M - beta))
          for j in range(n)] for i in range(n)]
    return ([[x % modulus for x in row] + [0] * n for row in a]
            + [[0] * n + [x % modulus for x in row] for row in b])


def intrinsic_subgroup_member(h: list, n: int, p: int, depth: int) -> bool:
    """The depth subgroup read without conjugating: diag(A, B) (unit
    diagonals) has A diagonal and B = W A W mod p^depth, W the n x n
    antidiagonal, since gh^-1 diag(A, B) gh has lower-left block B W - W A."""
    q = p ** depth
    for i in range(n):
        for j in range(n):
            if i != j and h[i][j] % q:
                return False
            if (h[n + i][n + j] - h[n - 1 - i][n - 1 - j]) % q:
                return False
    return True


def intersection_check(n: int, p: int, beta: int, samples: int, seed: int) -> dict:
    """Membership equivalence defining the deeper subgroup, on random samples.

    For h in the depth-beta subgroup: the conjugate lands in the depth-(beta+1)
    Iwahori iff h satisfies the intrinsic depth-(beta+1) description.
    """
    rnd = random.Random(seed)
    M = beta + 2
    modulus = p ** M
    nontrivial = 0
    for k in range(samples):
        deep = k % 2 == 0
        h = sample_block_subgroup(n, p, beta + 1 if deep else beta, M, rnd)
        conj = _conjugate(h, n, modulus)
        if not (block_diagonal_member(h, n, modulus)
                and iwahori_member(conj, p, beta, modulus)):
            raise ArithmeticError("sampled element left the depth-beta subgroup")
        lhs = iwahori_member(conj, p, beta + 1, modulus)
        rhs = intrinsic_subgroup_member(h, n, p, beta + 1)
        if lhs != rhs:
            return {"passed": False, "samples": k + 1,
                    "detail": "membership equivalence failed"}
        if lhs:
            nontrivial += 1
    return {"passed": True, "samples": samples, "deep_members": nontrivial,
            "conjugator": "simple antidiagonal open-orbit form",
            "detail": "two-sided membership equivalence holds"}


def similitude_congruence_check(n: int, p: int, beta: int, samples: int, seed: int) -> dict:
    """det(B)/det(A) lies in 1 + p^beta Z_p on subgroup samples."""
    rnd = random.Random(seed)
    M = beta + 2
    ok = 0
    for _ in range(samples):
        h = sample_block_subgroup(n, p, beta, M, rnd)
        a = ExactMatrix([row[:n] for row in h[:n]])
        b = ExactMatrix([row[n:] for row in h[n:]])
        ratio = Fraction(b.det(), a.det())
        if valuation(ratio - 1, p) < beta:
            return {"passed": False, "samples": ok, "detail": "similitude escaped 1 + p^beta"}
        ok += 1
    return {"passed": True, "samples": ok, "detail": "similitude values in 1 + p^beta"}


# ---------------------------------------------------------------------------
# open orbits, the coset witness, and the conjugation identity


def orbit_stabilizer_gammahat(n: int) -> dict:
    """Stabilizer dimension of the block pair times Borel at gammahat, one component.

    The stabilizer is {X in Lie(blocks): gammahat^-1 X gammahat upper-triangular};
    the orbit is open iff dim blocks + dim Borel - dim stab = dim GL_2n.
    """
    m = 2 * n
    gh = gammahat_element(n)
    gh_inv = rational_inverse(gh)
    rows = []
    for (i, j) in [(i, j) for i in range(m) for j in range(m) if (i < n) == (j < n)]:
        x = ExactMatrix([[Fraction(1) if (r, c) == (i, j) else Fraction(0)
                          for c in range(m)] for r in range(m)])
        conj = (gh_inv * x * gh).rows
        rows.append([conj[r][c] for r in range(m) for c in range(r)])
    rank = len(row_reduce(rows)[1])
    dim_h = 2 * n * n
    dim_b = n * (2 * n + 1)
    dim_stab = dim_h - rank
    return {"stabilizer_dim": dim_stab,
            "open": dim_h + dim_b - dim_stab == m * m,
            "ambient_dim": m * m}


def orbit_stabilizer_uv(n: int, distinguished: bool = True) -> dict:
    """Stabilizer of the Levi pair action at (u, v), one component.

    Conditions: u^-1 X u in the Levi Borel and v^-1 X v in the block
    parabolic; returns the stabilizer dimension, a diagonal-shape witness
    basis check for the distinguished component, and the openness verdict.
    """
    m = 2 * n
    if distinguished:
        u = u_element(n, True)
        # v in the subgroup: identity plus the column below the (n+1) slot
        v = ExactMatrix.identity(m)
        for i in range(1, n):
            v.rows[n + i][n] = Fraction(1)
        hpairs = [(i, j) for i in range(m) for j in range(m)
                  if (i == 0 and j == 0)
                  or (1 <= i < n and 1 <= j < n)
                  or (n <= i and n <= j)]
    else:
        u = u_element(n, False)
        v = ExactMatrix.identity(m)
        hpairs = [(i, j) for i in range(m) for j in range(m) if (i < n) == (j < n)]

    u_inv = rational_inverse(u)
    v_inv = rational_inverse(v)
    rows = []
    for (i, j) in hpairs:
        x = ExactMatrix([[Fraction(1) if (r, c) == (i, j) else Fraction(0)
                          for c in range(m)] for r in range(m)])
        cond = []
        xu = u_inv * x * u
        # condition 1: strict lower part of the Levi-conjugate vanishes
        for r in range(m):
            for c in range(m):
                if r > c:
                    cond.append(xu.rows[r][c])
        xv = v_inv * x * v
        # condition 2: the sub-(1, n-1) parabolic condition in the lower factor
        for r in range(n + 1, m):
            cond.append(xv.rows[r][n])
        rows.append([Fraction(val) for val in cond])
    rank = len(row_reduce(rows)[1])
    dim_h = len(hpairs)
    dim_stab = dim_h - rank
    if distinguished:
        dim_mg = 1 + (2 * n - 1) ** 2
        dim_borel = 1 + (2 * n - 1) * n  # upper triangular of diag(GL_1, GL_(2n-1))
        dim_mh = 1 + (n - 1) ** 2 + n * n
        dim_q = 1 + (n - 1) ** 2 + (1 + (n - 1) ** 2 + (n - 1))
        expected_open = dim_h + (dim_borel + dim_q) - dim_stab == dim_mg + dim_mh
    else:
        dim_mg = (2 * n) ** 2
        dim_borel = n * (2 * n + 1)
        dim_mh = 2 * n * n
        dim_q = dim_mh
        expected_open = dim_h + (dim_borel + dim_q) - dim_stab == dim_mg + dim_mh
    return {"stabilizer_dim": dim_stab, "open": expected_open,
            "orbit_codim": dim_mg + dim_mh - (dim_h + dim_borel + dim_q - dim_stab)}


def coset_witness_identity(n: int, beta: int, p: int) -> dict:
    """The depth-one Iwahori witness for the transpose-inverse translation identity.

    k = (diag(-1_n, 1_n) * (gammahat^t)^-1 * t_p^beta)^-1 * gammahat * s_p^beta * w_max
    must land in the depth-one Iwahori; verified mod p over exact rationals.
    """
    gh = u_element(n, False)
    m = 2 * n
    sign = ExactMatrix([[Fraction(-1) if i == j and i < n else
                         (Fraction(1) if i == j else Fraction(0))
                         for j in range(m)] for i in range(m)])
    lhs = sign * rational_inverse(gh.transpose()) * t_p_matrix(n, p, beta)
    k = rational_inverse(lhs) * gh * s_p_matrix(n, p, beta) * antidiag(m)
    ok = all(valuation(x, p) >= 0 for row in k.rows for x in row)
    ok = ok and all(valuation(k.rows[i][i], p) == 0 for i in range(m))
    ok = ok and all(valuation(k.rows[i][j], p) >= 1 for i in range(m) for j in range(i))
    return {"passed": ok, "witness": [[str(x) for x in row] for row in k.rows]}


def hecke_diagonal_multiplicativity(n: int, p: int, e: int) -> bool:
    """t_p^e equals the product over i of the i-step diagonals to the power e."""
    m = 2 * n
    prod = ExactMatrix.identity(m)
    for i in range(1, 2 * n):
        for _ in range(e):
            prod = prod * t_p_i_matrix(n, p, i)
    return prod == t_p_matrix(n, p, e)


def frobenius_twist_identity(n: int, p: int, beta_prime: int) -> dict:
    """xi^b xi_c gamma xi_c^-1 = gamma xi^b u_c with u_c unipotent of slope c.

    Checked as a polynomial identity in the scalar c (both sides times
    xi_c), and numerically for all unit residues c mod p^(b+1).
    """
    m = 2 * n
    gamma = gamma_element(n)
    pb = Fraction(p) ** beta_prime
    xib = ExactMatrix.identity(m)  # xi^b = diag(p^-b, 1, ..., 1)
    xib.rows[0][0] = 1 / pb
    # each entry of either side is a polynomial of degree <= 2 in c (xi_c and
    # u_c are linear in c), so agreeing at c = 0, 1, 2 is the identity in c
    symbolic = True
    for c in range(3):
        xi_c, u_c = ExactMatrix.identity(m), ExactMatrix.identity(m)
        xi_c.rows[0][0], u_c.rows[0][n] = c + pb, Fraction(c)
        symbolic = symbolic and xib * xi_c * gamma == gamma * xib * u_c * xi_c
    xib_gamma = xib * gamma
    gamma_xib = gamma * xib
    numeric = True
    for c in range(1, p ** (beta_prime + 1)):
        if c % p == 0:
            continue
        # xi_c = diag(s, 1, ..., 1) with s = c + p^b commutes with xi^b, so the
        # left side is xi^b gamma with row 0 times s and column 0 over s
        s = c + pb
        l = [[x * (s if i == 0 else 1) / (s if j == 0 else 1) for j, x in enumerate(row)]
             for i, row in enumerate(xib_gamma.rows)]
        # right multiplication by u_c adds c times column 0 to column n
        r = [[x + c * row[0] if j == n else x for j, x in enumerate(row)]
             for row in gamma_xib.rows]
        if l != r:
            numeric = False
            break
    return {"passed": symbolic and numeric, "symbolic": symbolic, "numeric": numeric}


def gammahat_coset_relation(n: int) -> dict:
    """gammahat = zeta * (simple form) * b with b integral upper-triangular unit.

    zeta is block diag(X, 1) with X the composition of the two antidiagonal
    reversals; returns b and the verification verdict.
    """
    m = 2 * n
    gh = gammahat_element(n)
    # X = diag(1, w_(n-1)) * w_n
    wn = antidiag(n)
    blockx = ExactMatrix([[Fraction(1) if i == j == 0 else
                           (Fraction(1) if 1 <= i < n and j == n - i else Fraction(0))
                           for j in range(n)] for i in range(n)]) * wn
    zeta = ExactMatrix([[Fraction(1) if i == j else Fraction(0) for j in range(m)]
                        for i in range(m)])
    for i in range(n):
        for j in range(n):
            zeta.rows[i][j] = blockx.rows[i][j]
    b = rational_inverse(zeta * u_element(n, False)) * gh
    ok = all(b.rows[i][j] == 0 for i in range(m) for j in range(i))
    ok = ok and all(b.rows[i][j].denominator == 1 for i in range(m) for j in range(m))
    ok = ok and all(abs(b.rows[i][i]) == 1 for i in range(m))
    return {"passed": ok, "b": [[str(v) for v in row] for row in b.rows],
            "det_zeta_block": blockx.det()}
