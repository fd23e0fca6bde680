"""Explicit matrices and congruence-subgroup combinatorics.

Matrices for a single GL_2n component are lists of rows.  The exact
identities (factorizations, orbit stabilizers, the coset witness, the twist
identity) are `ExactMatrix` products over Fraction; every residue check runs
on int rows mod m, through the one product `_mod_mul` and the one
conjugation `_conjugate` by the simple open-orbit form.  The depth-beta
Iwahori subgroup consists of matrices congruent to upper-triangular mod
p^beta with unit diagonal.

The double-coset check is one scan over the unit targets, not over the
representatives: below depth (beta+1) the subgroup part and its conjugate
are linear in the target, the unit images C_r are 0 mod p^beta, so the
residual factor is linear in the digits too, and one test per unit target
settles all p^N representatives.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .artinian import ArtinianElement, from_numerators
from .matrices import ExactMatrix, cycles, rational_inverse, row_reduce
from .polynomials import nullspace
from .rationals import valuation


# ---------------------------------------------------------------------------
# special matrices (single GL_2n component, tau0 unless stated)


def antidiag(m: int) -> ExactMatrix:
    return ExactMatrix.sparse(m, {(i, m - 1 - i): Fraction(1) for i in range(m)})


def _identity_with(m: int, entries: dict) -> ExactMatrix:
    """The m x m identity over Fraction with `entries` written over it."""
    return ExactMatrix.sparse(m, {**{(i, i): Fraction(1) for i in range(m)}, **entries})


def w_cycle(n: int) -> ExactMatrix:
    """The permutation matrix of the (n+1)-cycle 1 -> 2 -> ... -> n+1 -> 1.

    This is the minimal-length representative of length n for the quotient
    by the (1, 2n-1)-parabolic Weyl group, realized with +1 entries; the
    coset relations below fix it up to right multiplication by the Borel.
    """
    one = Fraction(1)
    entries = {(i + 1, i): one for i in range(n)}  # e_(i+1) -> e_(i+2)
    entries[0, n] = one                             # e_(n+1) -> e_1
    entries.update(((i, i), one) for i in range(n + 1, 2 * n))
    return ExactMatrix.sparse(2 * n, entries)


def u_element(n: int, distinguished: bool = True) -> ExactMatrix:
    """The open-orbit conjugator as a 2n x 2n matrix.

    Distinguished component: block diag(1, u2) with u2 feeding coordinate
    n+1-i into n+1+i; other components: unipotent with the antidiagonal in
    the lower-left n x n block, which is also the simple open-orbit
    representative (the gammahat of the subgroup and coset checks below).
    """
    if distinguished:
        return _identity_with(2 * n, {(n + i, n - i): Fraction(1) for i in range(1, n)})
    return _identity_with(2 * n, {(n + i, n - 1 - i): Fraction(1) for i in range(n)})


def gamma_element(n: int) -> ExactMatrix:
    """gamma = u * (unipotent with 1 in the (1, n+1) slot) at the distinguished
    component (elsewhere gamma is u itself, the simple form)."""
    return u_element(n) * _identity_with(2 * n, {(0, n): Fraction(1)})


def gammahat_element(n: int) -> ExactMatrix:
    """gammahat = gamma * w at the distinguished component."""
    return gamma_element(n) * w_cycle(n)


def t_p_matrix(n: int, p: int, e: int = 1) -> ExactMatrix:
    m = 2 * n
    return ExactMatrix.sparse(m, {(i, i): Fraction(p) ** (e * (m - 1 - i)) for i in range(m)})


def s_p_matrix(n: int, p: int, e: int = 1) -> ExactMatrix:
    w = antidiag(2 * n)
    return w * t_p_matrix(n, p, e) * w


def t_p_i_matrix(n: int, p: int, i: int) -> ExactMatrix:
    """diag(p, ..., p, 1, ..., 1) with i entries equal to p."""
    return ExactMatrix.sparse(2 * n, {(r, r): Fraction(p if r < i else 1)
                                      for r in range(2 * n)})


# ---------------------------------------------------------------------------
# Iwahori factorization (UL decomposition)


def iwahori_factor(mat: ExactMatrix):
    """Factor X = X_plus * X_minus with X_plus upper-triangular and X_minus
    lower-unipotent, by Schur complements from the bottom-right.

    Step k clears row k of the working upper factor U left of its pivot by
    the column operations col_j -= f_j col_k, f_j = U_kj / U_kk: right
    multiplications by lower-unipotent factors, whose inverses X_minus
    collects.  The steps run downward, so row j < k of X_minus is still e_j
    at step k, and each inverse is the single write X_minus[k][j] = f_j.

    Requires the trailing principal minors to be units (which the Iwahori /
    Artinian hypotheses guarantee); works over any coefficient ring with
    exact division by those pivots.
    """
    m = mat.nrows
    zero = mat.rows[0][0] - mat.rows[0][0]
    one = zero + 1
    lower = [[one if i == j else zero for j in range(m)] for i in range(m)]
    upper = [list(r) for r in mat.rows]
    unit = Fraction(1)
    for k in range(m - 1, -1, -1):  # k = 0 only tests the last pivot
        try:
            piv_inv = unit / upper[k][k]
        except ZeroDivisionError:
            raise ZeroDivisionError("non-unit pivot in the factorization") from None
        for j in range(k):
            if not upper[k][j]:
                continue
            f = upper[k][j] * piv_inv
            for i in range(m):
                if upper[i][k]:
                    upper[i][j] = upper[i][j] - upper[i][k] * f
            lower[k][j] = f
    return ExactMatrix(upper), ExactMatrix(lower)


def iwahori_diagonal_closed_form(sigma, ngens: int):
    """Predicted upper-factor diagonal for I + (permuted dual-number diagonal).

    For the matrix with entry t_i in position (i, sigma(i)) plus the
    identity, the diagonal of the upper factor is 1 except at each cycle
    minimum, where it is 1 + sgn(cycle) * prod of the cycle's t's (a fixed
    point is a cycle of length 1: its entry t sits on the diagonal itself).
    """
    nums = [{0: 1} for _ in sigma]
    for cyc in cycles([s - 1 for s in sigma]):
        nums[min(cyc)][sum(1 << k for k in cyc)] = -1 if len(cyc) % 2 == 0 else 1
    return [from_numerators(ngens, d, 1) for d in nums]


def permuted_dual_matrix(sigma, ngens: int) -> ExactMatrix:
    """I + Y with Y_(i, sigma(i)) = T_i over Q[T_1..T_a]/(T_i^2)."""
    a = len(sigma)
    zero = ArtinianElement(ngens, {})
    one = ArtinianElement.constant(ngens, 1)
    rows = [[one if i == j else zero for j in range(a)] for i in range(a)]
    for i in range(a):
        j = sigma[i] - 1
        rows[i][j] = from_numerators(ngens, {0: 1, 1 << i: 1} if i == j else {1 << i: 1}, 1)
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# residue-level membership and enumeration


def iwahori_member(res: list, p: int, beta: int, modulus: int) -> bool:
    """Is a residue matrix (mod `modulus`) upper-triangular-unit mod p^beta?"""
    m = len(res)
    pb = p ** beta
    if modulus % pb != 0:
        raise ValueError("modulus too shallow for the depth")
    for i in range(m):
        if res[i][i] % p == 0:
            return False
        for j in range(i):
            if res[i][j] % pb != 0:
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
    """[Iwahori_e : Iwahori_beta] in GL_2(Z/p^beta) by enumeration.

    A tuple with c not divisible by p^e, or with a or d not a unit, adds to
    neither count, so c runs over the multiples of p^e and a and d over the
    units only.  The determinant test reads ad and bc mod p alone, so the
    tuples are counted by class: the pairs (a, d) by ad mod p once, and b
    by bc mod p for each c, and the tuples with ad - bc a unit number
    sum over s != r of #{ad = s} * #{bc = r}.
    """
    modulus = p ** beta
    units = [u for u in range(modulus) if u % p]
    ad = Counter(a * d % p for a, d in iproduct(units, units))
    count_e = count_beta = 0
    for c in range(0, modulus, p ** e):
        bc = Counter(b * c % p for b in range(modulus))
        found = sum(ad[s] * bc[r] for s in ad for r in bc if s != r)
        count_e += found
        if c == 0:
            count_beta = found
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


def double_coset_singleton(n: int, p: int, beta: int) -> dict:
    """Connect every depth-beta/depth-(beta+1) representative through the
    block subgroup conjugated by the simple open-orbit matrix.

    Each representative x = I + p^beta N (N strictly lower mod p, its
    entries the N = n(2n-1) digits of a target t) must factor as
    (conjugated subgroup element) * (depth beta+1 element).  For beta >= 1,
    (p^beta)^2 = 0 mod p^(beta+1), so h = I + p^beta Y has inverse
    I - p^beta Y and its conjugate conj = gh^-1 h gh = I + p^beta gh^-1 Y gh
    is affine in Y, while Y = solve(t) is linear in t mod p.  So the F_p
    solve and the explicit conjugation mod p^(beta+1) run once per unit
    target e_r, and give the images C_r = conj_r - I.  The residual factor
    is k = gh^-1 h^-1 gh x = (2I - conj) x.

    Since gh is integral and h - I = p^beta Y, every image is 0 mod p^beta.
    Mod p^(beta+1) that gives p C_r = 0 and C_r x = C_r, so at the
    representative with digits d_r, conj = I + sum d_r C_r stays in the
    depth-beta Iwahori, and k = I + sum d_r K_r with
    K_r = p^beta E_(a_r,b_r) - C_r, (a_r, b_r) the position of digit r,
    keeps its diagonal 1 mod p.  Each K_r is 0 mod p^beta, so the strict
    lower part of k is linear in the digits mod p: every representative
    passes iff every unit target is solved, its image is 0 mod p^beta and
    the strict lower part of its K_r is 0 mod p^(beta+1).  In odometer
    order (itertools.product order, last digit fastest) digit r first
    moves at representative p^(N-1-r), so the unit targets are scanned
    down from the last, and the first that fails gives `checked`, the
    number of representatives before that one; a pass counts all p^N.  An
    image that is not 0 mod p^beta, which only a wrong solve or conjugation
    gives, fails its digit with a detail of its own.  Returns the verdict,
    the number of representatives that passed and a detail line.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1 for the closed-form inverse I - p^beta Y")
    m = 2 * n
    nroots = n * (2 * n - 1)
    modulus = p ** (beta + 1)
    pb = p ** beta
    y_basis, lower_pos, solve = _subgroup_solver(n, p)
    for r in range(nroots - 1, -1, -1):
        failed = {"passed": False, "checked": p ** (nroots - 1 - r)}
        sol = solve([int(k == r) for k in range(nroots)])
        if sol is None:
            return {**failed, "detail": "no connecting subgroup element for a representative"}
        h = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (yi, yj) in zip(sol, y_basis):
            h[yi][yj] += pb * val
        image = [[v - (i == j) for j, v in enumerate(row)]
                 for i, row in enumerate(_conjugate(h, n, modulus))]
        if any(v % pb for row in image for v in row):
            return {**failed, "detail": "witness conjugate is not I mod p^beta"}
        if any((pb * ((i, j) == lower_pos[r]) - image[i][j]) % modulus for i, j in lower_pos):
            return {**failed, "detail": "residual factor left the depth-(beta+1) Iwahori"}
    checked = p ** nroots
    return {"passed": True, "checked": checked,
            "detail": f"all {checked} representatives connected"}


def residue_words(p: int, beta: int) -> int:
    """64-bit words of a residue mod p^(beta+2), from a bound on its bit
    length that does not build the power: p^(beta+2) < 2^((beta+2) bitlen(p^16) / 16)."""
    return -(-(beta + 2) * (p ** 16).bit_length() // 16) // 64 + 1


def _nth_unit(r: int, p: int) -> int:
    """The r-th positive integer prime to p, from r = 0: below p^M these
    are the units mod p^M, one for each r < p^M - p^(M-1)."""
    return r + r // (p - 1) + 1


def sample_block_subgroup(n: int, p: int, beta: int, M: int, rnd) -> list:
    """A random element of the conjugated-subgroup intersection with the blocks,
    as int rows mod p^M.

    Elements are diag(A, B) with A = diag(d) + p^beta X and B = W diag(d) W
    + p^beta Y mod p^M, W the n x n antidiagonal: d uniform over n-tuples
    of units mod p^M and the 2n^2 entries of X, Y uniform mod p^(M-beta),
    all independent.  One `rnd.randrange` draw below phi^n s^(2n^2), with
    phi = p^M - p^(M-1) and s = p^(M-beta), gives them all: its n lowest
    base-phi digits r give the units `_nth_unit(r, p)`, and the next 2n^2
    base-s digits are the entries of X and then of Y, row by row.
    """
    modulus, pb, spread = p ** M, p ** beta, p ** (M - beta)
    phi = modulus - modulus // p
    x = rnd.randrange(phi ** n * spread ** (2 * n * n))
    dvals = []
    for _ in range(n):
        x, r = divmod(x, phi)
        dvals.append(_nth_unit(r, p))
    rows = []
    for i in range(2 * n):
        row = []
        for _ in range(n):
            x, off = divmod(x, spread)
            row.append(pb * off)
        d = dvals[i] if i < n else dvals[2 * n - 1 - i]
        row[i % n] = (row[i % n] + d) % modulus
        rows.append(row + [0] * n if i < n else [0] * n + row)
    return rows


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
            return {"passed": False, "samples": k + 1}
        if lhs:
            nontrivial += 1
    return {"passed": True, "samples": samples, "deep_members": nontrivial}


def similitude_congruence_check(n: int, p: int, beta: int, samples: int, seed: int) -> dict:
    """det(B)/det(A) lies in 1 + p^beta Z_p on subgroup samples.

    The valuation of det B / det A - 1 is read in integers, as
    v(det B - det A) - v(det A); det A is a p-unit by construction.
    """
    rnd = random.Random(seed)
    M = beta + 2
    ok = 0
    for _ in range(samples):
        h = sample_block_subgroup(n, p, beta, M, rnd)
        a = ExactMatrix([row[:n] for row in h[:n]])
        b = ExactMatrix([row[n:] for row in h[n:]])
        det_a = a.det()
        if valuation(b.det() - det_a, p) - valuation(det_a, p) < beta:
            return {"passed": False, "samples": ok}
        ok += 1
    return {"passed": True, "samples": ok}


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
        x = ExactMatrix.sparse(m, {(i, j): Fraction(1)})
        conj = (gh_inv * x * gh).rows
        rows.append([conj[r][c] for r in range(m) for c in range(r)])
    dim_h = 2 * n * n
    dim_b = n * (2 * n + 1)
    # the combinations of the X whose conditions all vanish
    dim_stab = len(nullspace(list(zip(*rows)), dim_h))
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
        v = _identity_with(m, {(n + i, n): Fraction(1) for i in range(1, n)})
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
        x = ExactMatrix.sparse(m, {(i, j): Fraction(1)})
        xu, xv = u_inv * x * u, v_inv * x * v
        # the strict lower part of the Levi-conjugate vanishes, and so does the
        # sub-(1, n-1) parabolic condition in the lower factor
        rows.append([xu.rows[r][c] for r in range(m) for c in range(r)]
                    + [xv.rows[r][n] for r in range(n + 1, m)])
    dim_h = len(hpairs)
    dim_stab = len(nullspace(list(zip(*rows)), dim_h))
    if distinguished:
        dim_mg = 1 + (2 * n - 1) ** 2
        dim_borel = 1 + (2 * n - 1) * n  # upper triangular of diag(GL_1, GL_(2n-1))
        dim_mh = 1 + (n - 1) ** 2 + n * n
        dim_q = 1 + (n - 1) ** 2 + (1 + (n - 1) ** 2 + (n - 1))
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
    sign = ExactMatrix.sparse(m, {(i, i): Fraction(-1 if i < n else 1) for i in range(m)})
    lhs = sign * rational_inverse(gh.transpose()) * t_p_matrix(n, p, beta)
    k = rational_inverse(lhs) * gh * s_p_matrix(n, p, beta) * antidiag(m)
    ok = all(valuation(x, p) >= 0 for row in k.rows for x in row)
    ok = ok and all(valuation(k.rows[i][i], p) == 0 for i in range(m))
    ok = ok and all(valuation(k.rows[i][j], p) >= 1 for i in range(m) for j in range(i))
    return {"passed": ok}


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

    Checked as a polynomial identity in the scalar c, both sides times xi_c:
    xi_c and u_c are linear in c, so each entry of either side is a
    polynomial of degree <= 2 in c, and agreeing at c = 0, 1, 2 is the
    identity for every c.
    """
    m = 2 * n
    gamma = gamma_element(n)
    pb = Fraction(p) ** beta_prime
    xib = _identity_with(m, {(0, 0): 1 / pb})  # xi^b = diag(p^-b, 1, ..., 1)
    symbolic = True
    for c in range(3):
        xi_c, u_c = _identity_with(m, {(0, 0): c + pb}), _identity_with(m, {(0, n): Fraction(c)})
        symbolic = symbolic and xib * xi_c * gamma == gamma * xib * u_c * xi_c
    return {"passed": symbolic}


def gammahat_coset_relation(n: int) -> dict:
    """gammahat = zeta * (simple form) * b with b integral upper-triangular unit.

    zeta is block diag(X, 1) with X the composition of the two antidiagonal
    reversals; returns the verdict and det X.
    """
    m = 2 * n
    gh = gammahat_element(n)
    # X = diag(1, w_(n-1)) * w_n
    wn = antidiag(n)
    blockx = ExactMatrix.sparse(n, {(i, n - i if i else 0): Fraction(1)
                                    for i in range(n)}) * wn
    zeta = _identity_with(m, {(i, j): x for i, row in enumerate(blockx.rows)
                              for j, x in enumerate(row)})
    b = rational_inverse(zeta * u_element(n, False)) * gh
    ok = all(b.rows[i][j] == 0 for i in range(m) for j in range(i))
    ok = ok and all(b.rows[i][j].denominator == 1 for i in range(m) for j in range(m))
    ok = ok and all(abs(b.rows[i][i]) == 1 for i in range(m))
    return {"passed": ok, "det_zeta_block": blockx.det()}
