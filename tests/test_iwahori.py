import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from padicdesk import iwahori as iw
from padicdesk.artinian import ArtinianElement
from padicdesk.matrices import ExactMatrix, modular_inverse, rational_inverse, row_reduce
from padicdesk.polynomials import Poly
from padicdesk.rationals import valuation


def test_special_matrix_relations():
    for n in (2, 3):
        gamma = iw.gamma_element(n)
        gammahat = iw.gammahat_element(n)
        assert gammahat == gamma * iw.w_cycle(n)
        # s_p = w t_p w
        w = iw.antidiag(2 * n)
        assert iw.s_p_matrix(n, 3) == w * iw.t_p_matrix(n, 3) * w


def test_w_cycle_length():
    # the permutation underlying the cycle has exactly n inversions
    for n in (2, 3, 4):
        w = iw.w_cycle(n)
        perm = []
        for j in range(2 * n):
            col = [i for i in range(2 * n) if w.rows[i][j] != 0]
            perm.append(col[0])
        inversions = sum(1 for a in range(2 * n) for b in range(a + 1, 2 * n)
                         if perm[a] > perm[b])
        assert inversions == n


def test_gammahat_coset_relation():
    for n in (2, 3, 4):
        rep = iw.gammahat_coset_relation(n)
        assert rep["passed"], rep
        # the block determinant records the parity used downstream
        assert rep["det_zeta_block"] == Fraction(-1) ** (n - 1)


def test_iwahori_factor_examples():
    # identity permutation: X = I + diag(t): already upper
    xp, xm = iw.iwahori_factor(iw.permuted_dual_matrix((1, 2), 2))
    one = ArtinianElement.constant(2, 1)
    assert xm == ExactMatrix.identity(2, one, ArtinianElement(2, {}))
    # transposition
    xp, xm = iw.iwahori_factor(iw.permuted_dual_matrix((2, 1), 2))
    T1, T2 = ArtinianElement.gen(2, 0), ArtinianElement.gen(2, 1)
    assert xp.rows[0][0] == one - T1 * T2
    assert xp.rows[1][1] == ArtinianElement.constant(2, 1)
    assert xm.rows[1][0] == T2
    # 3-cycle: diagonal (1 + t1 t2 t3, 1, 1)
    xp, _ = iw.iwahori_factor(iw.permuted_dual_matrix((2, 3, 1), 3))
    prod = (ArtinianElement.gen(3, 0) * ArtinianElement.gen(3, 1)
            * ArtinianElement.gen(3, 2))
    assert xp.rows[0][0] == ArtinianElement.constant(3, 1) + prod


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_iwahori_factor_closed_form_all_permutations(a):
    for perm in permutations(range(1, a + 1)):
        X = iw.permuted_dual_matrix(perm, a)
        xp, xm = iw.iwahori_factor(X)
        assert xp * xm == X
        for i in range(a):
            for j in range(a):
                if i > j:
                    assert xp.rows[i][j].is_zero()
                if i < j:
                    assert xm.rows[i][j].is_zero()
        assert [xp.rows[i][i] for i in range(a)] == \
            iw.iwahori_diagonal_closed_form(perm, a)


def test_iwahori_factor_rational_and_error():
    X = ExactMatrix([[Fraction(2), Fraction(3)], [Fraction(1), Fraction(4)]])
    xp, xm = iw.iwahori_factor(X)
    assert xp * xm == X
    X = ExactMatrix([[2, 3], [1, 4]])
    xp, xm = iw.iwahori_factor(X)
    assert xp * xm == X
    for singular in (ExactMatrix([[ArtinianElement.gen(1, 0)]]),
                     ExactMatrix([[1, 0], [0, 0]]), ExactMatrix([[1, 1], [1, 1]])):
        with pytest.raises(ZeroDivisionError, match="non-unit pivot in the factorization"):
            iw.iwahori_factor(singular)


def _row_operation_factor(mat):
    """UL factors by the loop that records each inverse column operation as
    a row operation over all m columns of the lower factor: the oracle for
    the single write of `iwahori_factor`."""
    m = mat.nrows
    zero = mat.rows[0][0] - mat.rows[0][0]
    one = zero + 1
    lower = [[one if i == j else zero for j in range(m)] for i in range(m)]
    upper = [list(r) for r in mat.rows]
    for k in range(m - 1, -1, -1):
        piv_inv = Fraction(1) / upper[k][k]
        factors = [upper[k][j] * piv_inv for j in range(k)]
        for j in range(k):
            f = factors[j]
            if not f:
                continue
            for i in range(m):
                if upper[i][k]:
                    upper[i][j] = upper[i][j] - upper[i][k] * f
            for col in range(m):
                if lower[j][col]:
                    lower[k][col] = lower[k][col] + f * lower[j][col]
    return ExactMatrix(upper), ExactMatrix(lower)


def _dense_fraction_matrices(rnd, count):
    """Seeded dense Fraction matrices, 1 to 5 square, whose trailing principal minors are nonzero."""
    out = []
    while len(out) < count:
        m = rnd.randint(1, 5)
        mat = ExactMatrix([[Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for _ in range(m)]
                           for _ in range(m)])
        if all(ExactMatrix([r[k:] for r in mat.rows[k:]]).det() for k in range(m)):
            out.append(mat)
    return out


def _unipotent_artinian_matrices(rnd, ngens, count):
    """Seeded I + N over Q[T_1..T_a]/(T_i^2), every entry of N in the nilpotent ideal."""
    monos = [frozenset(i for i in range(ngens) if mask >> i & 1) for mask in range(1, 1 << ngens)]
    out = []
    for _ in range(count):
        m = rnd.randint(2, 4)
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                terms = {mono: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                         for mono in rnd.sample(monos, rnd.randint(0, 3))}
                terms[frozenset()] = int(i == j)
                row.append(ArtinianElement(ngens, terms))
            rows.append(row)
        out.append(ExactMatrix(rows))
    return out


def test_iwahori_factor_on_dense_and_nilpotent_matrices():
    rnd = random.Random(37)
    mats = (_dense_fraction_matrices(rnd, 40) + _unipotent_artinian_matrices(rnd, 3, 30)
            + _unipotent_artinian_matrices(rnd, 4, 30))
    reached = 0
    for X in mats:
        xp, xm = iw.iwahori_factor(X)
        m = X.nrows
        assert all(not xp.rows[i][j] for i in range(m) for j in range(i))
        assert all(xm.rows[i][i] == 1 for i in range(m))
        assert all(not xm.rows[i][j] for i in range(m) for j in range(i + 1, m))
        assert xp * xm == X
        assert (xp, xm) == _row_operation_factor(X)
        reached += any(xm.rows[i][j] for i in range(m) for j in range(i))
    # most draws give the lower factor a nonzero entry below its diagonal
    assert reached > 60


def test_factorization_check_work_is_bounded(monkeypatch):
    # the suite's factorization loop at a_max = 5 makes 4,024 products and
    # 533 sums; recording each inverse column operation across all columns
    # of the lower factor makes 4,404 and 913, and the loop before the fast
    # paths 5,954 and 2,884
    from padicdesk.suites import run_iwahori_suite

    counts = {"__mul__": 0, "__add__": 0}
    for name in counts:
        real = getattr(ArtinianElement, name)

        def counting(self, other, real=real, name=name):
            counts[name] += 1
            return real(self, other)

        monkeypatch.setattr(ArtinianElement, name, counting)
    report = run_iwahori_suite(2, 3, 1)
    fact = next(c for c in report["checks"] if c["id"] == "iwahori.factorization_diagonal")
    assert fact["passed"] and fact["a_max"] == 5
    assert counts["__mul__"] <= 4200 and counts["__add__"] <= 700, counts


def test_index_formula_and_enumeration():
    assert iw.iwahori_index_exponent(2, 2, 2) == 0
    assert iw.iwahori_index_exponent(2, 1, 2) == 6
    assert iw.iwahori_index_exponent(3, 1, 3) == 30
    with pytest.raises(ValueError):
        iw.iwahori_index_exponent(2, 0, 1)
    # rank-one oracle: index p^(beta - e) by enumeration
    assert iw.gl2_index_enumeration(3, 1, 2) == 3
    assert iw.gl2_index_enumeration(2, 1, 2) == 2


def _old_gl2_counts(p, e, beta):
    """(count_e, count_beta) of the loop before the cut, over all p^(4 beta) tuples."""
    modulus = p ** beta
    count_e = count_beta = 0
    for a, b, c, d in product(range(modulus), repeat=4):
        if (a * d - b * c) % p == 0 or a % p == 0 or d % p == 0:
            continue
        count_e += c % p ** e == 0
        count_beta += c % modulus == 0
    return count_e, count_beta


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gl2_enumeration_over_multiples_of_p_e_matches_the_full_loop(p):
    for e, beta in ((1, 1), (1, 2), (2, 2)):
        count_e, count_beta = _old_gl2_counts(p, e, beta)
        assert iw.gl2_index_enumeration(p, e, beta) == count_e // count_beta == p ** (beta - e)


def test_double_coset_singleton_small():
    rep = iw.double_coset_singleton(2, 2, 1)
    assert rep == {"passed": True, "checked": 64, "detail": "all 64 representatives connected"}


def _double_coset_oracle(n, p, beta):
    """The enumeration with [A | t] row-reduced for every representative t and
    explicit products mod p^(beta+1), h^-1 taken as I - p^beta Y; the
    residual factor is gh^-1 (h^-1 (gh x)), not (2I - conj) x."""
    m = 2 * n
    modulus = p ** (beta + 1)
    gh = iw.u_element(n, False)

    def residues(mat, q):
        assert all(x.denominator == 1 for row in mat.rows for x in row)
        return [[int(x) % q for x in row] for row in mat.rows]

    def mul(a, b, q):
        # each row adds up the rows of b at the nonzeros of its row of a
        out = []
        for row in a:
            acc = [0] * m
            for x, brow in zip(row, b):
                if x:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            out.append([s % q for s in acc])
        return out

    def upper_unit(res, depth):
        return (all(res[i][i] % p for i in range(m))
                and all(res[i][j] % p ** depth == 0 for i in range(m) for j in range(i)))

    gh_res, ghi_res = residues(gh, modulus), residues(rational_inverse(gh), modulus)
    lower_pos = [(i, j) for i in range(m) for j in range(m) if i > j]
    y_basis = [(i, j) for i in range(m) for j in range(m) if (i < n) == (j < n)]
    cols = []
    for yi, yj in y_basis:
        y = [[int((i, j) == (yi, yj)) for j in range(m)] for i in range(m)]
        img = mul(mul(ghi_res, y, p), gh_res, p)
        cols.append([img[i][j] for i, j in lower_pos])
    a_rows = list(zip(*cols))
    ncols = len(y_basis)
    pb = p ** beta
    checked = 0
    for digits in product(range(p), repeat=len(lower_pos)):
        target = list(digits)
        reduced, piv = row_reduce([[*row, t] for row, t in zip(a_rows, target)], p)
        if piv and piv[-1] == ncols:
            return {"passed": False, "checked": checked,
                    "detail": "no connecting subgroup element for a representative"}
        sol = [0] * ncols
        for row, c in zip(reduced, piv):
            sol[c] = row[ncols]
        y = [[0] * m for _ in range(m)]
        for val, (yi, yj) in zip(sol, y_basis):
            y[yi][yj] = val
        h = [[int(i == j) + pb * y[i][j] for j in range(m)] for i in range(m)]
        h_inv = [[(int(i == j) - pb * y[i][j]) % modulus for j in range(m)] for i in range(m)]
        x = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (i, j) in zip(target, lower_pos):
            x[i][j] = pb * val
        if not upper_unit(mul(ghi_res, mul(h, gh_res, modulus), modulus), beta):
            return {"passed": False, "checked": checked,
                    "detail": "witness conjugate left the depth-beta Iwahori"}
        k_res = mul(ghi_res, mul(h_inv, mul(gh_res, x, modulus), modulus), modulus)
        if not upper_unit(k_res, beta + 1):
            return {"passed": False, "checked": checked,
                    "detail": "residual factor left the depth-(beta+1) Iwahori"}
        checked += 1
    return {"passed": True, "checked": checked,
            "detail": f"all {checked} representatives connected"}


@pytest.mark.parametrize("n, p, beta", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_double_coset_singleton_matches_per_representative_solve(n, p, beta):
    assert iw.double_coset_singleton(n, p, beta) == _double_coset_oracle(n, p, beta)


def _per_representative_loop(n, p, beta):
    """The enumeration with one solve and one conjugation mod p^(beta+1) per
    representative, as it ran before the unit images were added up in
    odometer order; it reads the solver and the conjugation through the
    module, so a monkeypatched one reaches it too."""
    m = 2 * n
    modulus = p ** (beta + 1)
    pb = p ** beta
    y_basis, lower_pos, solve = iw._subgroup_solver(n, p)
    checked = 0
    for digits in product(range(p), repeat=n * (2 * n - 1)):
        target = list(digits)
        sol = solve(target)
        if sol is None:
            return {"passed": False, "checked": checked,
                    "detail": "no connecting subgroup element for a representative"}
        h = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (yi, yj) in zip(sol, y_basis):
            h[yi][yj] += pb * val
        conj = iw._conjugate(h, n, modulus)
        if not iw.iwahori_member(conj, p, beta, modulus):
            return {"passed": False, "checked": checked,
                    "detail": "witness conjugate left the depth-beta Iwahori"}
        x = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (i, j) in zip(target, lower_pos):
            x[i][j] = pb * val
        k_res = iw._mod_mul([[2 * (i == j) - v for j, v in enumerate(row)]
                             for i, row in enumerate(conj)], x, modulus)
        if not iw.iwahori_member(k_res, p, beta + 1, modulus):
            return {"passed": False, "checked": checked,
                    "detail": "residual factor left the depth-(beta+1) Iwahori"}
        checked += 1
    return {"passed": True, "checked": checked,
            "detail": f"all {checked} representatives connected"}


@pytest.mark.parametrize("n, p, beta", [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 2, 1), (2, 2, 3)])
def test_odometer_matches_per_representative_loop(n, p, beta):
    assert iw.double_coset_singleton(n, p, beta) == _per_representative_loop(n, p, beta)


@pytest.mark.parametrize("n, p, beta", [(2, 3, 1), (2, 5, 2), (3, 2, 1)])
def test_double_coset_solves_and_conjugates_once_per_unit_target(monkeypatch, n, p, beta):
    calls = {"solve": 0, "conjugate": 0}
    true_solver, true_conjugate = iw._subgroup_solver, iw._conjugate

    def counting_solver(n, p):
        y_basis, lower_pos, solve = true_solver(n, p)

        def counted(target):
            calls["solve"] += 1
            return solve(target)

        return y_basis, lower_pos, counted

    def counting_conjugate(h, n, modulus):
        # the solver's own conjugations run mod p and are not counted
        calls["conjugate"] += modulus == p ** (beta + 1)
        return true_conjugate(h, n, modulus)

    monkeypatch.setattr(iw, "_subgroup_solver", counting_solver)
    monkeypatch.setattr(iw, "_conjugate", counting_conjugate)
    assert iw.double_coset_singleton(n, p, beta)["passed"]
    assert calls == {"solve": n * (2 * n - 1), "conjugate": n * (2 * n - 1)}


def test_double_coset_work_does_not_grow_with_the_representatives(monkeypatch):
    # the products run per unit target and the two full membership tests
    # for the first representative only; the certificate settles the other
    # representatives with one check per unit target
    true_mod_mul, true_member = iw._mod_mul, iw.iwahori_member

    def calls(p):
        count = {"mod_mul": 0, "iwahori_member": 0}

        def counting_mod_mul(*args):
            count["mod_mul"] += 1
            return true_mod_mul(*args)

        def counting_member(*args):
            count["iwahori_member"] += 1
            return true_member(*args)

        monkeypatch.setattr(iw, "_mod_mul", counting_mod_mul)
        monkeypatch.setattr(iw, "iwahori_member", counting_member)
        assert iw.double_coset_singleton(2, p, 1)["checked"] == p ** 6
        return count

    at_3 = calls(3)
    assert at_3 == calls(5)
    assert at_3["iwahori_member"] == 2


_CONJ_LEFT = "witness conjugate left the depth-beta Iwahori"
_K_LEFT = "residual factor left the depth-(beta+1) Iwahori"

# (checked, detail) for each unit target r, as the enumeration with one
# explicit product (2I - conj) x and two full membership tests per
# representative returned them
_TAMPERED_UNIT_PINS = {
    (2, 3, 1): {"solve": ([243, 81, 27, 9, 3, 1], _K_LEFT),
                "conjugate": ([243, 81, 27, 9, 3, 1], _CONJ_LEFT),
                "diagonal": ([243, 81, 27, 9, 3, 1], _K_LEFT)},
    (3, 2, 1): {mode: ([16384, 8192, 4096, 2048, 1024, 512, 256, 128, 64, 32, 16,
                        8, 4, 2, 1], detail)
                for mode, detail in [("solve", _K_LEFT), ("conjugate", _CONJ_LEFT),
                                     ("diagonal", _CONJ_LEFT)]},
}


@pytest.mark.parametrize("enumerate_", [iw.double_coset_singleton, _per_representative_loop])
def test_wrong_solution_for_the_slowest_digit_is_caught_after_a_carry(monkeypatch, enumerate_):
    # each unit target e_r gets a wrong image: its subgroup part off by one
    # coordinate ("solve"), or its conjugate mod p^(beta+1) off by one below
    # the diagonal ("conjugate") or on it ("diagonal").  e_r is first reached
    # at p^(nroots-1-r), after every faster digit has wrapped, and the
    # failures there cover each branch of both membership tests.
    true_solver, true_conjugate = iw._subgroup_solver, iw._conjugate
    for (n, p, beta), modes in _TAMPERED_UNIT_PINS.items():
        m, nroots = 2 * n, n * (2 * n - 1)
        y_basis, _, solve = true_solver(n, p)
        for mode, (pinned_checked, detail) in modes.items():
            for r, checked in enumerate(pinned_checked):
                unit = [int(k == r) for k in range(nroots)]
                unit_h = [[int(i == j) for j in range(m)] for i in range(m)]
                for val, (yi, yj) in zip(solve(unit), y_basis):
                    unit_h[yi][yj] += p ** beta * val

                def tampered_solver(n_, p_):
                    y_basis_, lower_pos_, solve_ = true_solver(n_, p_)

                    def wrong(target):
                        sol = solve_(target)
                        if mode == "solve" and target == unit:
                            sol[0] = (sol[0] + 1) % p_
                        return sol

                    return y_basis_, lower_pos_, wrong

                def tampered_conjugate(h, n_, modulus):
                    conj = true_conjugate(h, n_, modulus)
                    if modulus == p ** (beta + 1) and h == unit_h:
                        if mode == "conjugate":
                            conj[1][0] += 1
                        elif mode == "diagonal":
                            conj[0][0] += 1
                    return conj

                monkeypatch.setattr(iw, "_subgroup_solver", tampered_solver)
                monkeypatch.setattr(iw, "_conjugate", tampered_conjugate)
                rep = enumerate_(n, p, beta)
                assert (rep["passed"], rep["checked"], rep["detail"]) == (False, checked, detail), \
                    (n, p, beta, mode, r)


# sha256 of the JSON list of (passed, checked, detail) that the odometer
# returned for the tampers of the test below when it updated conj, 2I - conj
# and k through the unit images on every representative, carries included
_TAMPERED_IMAGE_OUTCOMES = "5679e57d68956c2b71ea96197f2505996babd3fed329c5b934fb05398addeb39"


def test_odometer_fast_step_matches_the_general_step_under_tampering(monkeypatch):
    # every entry of every unit image mod p^(beta+1) is moved by +1, -1, p
    # and p^beta (at (2, 5, 1) only the fastest digit's): some moves break
    # the premise C = 0 mod p^beta of the certificate, which sends the
    # enumeration to its recompute mode, some keep it and some keep the
    # representatives connected.  The per-representative loop is no oracle
    # here: it tampers the exact unit h only, not the sums of unit images
    # that conj is made of; `_image_sum_oracle` below is one.
    true_conjugate = iw._conjugate
    outcomes = []
    for (n, p, beta), fastest_only in [((2, 3, 1), False), ((2, 3, 2), False),
                                       ((2, 2, 2), False), ((2, 5, 1), True)]:
        m, nroots, modulus = 2 * n, n * (2 * n - 1), p ** (beta + 1)
        y_basis, _, solve = iw._subgroup_solver(n, p)
        for r in [nroots - 1] if fastest_only else range(nroots):
            unit_h = [[int(i == j) for j in range(m)] for i in range(m)]
            for val, (yi, yj) in zip(solve([int(k == r) for k in range(nroots)]), y_basis):
                unit_h[yi][yj] += p ** beta * val
            for i, j, delta in product(range(m), range(m), (1, -1, p, p ** beta)):
                def tampered(h, n_, modulus_):
                    conj = true_conjugate(h, n_, modulus_)
                    if modulus_ == modulus and h == unit_h:
                        conj[i][j] = (conj[i][j] + delta) % modulus
                    return conj

                monkeypatch.setattr(iw, "_conjugate", tampered)
                rep = iw.double_coset_singleton(n, p, beta)
                outcomes.append([rep["passed"], rep["checked"], rep["detail"]])
    assert len(outcomes) == 3 * 6 * 16 * 4 + 16 * 4
    assert 0 < sum(passed for passed, _, _ in outcomes) < len(outcomes)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == _TAMPERED_IMAGE_OUTCOMES

    # a slower image moved by 2 or 3 on the diagonal entry (a, a) of the
    # fastest digit's position (a, b) keeps both diagonals units mod 5 at
    # its first digit, and moves p^beta times column a of 2I - conj, which
    # each later move of the fastest digit adds to k
    y_basis, lower_pos, solve = iw._subgroup_solver(2, 5)
    a = lower_pos[-1][0]
    for r, checked in enumerate([3126, 626, 126, 25, 5]):
        unit_h = [[int(i == j) for j in range(4)] for i in range(4)]
        for val, (yi, yj) in zip(solve([int(k == r) for k in range(6)]), y_basis):
            unit_h[yi][yj] += 5 * val
        for delta in (2, 3):
            def tampered(h, n_, modulus_):
                conj = true_conjugate(h, n_, modulus_)
                if modulus_ == 25 and h == unit_h:
                    conj[a][a] = (conj[a][a] + delta) % 25
                return conj

            monkeypatch.setattr(iw, "_conjugate", tampered)
            assert iw.double_coset_singleton(2, 5, 1) == \
                {"passed": False, "checked": checked, "detail": _K_LEFT}, (r, delta)


def _image_sum_oracle(n, p, beta, images):
    """The enumeration read off the unit images alone, `images[r]` being
    C_r = conj_r - I as int rows mod p^(beta+1), or None for a unit target
    with no solution.  At representative t digit r has moved
    t // p^(nroots-1-r) times, wraps included, so conj = I + the sum of
    moves_r C_r, and k = (2I - conj) x is an explicit product; a missing
    image fails once its digit has moved, before both membership tests."""
    m, nroots = 2 * n, n * (2 * n - 1)
    modulus, pb = p ** (beta + 1), p ** beta
    lower_pos = [(i, j) for i in range(m) for j in range(m) if i > j]

    def upper_unit(res, depth):
        return (all(res[i][i] % p for i in range(m))
                and all(res[i][j] % p ** depth == 0 for i in range(m) for j in range(i)))

    for t in range(p ** nroots):
        moves = [t // p ** (nroots - 1 - r) for r in range(nroots)]
        detail = None
        if any(c is None and mv for c, mv in zip(images, moves)):
            detail = "no connecting subgroup element for a representative"
        else:
            conj = [[(int(i == j) + sum(mv * c[i][j] for mv, c in zip(moves, images) if mv))
                     % modulus for j in range(m)] for i in range(m)]
            x = [[int(i == j) for j in range(m)] for i in range(m)]
            for mv, (i, j) in zip(moves, lower_pos):
                x[i][j] = pb * (mv % p)
            k = [[sum((2 * (i == s) - conj[i][s]) * x[s][j] for s in range(m)) % modulus
                  for j in range(m)] for i in range(m)]
            if not upper_unit(conj, beta):
                detail = _CONJ_LEFT
            elif not upper_unit(k, beta + 1):
                detail = _K_LEFT
        if detail:
            return {"passed": False, "checked": t, "detail": detail}
    return {"passed": True, "checked": p ** nroots,
            "detail": f"all {p ** nroots} representatives connected"}


def test_odometer_matches_the_image_sum_oracle_under_random_tampers(monkeypatch):
    # seeded tampers of 1-3 entries across the unit images, by +-1, +-p,
    # p^beta or a random residue, and now and then a unit target with no
    # solution: the certificate (every image still 0 mod p^beta) and the
    # recompute mode must both give the oracle's verdict, count and detail
    true_solver, true_conjugate = iw._subgroup_solver, iw._conjugate
    configs = [(2, 3, 1), (2, 3, 2), (2, 2, 2), (2, 2, 3)]

    def enumerate_tampered(n, p, beta, tampers, missing):
        # each (r, i, j, delta) moves entry (i, j) of the conjugate of unit
        # target r, and the unit targets in `missing` get no solution;
        # returns the result, which must be the oracle's, and whether every
        # image stays 0 mod p^beta
        m, nroots, modulus = 2 * n, n * (2 * n - 1), p ** (beta + 1)
        y_basis, _, solve = true_solver(n, p)
        tampered = {}
        for r in range(nroots):
            h = [[int(i == j) for j in range(m)] for i in range(m)]
            for val, (yi, yj) in zip(solve([int(k == r) for k in range(nroots)]), y_basis):
                h[yi][yj] += p ** beta * val
            tampered[r] = (h, true_conjugate(h, n, modulus))
        for r, i, j, delta in tampers:
            conj = tampered[r][1]
            conj[i][j] = (conj[i][j] + delta) % modulus
        images = [None if r in missing else
                  [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(conj)]
                  for r, (_, conj) in tampered.items()]
        unsolved = [[int(k == r) for k in range(nroots)] for r in missing]

        def solver(n_, p_):
            y_basis_, lower_pos_, solve_ = true_solver(n_, p_)
            return y_basis_, lower_pos_, lambda t: None if t in unsolved else solve_(t)

        def conjugate(h, n_, modulus_):
            for h_r, conj in tampered.values():
                if modulus_ == modulus and h == h_r:
                    return [row[:] for row in conj]
            return true_conjugate(h, n_, modulus_)

        monkeypatch.setattr(iw, "_subgroup_solver", solver)
        monkeypatch.setattr(iw, "_conjugate", conjugate)
        rep = iw.double_coset_singleton(n, p, beta)
        assert rep == _image_sum_oracle(n, p, beta, images), (n, p, beta, tampers, missing)
        return rep, all(v % p ** beta == 0 for c in images if c for row in c for v in row)

    rnd = random.Random(34)
    outcomes = {"certificate": set(), "recompute": set()}
    for case in range(160):
        n, p, beta = configs[case % 4]
        m, nroots, modulus = 2 * n, n * (2 * n - 1), p ** (beta + 1)
        tampers = []
        for _ in range(rnd.randint(1, 3)):
            r, i, j = rnd.randrange(nroots), rnd.randrange(m), rnd.randrange(m)
            delta = rnd.choice([1, -1, p, -p, p ** beta, rnd.randrange(modulus)])
            tampers.append((r, i, j, delta))
        missing = [rnd.randrange(nroots)] if rnd.random() < 0.1 else []
        rep, exact = enumerate_tampered(n, p, beta, tampers, missing)
        outcomes["certificate" if exact else "recompute"].add(rep["detail"].split()[0])
    # both modes reach a pass and a failure of each membership test, and a
    # missing image is caught
    assert outcomes["certificate"] >= {"all", "residual", "no"}
    assert outcomes["recompute"] >= {"all", "witness", "residual"}

    # a second draw keeps the premise: the deltas are multiples of p^beta and
    # one or two unit targets have no solution, so the certificate fails each
    # case, at representative p^(nroots-1-r) for the last failing digit r
    rnd = random.Random(36)
    failures = set()
    for case in range(40):
        n, p, beta = configs[case % 4]
        m, nroots = 2 * n, n * (2 * n - 1)
        tampers = [(rnd.randrange(nroots), rnd.randrange(m), rnd.randrange(m),
                    p ** beta * rnd.randrange(1, p)) for _ in range(rnd.randint(1, 3))]
        missing = rnd.sample(range(nroots), rnd.randint(1, 2))
        rep, exact = enumerate_tampered(n, p, beta, tampers, missing)
        assert exact and not rep["passed"]
        failures.add((rep["checked"], rep["detail"].split()[0]))
    assert len({checked for checked, _ in failures}) >= 3
    assert {detail for _, detail in failures} == {"residual", "no"}


@pytest.mark.parametrize("enumerate_", [iw.double_coset_singleton, _per_representative_loop])
def test_wrong_conjugate_is_caught(monkeypatch, enumerate_):
    # a conjugation mod p^(beta+1) off by one below the diagonal for every
    # h but the identity; the solver's conjugations mod p are left alone
    true_conjugate = iw._conjugate

    def tampered(h, n, modulus):
        conj = true_conjugate(h, n, modulus)
        identity = [[int(i == j) for j in range(len(h))] for i in range(len(h))]
        if modulus == 3 ** 2 and h != identity:
            conj[1][0] += 1
        return conj

    monkeypatch.setattr(iw, "_conjugate", tampered)
    rep = enumerate_(2, 3, 1)
    assert rep["passed"] is False
    assert rep["checked"] == 1
    assert rep["detail"] == "witness conjugate left the depth-beta Iwahori"


def test_double_coset_wrong_solution_is_caught(monkeypatch):
    # one representative gets a subgroup part off by one coordinate: its
    # residual factor must leave the depth-(beta+1) Iwahori
    true_solver = iw._subgroup_solver

    def tampered_solver(n, p):
        y_basis, lower_pos, solve = true_solver(n, p)

        def wrong(target):
            sol = solve(target)
            if target == [0, 0, 0, 0, 0, 1]:
                sol[0] = (sol[0] + 1) % p
            return sol

        return y_basis, lower_pos, wrong

    monkeypatch.setattr(iw, "_subgroup_solver", tampered_solver)
    rep = iw.double_coset_singleton(2, 3, 1)
    assert rep["passed"] is False
    assert rep["checked"] == 1
    assert rep["detail"] == "residual factor left the depth-(beta+1) Iwahori"


def test_double_coset_budget(monkeypatch):
    # the suite charges each check before its enumeration starts; the gl2
    # enumeration comes first in report order
    from padicdesk import work
    from padicdesk.suites import run_iwahori_suite

    monkeypatch.setattr(iw, "gl2_index_enumeration", lambda *args: pytest.fail("enumerated"))
    monkeypatch.setattr(iw, "double_coset_singleton", lambda *args: pytest.fail("enumerated"))
    with work.budget(10), pytest.raises(work.BudgetExceeded,
                                        match="gl2_enumeration needs 2187 tuples > budget 10"):
        run_iwahori_suite(2, 3, 1)


def test_double_coset_needs_positive_beta():
    with pytest.raises(ValueError, match="beta must be >= 1"):
        iw.double_coset_singleton(2, 3, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("beta", [1, 2])
def test_unipotent_closed_form_inverse(p, beta):
    # double_coset_singleton inverts h = I + p^beta Y as I - p^beta Y mod p^(beta+1)
    rnd = random.Random(p * 10 + beta)
    modulus = p ** (beta + 1)
    for _ in range(20):
        m = rnd.choice([2, 4, 6])
        y = [[rnd.randrange(-3 * p, 3 * p) for _ in range(m)] for _ in range(m)]
        h = ExactMatrix([[int(i == j) + p ** beta * y[i][j] for j in range(m)] for i in range(m)])
        closed = [[(int(i == j) - p ** beta * y[i][j]) % modulus for j in range(m)]
                  for i in range(m)]
        assert modular_inverse(h, modulus).rows == closed


def _reduce(mat, q):
    """An integral Fraction matrix reduced entrywise mod q."""
    assert all(x.denominator == 1 for row in mat.rows for x in row)
    return [[int(x) % q for x in row] for row in mat.rows]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_residue_product_matches_exact_products(n, p, M):
    # _mod_mul and _conjugate against ExactMatrix products over Fraction, on
    # integer matrices with negative entries and zeros for the skip
    rnd = random.Random(100 * n + 10 * p + M)
    q = p ** M
    m = 2 * n
    gh = iw.u_element(n, False)
    gh_inv = rational_inverse(gh)

    def draw(rows, cols):
        return [[rnd.randrange(-3 * q, 3 * q) if rnd.random() < 0.7 else 0
                 for _ in range(cols)] for _ in range(rows)]

    def exact(rows):
        return ExactMatrix([[Fraction(x) for x in row] for row in rows])

    for _ in range(20):
        a, b = draw(m, m), draw(m, m)
        assert iw._mod_mul(a, b, q) == _reduce(exact(a) * exact(b), q)
        assert iw._conjugate(a, n, q) == _reduce(gh_inv * exact(a) * gh, q)
        row, rect = draw(1, m), draw(m, m + 2)
        assert iw._mod_mul(row, rect, q) == _reduce(exact(row) * exact(rect), q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_conjugator_rows(n):
    gh, gh_inv = iw._simple_conjugator(n)
    u = iw.u_element(n, False)
    assert gh == u.rows
    assert gh_inv == rational_inverse(u).rows
    assert all(type(x) is int for row in gh + gh_inv for x in row)


def _subgroup_member(h, n, p, beta, M):
    """h in H and gammahat^-1 h gammahat in the depth-beta Iwahori (mod p^M)."""
    modulus = p ** M
    return (iw.block_diagonal_member(h, n, modulus)
            and iw.iwahori_member(iw._conjugate(h, n, modulus), p, beta, modulus))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_intrinsic_description_matches_conjugated_membership(p):
    # the intrinsic depth-(beta+1) description agrees with membership of the
    # conjugate, on samples of the depth-beta subgroup of both kinds
    rnd = random.Random(p)
    seen = set()
    for n in (2, 3):
        for beta in (1, 2):
            M = beta + 2
            for k in range(100):
                h = iw.sample_block_subgroup(n, p, beta + (k % 2 == 0), M, rnd)
                assert all(0 <= x < p ** M for row in h for x in row)
                assert _subgroup_member(h, n, p, beta, M)
                deep = _subgroup_member(h, n, p, beta + 1, M)
                assert iw.intrinsic_subgroup_member(h, n, p, beta + 1) == deep
                seen.add(deep)
    assert seen == {False, True}


def test_intersection_check_fails_with_a_false_intrinsic_description(monkeypatch):
    # the check compares two independent predicates, so a wrong one is caught
    monkeypatch.setattr(iw, "intrinsic_subgroup_member", lambda h, n, p, depth: True)
    rep = iw.intersection_check(2, 3, 1, 60, seed=7)
    assert rep["passed"] is False


def test_intersection_and_similitude():
    rep = iw.intersection_check(2, 3, 1, 60, seed=7)
    assert rep["passed"] and rep["deep_members"] > 0
    rep = iw.similitude_congruence_check(2, 3, 1, 100, seed=7)
    assert rep["passed"]
    rep = iw.similitude_congruence_check(2, 3, 2, 50, seed=9)
    assert rep["passed"]


def test_orbit_stabilizers():
    r = iw.orbit_stabilizer_uv(2)
    assert r["stabilizer_dim"] == 2 and r["open"]
    r = iw.orbit_stabilizer_uv(3)
    assert r["stabilizer_dim"] == 2 and r["open"]
    r = iw.orbit_stabilizer_uv(2, distinguished=False)
    assert r["open"]
    r = iw.orbit_stabilizer_gammahat(2)
    assert r["open"]
    r = iw.orbit_stabilizer_gammahat(3)
    assert r["open"]


def test_uv_stabilizer_contains_diagonal_pattern():
    # diag(x, y, ..., y) fixes the pair coset: re-verify by direct membership
    n = 2
    m = 2 * n
    u = iw.u_element(n)
    x, y = Fraction(5), Fraction(2)
    X = ExactMatrix([[x if i == j == 0 else (y if i == j else Fraction(0))
                      for j in range(m)] for i in range(m)])
    conj = rational_inverse(u) * X * u
    for i in range(m):
        for j in range(i):
            assert conj.rows[i][j] == 0


def test_coset_witness_identity():
    for n in (2, 3):
        for beta in (1, 2, 3):
            rep = iw.coset_witness_identity(n, beta, 3)
            assert rep["passed"], (n, beta)
    rep = iw.coset_witness_identity(2, 1, 5)
    assert rep["passed"]


def test_hecke_diagonal_multiplicativity():
    for n in (2, 3):
        for e in (1, 2, 3):
            assert iw.hecke_diagonal_multiplicativity(n, 3, e)


def test_frobenius_twist_identity():
    for n in (2, 3):
        for bp in (1, 2):
            rep = iw.frobenius_twist_identity(n, 3, bp)
            assert rep["passed"], (n, bp)
    rep = iw.frobenius_twist_identity(2, 5, 1)
    assert rep["passed"]


def _symbolic_twist_oracle(n, p, bp):
    """Both sides of the Frobenius twist identity (times xi_c) as matrices of Poly in c."""
    m = 2 * n

    def lift(mat):
        return ExactMatrix([[Poly.constant(x) for x in row] for row in mat.rows])

    xib = ExactMatrix.identity(m)
    xib.rows[0][0] = Fraction(1, p ** bp)
    c = Poly.variable(0)
    xi_c = ExactMatrix.identity(m, Poly.constant(1), Poly.constant(0))
    xi_c.rows[0][0] = c + p ** bp
    u_c = ExactMatrix.identity(m, Poly.constant(1), Poly.constant(0))
    u_c.rows[0][n] = c
    gamma = lift(iw.gamma_element(n))
    return (lift(xib) * xi_c * gamma).rows == (gamma * lift(xib) * u_c * xi_c).rows


def test_frobenius_twist_identity_fails_for_a_perturbed_gamma(monkeypatch):
    # the three-point symbolic check agrees with the identity over Poly in c,
    # for gamma perturbed by one off-diagonal unit at each slot, and fails at (1, 0)
    true_gamma = iw.gamma_element
    n, p, bp = 2, 3, 1
    for i, j in product(range(2 * n), repeat=2):
        if i == j:
            continue

        def perturbed(n, i=i, j=j):
            g = true_gamma(n)
            g.rows[i][j] += 1
            return g

        monkeypatch.setattr(iw, "gamma_element", perturbed)
        passed = iw.frobenius_twist_identity(n, p, bp)["passed"]
        assert passed == _symbolic_twist_oracle(n, p, bp), (i, j)
        if (i, j) == (1, 0):
            assert passed is False


def test_membership_predicates():
    res = [[1, 0], [3, 2]]
    assert iw.iwahori_member(res, 3, 1, 9)
    assert not iw.iwahori_member([[1, 0], [1, 2]], 3, 1, 9)
    assert not iw.iwahori_member([[3, 0], [0, 1]], 3, 1, 9)
    assert iw.block_diagonal_member([[1, 2, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 5, 1]], 2, 9)
    assert not iw.block_diagonal_member([[1, 0, 1, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]], 2, 9)
