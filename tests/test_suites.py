"""A failing check names its first failing instance and moves no other check.

Each case puts a fault into one check of a suite, one that hits at least two
of its instances, and compares the `--seed 7` report with the passing one.
Every other entry must be unchanged: a check never stops at a failure, so
the random draws of the checks after it stay where they were.  A case may
name note fields of its check, with the values the fault gives them.
"""

import json

import pytest

from padicdesk import iwahori, mahler, suites, tate
from padicdesk.cli import main
from padicdesk.matrices import ExactMatrix


def _mahler(monkeypatch):
    # a reconstructed table reads one too high past its second entry: at
    # p = 3, x = 2 at depth 1 and x = 2..8 at depth 2
    real = mahler.mahler_coefficients

    def fault(values, p, K=None):
        if K is None:  # only the reconstruction check sizes the series by its table
            values = values[:2] + [v + 1 for v in values[2:]]
        return real(values, p, K)

    monkeypatch.setattr(mahler, "mahler_coefficients", fault)
    return "mahler.reconstruction", {"depth": 1, "x": 2}


def _tate(monkeypatch):
    # direct iteration off by its input at k = 2 for lam = p, at every ring,
    # a and b; the recursion check, which iterates too, runs at lam = 1
    real = tate.binomial_of_derivation_direct

    def fault(k, f, deriv):
        out = real(k, f, deriv)
        return out + f if k == 2 and deriv.lam == 3 else out

    monkeypatch.setattr(tate, "binomial_of_derivation_direct", fault)
    return "tate.closed_equals_direct", {"ring": 1, "lam": "3", "k": 2, "a": 0, "b": 0}


def _tate_norm_bound(monkeypatch):
    # the certificate of the 56 x 56 derivation matrix reads one lower; the
    # 4 x 4 and 1 x 1 operators of the other tate checks keep their tables
    real = tate.epsilon_action_bound

    def fault(T, eps, K, p):
        rep = real(T, eps, K, p)
        if T.nrows == 56:
            rep["exponents"] = [e - 1 for e in rep["exponents"]]
        return rep

    monkeypatch.setattr(tate, "epsilon_action_bound", fault)
    return "tate.weighted_norm_bound", {"k": 0, "a": 0}, {"certified_exponent": "-1"}


def _rep(monkeypatch):
    # two of the four Pieri instances have j = 2
    real = suites.pieri_character_check
    monkeypatch.setattr(suites, "pieri_character_check",
                        lambda kappa, j: j != 2 and real(kappa, j))
    return "rep.pieri_characters", {"kappa": [2, 1, 0], "j": 2}


def _uea(monkeypatch):
    # every monomial at n = 3, i = 3
    real = suites.commutator_leibniz_check
    monkeypatch.setattr(suites, "commutator_leibniz_check",
                        lambda n, i, mono: i != 3 and real(n, i, mono))
    return "uea.commutator_leibniz", {"n": 3, "i": 3, "mono": []}


def _iwahori(monkeypatch):
    # e = 1 and e = 2 at nn = 3
    real = iwahori.hecke_diagonal_multiplicativity
    monkeypatch.setattr(iwahori, "hecke_diagonal_multiplicativity",
                        lambda nn, p, e: nn != 3 and real(nn, p, e))
    return "iwahori.hecke_diagonal", {"nn": 3, "e": 1}


def _iwahori_factor(monkeypatch):
    # the lower factor loses its (1, 0) entry: nonzero from perm (2, 1) on,
    # where X_10 = T_2
    real = iwahori.iwahori_factor

    def fault(mat):
        xp, xm = real(mat)
        if xm.nrows > 1:
            xm.rows[1][0] = xm.rows[1][0] * 0
        return xp, xm

    monkeypatch.setattr(iwahori, "iwahori_factor", fault)
    return "iwahori.factorization_diagonal", {"perm": [2, 1]}


def _iwahori_double_coset(monkeypatch):
    # the image of unit target r = 3 moves by 1 at (1, 0) mod p^(beta+1), at
    # the seed's p = 3, n = 2, beta = 1: digit 3 first moves at
    # representative 3^(6-1-3) = 9, and every later one uses the image
    real = iwahori._conjugate
    y_basis, _, solve = iwahori._subgroup_solver(2, 3)
    unit_h = [[int(i == j) for j in range(4)] for i in range(4)]
    for val, (yi, yj) in zip(solve([int(k == 3) for k in range(6)]), y_basis):
        unit_h[yi][yj] += 3 * val

    def fault(h, n, modulus):
        conj = real(h, n, modulus)
        if modulus == 9 and h == unit_h:
            conj[1][0] = (conj[1][0] + 1) % 9
        return conj

    monkeypatch.setattr(iwahori, "_conjugate", fault)
    return ("iwahori.double_coset_singleton",
            {"detail": "witness conjugate is not I mod p^beta"}, {"checked": 9})


def _iwahori_similitude(monkeypatch):
    # an integer determinant one too high: at seed 7 the fifth sample's
    # det A + 1 is a multiple of p while det B - det A is not a multiple of
    # p^2, so four samples pass; the intersection check reads no determinant
    real = ExactMatrix.det

    def fault(self):
        out = real(self)
        return out + 1 if type(out) is int else out

    monkeypatch.setattr(ExactMatrix, "det", fault)
    return "iwahori.similitude_congruence", {}, {"samples": 4}


def _interp(monkeypatch):
    # every grid instance with n = 3
    real = suites.cpr_identity_check

    def fault(data, chis, e, n):
        rep = real(data, chis, e, n)
        return {**rep, "passed": rep["passed"] and n != 3}

    monkeypatch.setattr(suites, "cpr_identity_check", fault)
    return "interp.cpr_identity", {"p": 3, "n": 3, "d": 1, "c0": 1, "log": 1}


@pytest.mark.parametrize("suite, fault", [
    ("mahler", _mahler), ("tate", _tate), ("tate", _tate_norm_bound), ("rep", _rep),
    ("uea", _uea), ("iwahori", _iwahori), ("iwahori", _iwahori_factor),
    ("iwahori", _iwahori_double_coset), ("iwahori", _iwahori_similitude), ("interp", _interp),
], ids=["mahler", "tate", "tate-norm-bound", "rep", "uea", "iwahori", "iwahori-factor",
        "iwahori-double-coset", "iwahori-similitude", "interp"])
def test_failing_check_names_its_first_failing_instance(suite, fault, monkeypatch, capsys):
    argv = ["--seed", "7", "verify", "--suite", suite]
    assert main(argv) == 0
    passing = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    cid, first, *notes = fault(monkeypatch)
    notes = notes[0] if notes else {}
    assert main(argv) == 1
    failing = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert [c["id"] for c in failing] == [c["id"] for c in passing]
    for before, after in zip(passing, failing):
        if after["id"] == cid:
            witness = after.pop("first_failure")
            assert {key: witness.get(key) for key in first} == first
            assert all(before[key] != value for key, value in notes.items())
            assert after == {**before, "passed": False, **notes}
        else:
            assert after == before
