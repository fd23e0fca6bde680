"""The work budget: `work.charge`, its one owner, and every charged check.

Each charge is compared with the iterations a test-local loop of the same
shape visits, and each can end a run with exit 2 and a message naming it.
"""

import ast
import json
import re
import subprocess
import sys
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

from padicdesk import suites, tate, work
from padicdesk.cli import main

_SRC = Path(__file__).resolve().parents[1] / "src" / "padicdesk"


def _record(monkeypatch) -> dict:
    """Charges made from here on, {check: count}, still passed to the real charge."""
    seen = {}
    real = work.charge

    def record(check, count, unit):
        seen[check] = count[0] ** count[1] if isinstance(count, tuple) else count
        real(check, count, unit)

    monkeypatch.setattr(work, "charge", record)
    return seen


def _cli(args, capsys):
    code = main(args)
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# charge


def test_charge_message_names_the_check_and_the_excess():
    with work.budget(100):
        work.charge("x.check", 100, "units")
        with pytest.raises(work.BudgetExceeded) as err:
            work.charge("x.check", 101, "units")
    assert str(err.value) == "x.check needs 101 units > budget 100 (1 over)"


def test_charge_takes_a_power_and_refuses_a_huge_one_unbuilt():
    with work.budget(1000):
        work.charge("x.check", (10, 3), "units")
        with pytest.raises(work.BudgetExceeded, match=r"needs 10000 units > budget 1000 \(9000 over\)"):
            work.charge("x.check", (10, 4), "units")
        with pytest.raises(work.BudgetExceeded) as err:
            work.charge("x.check", (5, 10 ** 12), "units")
    assert str(err.value) == "x.check needs 5^1000000000000 units > budget 1000"


def test_charge_writes_a_count_too_long_to_print_by_its_bit_length(capsys, tmp_path):
    with work.budget(1000), pytest.raises(work.BudgetExceeded) as err:
        work.charge("x.check", 2 ** 9000 + 1, "units")
    assert str(err.value) == "x.check needs at least 2^9000 units > budget 1000"
    # an "n" of 2,201 digits: its count has more digits than int -> str allows
    cfg = {"p": 3, "n": 10 ** 2200, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 2
    assert out == {"error": "budget exceeded", "message": "interp.alpha_p_e needs at least"
                   " 2^14617 Satake factors > budget 1000000"}


def test_budget_is_restored_after_its_body_even_on_a_refusal():
    assert work._budget.get() == work.DEFAULT_BUDGET == 10 ** 6
    with pytest.raises(work.BudgetExceeded):
        with work.budget(5):
            work.charge("x.check", 6, "units")
    assert work._budget.get() == work.DEFAULT_BUDGET
    work.charge("x.check", 10 ** 6, "units")


def test_budget_exceeded_is_defined_and_raised_only_in_work():
    owners = {"class": set(), "raise": set(), "message": set()}
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "BudgetExceeded":
                owners["class"].add(path.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                if name == "BudgetExceeded":
                    owners["raise"].add(path.name)
            elif isinstance(node, ast.Constant) and "> budget" in str(node.value):
                owners["message"].add(path.name)
    assert owners == {"class": {"work.py"}, "raise": {"work.py"}, "message": {"work.py"}}


# ---------------------------------------------------------------------------
# each charged count equals the iterations of a loop of the same shape


@pytest.mark.parametrize("p", [3, 5])
def test_mahler_charges_count_their_loops(p, monkeypatch):
    seen = _record(monkeypatch)
    report = suites.run_mahler_suite(p, seed=7)
    # every table point against every Mahler coefficient of its table
    assert seen.pop("mahler.reconstruction") == sum(
        1 for depth in (1, 2) for _x in range(p ** depth) for _k in range(p ** depth))
    # the last slice check divides by a Gauss sum in Q(zeta_f), f = lcm(p^beta, order),
    # charged (deg Phi_f)^2
    slices = [c["id"] for c in report["checks"] if c["id"].startswith("mahler.fourier_slice")]
    beta, order = map(int, re.fullmatch(r".*\.b(\d+)\.bp\d+\.o(\d+)", slices[-1]).groups())
    f = lcm(p ** beta, order)
    deg = sum(1 for k in range(f) if gcd(k, f) == 1)
    assert seen.pop("cyclotomic.inverse") == deg * deg
    fourier = {c["id"] for c in report["checks"] if c["id"].startswith("mahler.fourier")}
    assert set(seen) == fourier
    for cid, count in seen.items():
        kind, n, beta, bp = re.fullmatch(
            r"mahler\.fourier_(slice|indicator)(?:\.n(\d+))?\.b(\d+)\.bp(\d+)(?:\.o\d+)?",
            cid).groups()
        beta, bp = int(beta), int(bp)
        if kind == "slice":
            # every point of p^-beta Z / p^beta Z against every unit of Z/p^beta
            visits = sum(1 for _m in range(p ** (2 * beta)) for c in range(p ** beta) if c % p)
        else:
            # every point, then per coordinate one pass over the p^(beta-bp) entries
            visits = 0
            for ms in product(range(p ** beta), repeat=int(n) - 1):
                for _m in ms:
                    visits += sum(1 for _j in range(p ** (beta - bp)))
        assert count == visits, cid


def test_iwahori_charges_count_their_loops(monkeypatch):
    p = 3
    seen = _record(monkeypatch)
    report = suites.run_iwahori_suite(2, p, 1, seed=7)
    checked = {c["id"]: c for c in report["checks"]}
    assert seen["iwahori.gl2_enumeration"] == sum(
        1 for _ in product(range(p ** 2), range(p ** 2), range(0, p ** 2, p), range(p ** 2)))
    assert (seen["iwahori.double_coset_singleton"]
            == checked["iwahori.double_coset_singleton"]["checked"] == p ** 6)
    # at beta = 1 every residue fits one word: word-products count the loops
    assert (seen["iwahori.similitude_congruence"]
            == checked["iwahori.similitude_congruence"]["samples"] == 500)
    assert list(seen) == ["iwahori.gl2_enumeration", "iwahori.double_coset_singleton",
                          "iwahori.similitude_congruence"]


@pytest.mark.parametrize("p, beta, unreached, message", [
    # residues mod 3^20002 take 508 words: 729 representatives of 508^2 products each
    (3, 20000, ["double_coset_singleton", "similitude_congruence_check"],
     "iwahori.double_coset_singleton needs 188128656 word-products"
     " > budget 1000000 (187128656 over)"),
    # mod 2^6002, 100 words: the 64 representatives fit, the 500 samples do not
    (2, 6000, ["similitude_congruence_check"],
     "iwahori.similitude_congruence needs 5000000 word-products"
     " > budget 1000000 (4000000 over)"),
], ids=["double-coset", "similitude"])
def test_iwahori_residue_size_is_charged_before_the_loops(p, beta, unreached, message,
                                                          monkeypatch, capsys):
    from padicdesk import iwahori

    def loop(*args):
        raise AssertionError("the loop ran before its charge")

    for name in unreached:
        monkeypatch.setattr(iwahori, name, loop)
    code, out = _cli(["--p", str(p), "--beta", str(beta), "iwahori", "verify"], capsys)
    assert code == 2
    assert out["error"] == "budget exceeded" and out["message"] == message


def test_iwahori_residue_words_bound_the_modulus():
    from padicdesk.iwahori import residue_words

    for p in (2, 3, 5, 7, 2 ** 61 - 1):
        for beta in (1, 2, 30, 31, 1000):
            assert (p ** (beta + 2)).bit_length() <= 64 * residue_words(p, beta)
    assert residue_words(3, 1) == residue_words(5, 1) == 1


@pytest.mark.parametrize("p, r, depth", [(3, 1, 20), (3, 1, 30), (5, 1, 50), (2, 2, 19)])
def test_annihilator_scan_size_counts_its_norm_evaluations(p, r, depth, monkeypatch):
    chain = tate.OverconvergenceChain(p, r, depth)
    calls = []
    real = tate.OverconvergenceChain.norm_exponent
    monkeypatch.setattr(tate.OverconvergenceChain, "norm_exponent",
                        lambda self, v, s: calls.append(s) or real(self, v, s))
    chain.annihilator_exponent()
    assert len(calls) == chain.scan_size()


def test_tate_charges_the_chain_scan(monkeypatch):
    seen = _record(monkeypatch)
    suites.run_tate_suite(3, seed=7)
    assert list(seen) == ["tate.closed_equals_direct", "tate.weighted_norm_bound",
                          "tate.overconvergence_chain"]
    # eight steps of the binomial recurrence on the 56x56 derivation matrix, 504
    # row entries each, weighed by their words: one word each, two at the eighth step
    assert seen["tate.weighted_norm_bound"] == 9 * 504
    assert seen["tate.overconvergence_chain"] == tate.OverconvergenceChain(3, 1, 20).scan_size()


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 1)])
def test_interp_factor_charges_the_satake_factors(n, d, monkeypatch, capsys, tmp_path):
    cfg = {"p": 3, "n": n, "d": d, "e": [1] * d,
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}] * d}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    seen = _record(monkeypatch)
    assert main(["interp", "factor", "--config", str(path)]) == 0
    # alpha_(i, tau) is the product of theta_1 .. theta_i, for i < 2n, per component
    factors = sum(1 for _tau in range(d) for i in range(1, 2 * n) for _j in range(1, i + 1))
    # the identity divides by an epsilon factor in Q(zeta_6): 2 rows of 2 entries
    assert seen == {"interp.gauss_sum": 3, "interp.alpha_p_e": factors,
                    "cyclotomic.inverse": 2 * 2}


# ---------------------------------------------------------------------------
# a small --budget exits 2 and names the check


@pytest.mark.parametrize("args, message", [
    (["--budget", "50", "verify", "--suite", "mahler"],
     "mahler.reconstruction needs 90 binomial terms > budget 50 (40 over)"),
    (["--budget", "100", "verify", "--suite", "mahler"],
     "mahler.fourier_slice.b2.bp1.o2 needs 486 terms > budget 100 (386 over)"),
    (["--budget", "500", "verify", "--suite", "mahler"],
     "mahler.fourier_indicator.n3.b2.bp0 needs 1458 histogram entries > budget 500"
     " (958 over)"),
    (["--budget", "2186", "iwahori", "verify"],
     "iwahori.gl2_enumeration needs 2187 tuples > budget 2186 (1 over)"),
    (["--n", "3", "--budget", "10000", "iwahori", "verify"],
     "iwahori.double_coset_singleton needs 14348907 representatives > budget 10000"
     " (14338907 over)"),
    (["--budget", "100", "tate", "verify", "--k-max", "0", "--dmax", "3"],
     "tate.overconvergence_chain needs 113 norm evaluations > budget 100 (13 over)"),
], ids=["reconstruction", "fourier-slice", "fourier-indicator", "gl2", "double-coset",
        "chain"])
def test_small_budget_exits_2_naming_the_check(args, message, capsys):
    code, out = _cli(["--p", "3", "--seed", "7"] + args, capsys)
    assert code == 2
    assert out["error"] == "budget exceeded" and out["message"] == message
    assert "suites" in out


def test_interp_factor_n_over_budget_exits_2(capsys, tmp_path):
    cfg = {"p": 3, "n": 3, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _cli(["--budget", "14", "interp", "factor", "--config", str(path)], capsys)
    assert code == 2
    assert out == {"error": "budget exceeded",
                   "message": "interp.alpha_p_e needs 15 Satake factors > budget 14 (1 over)"}


# ---------------------------------------------------------------------------
# the budget belongs to one main() call


def test_in_process_calls_match_fresh_processes(capsys):
    runs = [["--p", "3", "--seed", "7", "--budget", "100", "verify", "--suite", "mahler"],
            ["--p", "3", "--seed", "7", "verify", "--suite", "mahler"],
            ["--p", "3", "--seed", "7", "--budget", "100", "verify", "--suite", "mahler"]]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in runs[:2]:
        proc = subprocess.run([sys.executable, "-m", "padicdesk.cli"] + argv,
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [2, 0]
    assert in_process == [fresh[0], fresh[1], fresh[0]]
    assert work._budget.get() == work.DEFAULT_BUDGET
