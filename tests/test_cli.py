import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.cli import _dumps, main

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_branch_spec_instance(capsys, tmp_path):
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[3, 2, -2, -3]], "j": [1]}
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["branch", "--weight", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["eigenspace_dimension"] == 1
    assert rep["operator_constant"] == "-1"
    assert rep["normalization_value"] == "1"
    assert all(s["unit_congruent"] for s in rep["restriction_samples"])


def test_branch_trivial_weight(capsys):
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[0, 0, 0, 0]], "j": [0]}
    code, out = run_cli(["branch", "--weight-json", json.dumps(spec)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["model_dimension"] == 1
    assert "operator_constant" not in rep


def test_branch_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "d": ')
    code, out = run_cli(["branch", "--weight", str(path)], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "invalid JSON"
    assert "line" in rep and "column" in rep


def test_branch_cone_violation(capsys):
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[3, 2, 0, -3]], "j": [0]}
    code, out = run_cli(["branch", "--weight-json", json.dumps(spec)], capsys)
    assert code == 3
    assert "violation" in json.loads(out)


def test_branch_dimension_cap(capsys):
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[3, 2, -2, -3]], "j": [1]}
    code, out = run_cli(["branch", "--weight-json", json.dumps(spec),
                         "--dim-cap", "10"], capsys)
    assert code == 2


def test_verify_single_suite(capsys):
    code, out = run_cli(["--seed", "3", "verify", "--suite", "mahler"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["suites"][0]["suite"] == "mahler"


def test_verify_determinism(capsys):
    code1, out1 = run_cli(["--seed", "7", "verify", "--suite", "interp"], capsys)
    code2, out2 = run_cli(["--seed", "7", "verify", "--suite", "interp"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_iwahori_verify(capsys):
    code, out = run_cli(["--n", "2", "--p", "2", "--beta", "1",
                         "iwahori", "verify"], capsys)
    assert code == 0
    rep = json.loads(out)
    ids = {c["id"] for c in rep["suites"][0]["checks"]}
    assert "iwahori.double_coset_singleton" in ids


def test_iwahori_budget_exit(capsys):
    # the gl2 enumeration (3^7 tuples) is charged first, in report order
    code, out = run_cli(["--n", "2", "--p", "3", "--beta", "1",
                         "--budget", "10", "iwahori", "verify"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "budget exceeded", "suites": [],
        "message": "iwahori.gl2_enumeration needs 2187 tuples > budget 10 (2177 over)"}


def test_tate_budget_exit():
    # 18,379 subset patterns at the defaults: one short of them exits 2
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--budget", "18378",
                           "tate", "verify"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "budget exceeded", "suites": [],
        "message": "tate.closed_equals_direct needs 18379 subset patterns > budget 18378"
                   " (1 over)"}
    assert proc.stderr == ""


def test_tate_budget_at_pattern_count_keeps_report(capsys):
    # the bytes of the pinned seed-7 tate report
    assert main(["--seed", "7", "--budget", "18379", "tate", "verify"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "f6be201c1f95175fab3db21216219a2bbc6f6bea412362efde91a754fbe02311")


def test_tate_report_past_default_k_pinned(capsys):
    assert main(["--p", "5", "tate", "verify", "--k-max", "10", "--dmax", "12"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "1e7a788cd2d8fcad09d89a5089903bf6c82d0ec35d7cd0fd99407be981f58c9e")


def test_tate_report_larger_truncation_pinned(capsys):
    assert main(["--seed", "7", "tate", "verify", "--k-max", "10", "--dmax", "14"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "a9f17b27a9f9a7b07d88c9b6531dd188d9137ea63da15cf431b771568626c79d")


def test_tate_report_two_generators_large_truncation_pinned(capsys):
    # integers past the default truncation's, on both rings and all three lambdas
    assert main(["--p", "3", "--seed", "13", "tate", "verify", "--k-max", "12",
                 "--dmax", "16"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "bdcb02c11bdd1298144999e842b527c5b793a0829fe1da9d8f67118b5c9a9591")


def test_tate_weighted_norm_recurrence_over_budget_exits_2():
    # 2,000 recurrence steps on the 56x56 derivation matrix, charged before they run
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--seed", "7", "--budget", "1000",
                           "tate", "verify", "--k-max", "2000", "--dmax", "3"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "budget exceeded", "suites": [],
        "message": "tate.weighted_norm_bound needs 1008000 row entries > budget 1000"
                   " (1007000 over)"}


def test_tate_weighted_norm_entry_words_over_budget_exits_2(capsys):
    # 1,983 steps fit the default budget as row entries (999,432), not as the
    # words that the growing entries of binom(T, k) take
    code, out = run_cli(["--seed", "7", "tate", "verify", "--k-max", "1983", "--dmax", "3"],
                        capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "budget exceeded", "suites": [],
        "message": "tate.weighted_norm_bound needs 345920904 entry words > budget 1000000"
                   " (344920904 over)"}


def test_interp_factor_config(capsys, tmp_path):
    cfg = {"p": 3, "n": 2, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["passed"]
    assert "half_exp" in rep["value"] and "coeffs" in rep["value"]


def test_interp_factor_bad_config(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"p": 3}')
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3


@pytest.mark.parametrize("short", ["e", "characters"])
def test_interp_factor_short_list(short, capsys, tmp_path):
    cfg = {"p": 3, "n": 2, "d": 2, "e": [1, 1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}] * 2}
    cfg[short] = cfg[short][:1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "malformed config",
                               "message": f"\"{short}\" has 1 entries, need d = 2"}


@pytest.mark.parametrize("change, message", [
    ({"at_p": float("inf")}, "cannot convert Infinity to integer ratio"),
    ({"at_p": 0}, '"at_p" must be nonzero'),
    ({"at_p": {"m": 2.5, "coeffs": ["1"]}}, '"m" must be an integer, got 2.5'),
    ({"theta_values": {"0,2": 0}}, 'theta value "0,2" must be nonzero'),
    # a key outside the identity's range would be ignored
    ({"theta_values": {"0,99": "2"}},
     'theta value "0,99" is outside 0 <= tau < d = 1, 1 <= i <= n = 2'),
    ({"theta_values": {"3,1": "2"}},
     'theta value "3,1" is outside 0 <= tau < d = 1, 1 <= i <= n = 2'),
    ({"theta_values": {"0,0": "2"}},
     'theta value "0,0" is outside 0 <= tau < d = 1, 1 <= i <= n = 2'),
    # a key that is not two integers
    ({"theta_values": {"1": "2"}}, 'theta value key "1" must be "tau,i", two integers'),
    ({"theta_values": {"a,1": "2"}}, 'theta value key "a,1" must be "tau,i", two integers'),
    ({"theta_values": {"0,1,2": "2"}},
     'theta value key "0,1,2" must be "tau,i", two integers'),
], ids=["infinite-at-p", "zero-at-p", "fractional-at-p-field", "zero-theta", "theta-i-past-n",
        "theta-tau-past-d", "theta-i-zero", "theta-key-one-part", "theta-key-not-integer",
        "theta-key-three-parts"])
def test_interp_factor_bad_value_is_malformed(change, message, capsys, tmp_path):
    cfg = {"p": 3, "n": 2, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    if "at_p" in change:
        cfg["characters"][0]["at_p"] = change["at_p"]
    else:
        cfg.update(change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # json writes float("inf") as Infinity
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "malformed config", "message": message}


@pytest.mark.parametrize("key, value, name", [
    ("p", float("inf"), '"p"'),
    ("n", 2.5, '"n"'),
    ("d", float("inf"), '"d"'),
    ("e", [float("inf")], '"e" entry'),
    ("conductor_exp", float("inf"), '"conductor_exp"'),
    ("log", float("inf"), '"log"'),
], ids=["infinite-p", "fractional-n", "infinite-d", "infinite-e", "infinite-conductor-exp",
        "infinite-log"])
def test_interp_factor_non_integer_field_is_malformed(key, value, name, tmp_path):
    # in a subprocess with a timeout: an infinite p once looped for ever in is_prime
    cfg = {"p": 3, "n": 2, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    (cfg["characters"][0] if key in ("conductor_exp", "log") else cfg)[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # json writes float("inf") as Infinity
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "interp", "factor",
                           "--config", str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stderr == ""
    bad = value[0] if isinstance(value, list) else value
    assert json.loads(proc.stdout) == {"error": "malformed config",
                                       "message": f"{name} must be an integer, got {bad!r}"}


@pytest.mark.parametrize("p, conductor_exp, message", [
    (5, 9, "interp.gauss_sum needs 1953125 units > budget 1000 (1952125 over)"),
    # a Mersenne prime: is_prime's trial division would not finish, so the
    # budget is checked before it
    (2 ** 127 - 1, 1, f"interp.gauss_sum needs {2 ** 127 - 1} units > budget 1000"
                      f" ({2 ** 127 - 1001} over)"),
    # p^c is too long to print, and is not computed
    (5, 10 ** 6, "interp.gauss_sum needs 5^1000000 units > budget 1000"),
], ids=["deep-conductor", "huge-p", "huge-conductor"])
def test_interp_factor_gauss_sum_over_budget_exits_2(p, conductor_exp, message, tmp_path):
    cfg = {"p": p, "n": 2, "d": 1, "e": [conductor_exp],
           "characters": [{"conductor_exp": conductor_exp, "log": 1, "at_p": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--budget", "1000", "interp",
                           "factor", "--config", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": "budget exceeded", "message": message}


def test_interp_factor_cyclotomic_at_p_field_over_budget_exits_2(tmp_path):
    # Phi_m and its m-row reduction table are charged before they are built
    cfg = {"p": 3, "n": 2, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1,
                           "at_p": {"m": 100000007, "coeffs": ["1/1"]}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--budget", "1000", "interp",
                           "factor", "--config", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "error": "budget exceeded",
        "message": "cyclotomic.from_json needs 100000007 reduction-table rows > budget 1000"
                   " (99999007 over)"}


@pytest.mark.parametrize("budget, message", [
    (["--budget", "1000"], "cyclotomic.inverse needs 992016 echelon entries > budget 1000"
                           " (991016 over)"),
    # at the default budget the inverse in Q(zeta_19940), 19940 = lcm(997, 20), is refused
    ([], "cyclotomic.inverse needs 63489024 echelon entries > budget 1000000 (62489024 over)"),
], ids=["small-budget", "default-budget"])
def test_interp_factor_dense_inverse_over_budget_exits_2(budget, message, tmp_path):
    # in a subprocess with a timeout: extended Euclid once ran past 120 s here
    cfg = {"p": 5, "n": 2, "d": 1, "e": [1],
           "characters": [{"conductor_exp": 1, "log": 1,
                           "at_p": {"m": 997, "coeffs": ["1", "1"]}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", *budget, "interp",
                           "factor", "--config", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": "budget exceeded", "message": message}


def test_interp_factor_pinned_configs_fit_a_small_budget(capsys, tmp_path):
    # the largest pinned conductor, 13^2, is charged 169 units, and its epsilon
    # factor is inverted in Q(zeta_2028), charged deg Phi_2028 squared = 624^2
    cfg = {"p": 13, "n": 2, "d": 1, "e": [2],
           "characters": [{"conductor_exp": 2, "log": 1, "at_p": "1"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["--budget", "389375", "interp", "factor", "--config", str(path)],
                   capsys)[0] == 2
    assert run_cli(["--budget", "389376", "interp", "factor", "--config", str(path)],
                   capsys)[0] == 0


def test_interp_factor_character_entry_must_be_an_object(capsys, tmp_path):
    cfg = {"p": 3, "n": 2, "d": 1, "e": [1], "characters": [1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "malformed config",
                               "message": '"characters" entry must be a JSON object, got 1'}


@pytest.mark.parametrize("e", [0, 2, 3, -1])
def test_interp_factor_depth_outside_the_identity_is_malformed(e, capsys, tmp_path):
    cfg = {"p": 5, "n": 2, "d": 1, "e": [e],
           "characters": [{"conductor_exp": 1, "log": 1, "at_p": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3
    assert json.loads(out) == {
        "error": "malformed config",
        "message": f'"e" entry 0 is {e}, the identity needs max(1, c_0) = 1'}


def test_out_file_and_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PADICDESK_OUT_DIR", str(tmp_path))
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[0, 0, 0, 0]], "j": [0]}
    code, _ = run_cli(["--out", "report.json", "branch",
                       "--weight-json", json.dumps(spec)], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["model_dimension"] == 1


def test_unwritable_out_is_bad_input(tmp_path):
    # exit 1 is kept for a failed mathematical check
    path = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--out", str(path),
                           "verify", "--suite", "mahler"], capture_output=True, text=True)
    assert proc.returncode == 3
    rep = json.loads(proc.stdout)
    assert rep["error"] == "cannot write output" and str(path) in rep["message"]
    assert proc.stderr == ""


def test_unwritable_out_fails_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    import padicdesk.cli as cli

    ran = []
    monkeypatch.setitem(cli.SUITES, "mahler", lambda **kwargs: ran.append(kwargs))
    path = tmp_path / "missing" / "x.json"
    code, out = run_cli(["--out", str(path), "verify", "--suite", "mahler"], capsys)
    assert code == 3 and ran == []
    rep = json.loads(out)
    assert rep["error"] == "cannot write output" and str(path) in rep["message"]


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    import padicdesk.cli as cli

    def broken(**kwargs):
        raise RuntimeError("suite exploded")

    monkeypatch.setitem(cli.SUITES, "mahler", broken)
    code = main(["verify", "--suite", "mahler"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"error": "internal error", "type": "RuntimeError",
                                        "message": "suite exploded"}
    assert captured.err == ""


def test_branch_spec_missing_key_is_named(capsys):
    spec = {"n": 2, "tau0": 0, "kappa0": 0, "kappa": [[0, 0, 0, 0]], "j": [0]}
    code, out = run_cli(["branch", "--weight-json", json.dumps(spec)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "malformed weight spec",
                               "message": 'missing key "d"'}


def test_interp_config_missing_key_is_named(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "d": 1, "e": [1], "characters": []}))
    code, out = run_cli(["interp", "factor", "--config", str(path)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "malformed config", "message": 'missing key "p"'}


def test_csv_flatten(capsys):
    code, out = run_cli(["--csv", "verify", "--suite", "mahler"], capsys)
    assert code == 0
    assert "suite,check,passed" in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "branch" in proc.stdout and "verify" in proc.stdout


@pytest.mark.parametrize("suite, digest", [
    ("interp", "11a350559ff23ca0e7a395a98bd4e1a79d4222d9b068bd3e42737ad7ef67a30e"),
    ("iwahori", "61e10d65617b35384931090abfc1c70430ce05b490bbaf81b7a9f3d430e93bde"),
    ("mahler", "51464be5468015643cb95c7ee15e5672e937696a1e3b164b00e7834590c8aa5d"),
    ("rep", "1ec5a4cd1a4da7d09f410219db958001ff1171398b2ac80fd8eeb5803f661d08"),
    ("tate", "f6be201c1f95175fab3db21216219a2bbc6f6bea412362efde91a754fbe02311"),
    ("uea", "c433f35dafd1eca55b67712ee2be99e3a6e6b76a7369b89a324eb198c3f9c439"),
], ids=["interp", "iwahori", "mahler", "rep", "tate", "uea"])
def test_suite_reports_pinned(suite, digest, capsys):
    assert main(["--seed", "7", "verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", [
    (["--seed", "7"], "24dc05c9119254ea2ae9f9f618c87ca7c3ce96791b5c6205c443ae7192db51be"),
    (["--seed", "13"], "519c745eff25c23f9a1147933e4a4a19650ccd6ab0c97bb8bbdb81235c1ab4f9"),
    # p = 5 changes the mahler check ids and every charged count
    (["--p", "5", "--seed", "7"],
     "5a67b37236ebeec50c8f07c9ad4b4ce01915a6b3d4f740a8ef9fae0e1f8a95c3"),
    # the CSV rows are the other reader of the check entries
    (["--seed", "7", "--csv"], "df9d15890724e0641f354cb1f5a1022741d4c903bcbc1c0d5cc4e2e8b95984fc"),
], ids=["seed7", "seed13", "p5-seed7", "csv-seed7"])
def test_verify_all_reports_pinned(flags, digest, capsys):
    assert main(flags + ["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once():
    from padicdesk.cli import build_parser

    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_flag_between_calls(capsys):
    assert main(["--p", "5", "--seed", "7", "verify", "--suite", "mahler"]) == 0
    capsys.readouterr()
    assert main(["--seed", "7", "verify", "--suite", "mahler"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "51464be5468015643cb95c7ee15e5672e937696a1e3b164b00e7834590c8aa5d")


def test_iwahori_benchmark_config_report_pinned(capsys):
    # the iwahori-enum benchmark command: 5^6 = 15,625 double-coset representatives
    assert main(["--n", "2", "--p", "5", "--beta", "1", "--seed", "7", "iwahori", "verify"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "c165070b8b6fae50f5efc26fcf2c3d62951a5eefad637ee81dee66c7a9ba2108")


def test_iwahori_p7_report_pinned(capsys):
    # 7^6 = 117,649 double-coset representatives
    assert main(["--n", "2", "--p", "7", "--beta", "1", "--budget", "1000000", "--seed", "7",
                 "iwahori", "verify"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "1826e0197c3c3e944f3b44f6079156eae988edda7ad010b22234e3ab2d14c971")


def test_iwahori_n3_report_pinned(capsys):
    # 3^15 = 14,348,907 double-coset representatives of GL_6
    assert main(["--n", "3", "--p", "3", "--budget", "100000000", "verify", "--suite", "iwahori"]) == 0
    out = capsys.readouterr().out
    checks = {c["id"]: c for c in json.loads(out)["suites"][0]["checks"]}
    assert checks["iwahori.double_coset_singleton"]["checked"] == 3 ** 15 == 14_348_907
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "260cc15169d429bb74caacd9a076e9f169150338a88957ceb3668cd288aa8cd9")


# (n, d, kappa0, kappa, j) of the eleven acceptance weights, with the sha256 of
# the `--seed 7 branch --weight-json` report for each
_BRANCH_PINS = [
    (2, 1, 0, [[0, 0, 0, 0]], [0],
     "501e76d676eb2808c1a349bba25686782c45fe69601c8a3494c6aaf9f48ab75c"),
    (2, 1, 0, [[2, 1, -2, -2]], [0],
     "85365aef69d89409e11fab967c9b423d96e69e4240b23882f94ba38fc168b9d9"),
    (2, 1, 0, [[3, 2, -2, -3]], [1],
     "bcb865d10f558064e3bbf95af07fa3657f06cb75dbe530159865578248ba8fcd"),
    (2, 1, 0, [[0, 2, -1, -3]], [2],
     "b3725c897bde62bc73ccc828c13d3ef7e04f7220a03f42cfdbb361d81e371336"),
    (2, 1, 0, [[0, 2, -1, -3]], [1],
     "073ca41183a1ce5a3b21c682e43489f12c6b2db7b10d9f00669007d2767ff84c"),
    (2, 1, 1, [[1, 1, -1, -2]], [1],
     "f632077c21fa979b87c6201489dd29ee9ff7ee1d3594dd07a60d722a6d0b20f7"),
    (2, 1, 0, [[0, 3, -2, -3]], [0],
     "1009953fb79223d77fe583f4e44cbe58ac054d9cd4f1f1b4113bdab01d1ff3e0"),
    (2, 1, 0, [[0, 3, -2, -3]], [1],
     "5c1a8a13c797ea90785e52b35364a87790d6d329e9fac2dd8e3e4886e79e4db0"),
    (2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1],
     "5fadd70c01d1e3f8fce7944791f6837f719731367057b2c4b6845846efd5d366"),
    (3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1],
     "e5d03ed19addea5474d0054147b38ddb44adbca90f2dc0497c71d9c4fcb320f8"),
    (3, 1, 2, [[0, 1, 0, 0, 0, -1]], [0],
     "89e3338e795ff0d61d3a8ad93fbdd67b568411aec2d8c3faf0f85a58339f1efa"),
]


@pytest.mark.parametrize("n, d, kappa0, kappa, j, digest", _BRANCH_PINS,
                         ids=[f"weight{i}" for i in range(len(_BRANCH_PINS))])
def test_branch_reports_pinned(n, d, kappa0, kappa, j, digest, capsys):
    spec = {"n": n, "d": d, "tau0": 0, "kappa0": kappa0, "kappa": kappa, "j": j}
    assert main(["--seed", "7", "branch", "--weight-json", json.dumps(spec)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Weights whose block models repeat a shifted weight: the first two differ only
# by the offset of their GL_3 block, the GL_5 and GL_4 blocks of the others also
# occur in the acceptance pins, and j != 0 builds the j = 0 model as well.
_REPEATED_BLOCK_PINS = [
    (2, 1, 0, [[1, 2, -2, -3]], [1],
     "1b018753a6fa06e7759eae88a71a015f4c811702c86d3631c6aba650f75e53fc"),
    (2, 1, 0, [[1, 1, -3, -4]], [1],
     "039e7256179a600d6f140674a29e22d593a8db66ddd685bd16f6677938e3343e"),
    (3, 1, 0, [[0, 0, 0, -1, -1, -1]], [0],
     "f44b06b54dd6abc356fcaada4ad7138592daf9ae04b4704b76a0ccbbbbc285e4"),
    (3, 1, 1, [[0, 1, 1, 0, -1, -1]], [0],
     "5bfce1c565228af9dd40a53c2d34e5e49e62d36bce9b05a127857cb85d9f2e84"),
    (2, 2, 0, [[0, 0, -1, -1], [1, 1, -1, -1]], [0, 1],
     "94c5c326d7f89b48381ddf36ff9d277058152701df1e99ac296d65e1a8b6e55d"),
    (2, 2, 0, [[0, 1, -2, -2], [1, 0, 0, -1]], [0, 0],
     "595b2d9304843bc7693f91429b0ccd9ac5dc7fce34347b6919daf333fca960d7"),
]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_branch_reports_pinned_with_shared_block_models(reverse, capsys):
    # from an empty closure cache: the first pass builds each block once, and
    # the order decides which of the offset pair reuses the other's; the
    # second pass takes every block from the cache
    from padicdesk.glrep import _span_closure

    _span_closure.cache_clear()
    pins = _REPEATED_BLOCK_PINS[::-1] if reverse else _REPEATED_BLOCK_PINS
    for n, d, kappa0, kappa, j, digest in pins + pins:
        spec = {"n": n, "d": d, "tau0": 0, "kappa0": kappa0, "kappa": kappa, "j": j}
        assert main(["--seed", "7", "branch", "--weight-json", json.dumps(spec)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (kappa, j)
    assert _span_closure.cache_info().misses == 7  # distinct (m, shifted weight) keys


@pytest.mark.parametrize("config, digest", [
    # field order 2028 = lcm(13^2, 156)
    ({"p": 13, "n": 2, "d": 1, "e": [2],
      "characters": [{"conductor_exp": 2, "log": 1, "at_p": "1"}]},
     "d2d6e6799bbc491d00cfbead5d2f309bd303dbf2e45b7525cedc06778775be2e"),
    # field order 1014 = lcm(13^2, 78), the largest field of the interp-factor benchmark
    ({"p": 13, "n": 2, "d": 1, "e": [2],
      "characters": [{"conductor_exp": 2, "log": 134, "at_p": "2"}]},
     "26a69daefe2647e2200ddb4f48d49ddcbccaa700a6b1ba88e2dd8f0c47c22dbe"),
    # field order 2028 = lcm(1014, 4), with at_p = 1/2 - 3 zeta_4 read by from_json
    ({"p": 13, "n": 2, "d": 1, "e": [2],
      "characters": [{"conductor_exp": 2, "log": 134,
                      "at_p": {"m": 4, "coeffs": ["1/2", "-3"]}}]},
     "3d6d7ba33a0732dd32af6ef9ea235510e2df19f373e901b7a8f42710ac7673e8"),
], ids=["m2028", "m1014", "m2028-cyclotomic-at-p"])
def test_interp_factor_large_field_pinned(config, digest, capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["interp", "factor", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _bench_round(workload, seed, tmp_path):
    """The operations of one round, built and written out by the benchmark's own generator."""
    spec = importlib.util.spec_from_file_location("padicdesk_bench_gen", _GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    ops = gen.build_round(workload, seed)
    gen.materialize(ops, str(tmp_path))
    return ops


def test_interp_factor_benchmark_round_pinned(capsys, tmp_path):
    # exit code and stdout of the 100 operations of the seed-7 interp-factor round,
    # with the round built by the benchmark's own generator
    ops = _bench_round("interp-factor", 7, tmp_path)
    digest = hashlib.sha256()
    for op in ops:
        code = main(op["argv"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert len(ops) == 100
    assert digest.hexdigest() == (
        "803b40f8996b025deec62ee763bab6dc232f7ddf6d7e632f5fc6e49c5b14d0f0")


def test_branch_batch_benchmark_round_pinned(capsys, tmp_path):
    # exit code and stdout of the 100 operations of the seed-7 branch-batch round,
    # with the round built by the benchmark's own generator
    ops = _bench_round("branch-batch", 7, tmp_path)
    digest = hashlib.sha256()
    for op in ops:
        code = main(op["argv"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert len(ops) == 100
    assert digest.hexdigest() == (
        "55132014efee615a47c4b107de16d008e67075cdff19979e36b5797ee1f267fc")


def test_branch_batch_round_computes_each_block_action_once(monkeypatch, capsys, tmp_path):
    # the seed-7 round from an empty closure cache asks for 889 word actions on
    # block basis vectors; its 836 one-letter words are 236 distinct (closure,
    # E_(a,b), index) triples, each polarized and solved once
    from padicdesk import glrep

    glrep._span_closure.cache_clear()
    words, closures = [], {}
    real = glrep.GLBlockModel.basis_word_action

    def counted(self, word, idx):
        words.append(len(word))
        closures[id(self._closure)] = self._closure
        return real(self, word, idx)

    monkeypatch.setattr(glrep.GLBlockModel, "basis_word_action", counted)
    for op in _bench_round("branch-batch", 7, tmp_path):
        assert main(op["argv"]) == 0
    capsys.readouterr()
    assert len(words) == 889 and words.count(1) == 836
    assert sum(len(c._actions) for c in closures.values()) == 236


_label_ints = st.integers(min_value=0, max_value=10 ** 12)
_branch_labels = st.lists(st.tuples(st.lists(_label_ints, min_size=1, max_size=3),
                                    st.lists(_label_ints, max_size=4).map(sorted)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(labels=_branch_labels, dimension=_label_ints,
       coordinates=st.dictionaries(st.integers(0, 300).map(str), st.text(max_size=6), max_size=3),
       extra=st.dictionaries(st.sampled_from(["operator", "operator_constant", "seed"]),
                             st.integers() | st.text(max_size=4), max_size=3))
def test_branch_report_dump_matches_json_dumps(labels, dimension, coordinates, extra):
    # the labels writer against the indented encoder, on branch-shaped reports
    report = {"weight": {"n": 2, "kappa": [[0, 1, -1, -2]], "j": [1]}, "p": 3, "beta": 1,
              "branch_vector": {"basis_labels": [[list(b), list(J)] for b, J in labels],
                                "coordinates": coordinates, "dimension": dimension,
                                "eigenspace_dimension": 1, "weight": {"d": 1}},
              "restriction_samples": [{"box_point": ["1", "2"], "unit_congruent": True}],
              **extra}
    assert _dumps(report) == json.dumps(report, indent=2, sort_keys=True, default=str)


@pytest.mark.parametrize("report", [
    {"error": "budget exceeded", "message": "x needs 2 units > budget 1 (1 over)"},
    {"suites": [{"suite": "rep", "passed": True, "checks": []}], "passed": True},
    {"error": "internal error", "type": "KeyError", "message": "'basis_labels'"},
])
def test_reports_without_a_branch_vector_go_through_json_dumps(report):
    assert _dumps(report) == json.dumps(report, indent=2, sort_keys=True, default=str)


def test_branch_report_out_and_csv_files_match_stdout(capsys, tmp_path):
    # the branch report on stdout, in an --out file and with --csv is the
    # indented encoding of its own JSON
    args = ["--seed", "7", "branch", "--weight-json", json.dumps(
        {"n": 2, "d": 2, "tau0": 0, "kappa0": 0,
         "kappa": [[0, 1, -1, -1], [1, 1, -1, -1]], "j": [0, 1]})]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert len(json.loads(out)["branch_vector"]["basis_labels"]) > 1
    path = tmp_path / "report.json"
    code, rest = run_cli(["--out", str(path), "--csv"] + args, capsys)
    assert code == 0 and rest == ""
    assert path.read_text() == out
    assert (tmp_path / "report.json.csv").read_text() == "suite,check,passed\n"
    code, with_csv = run_cli(["--csv"] + args, capsys)
    assert code == 0 and with_csv == out + "suite,check,passed\n"


_TRIVIAL_WEIGHT = '{"n": 2, "d": 1, "tau0": 0, "kappa0": 0, "kappa": [[0, 0, 0, 0]], "j": [0]}'
_DEGREE_12_WEIGHT = '{"n":2,"d":1,"tau0":0,"kappa0":0,"kappa":[[0,3,-2,-3]],"j":[1]}'


@pytest.mark.parametrize("args, digits", [
    (["--p", "3", "--beta", "1000"], 5894),
    (["--p", "2305843009213693951", "--beta", "2000"], 441158),
], ids=["p3-beta1000", "mersenne61-beta2000"])
def test_branch_samples_past_the_int_to_str_limit_exit_2(args, digits, capsys):
    # a sample value would have thousands of digits: the bound on its size is
    # charged before the first draw, and is checked against the int-to-str limit
    # that str(value) would trip
    limit = sys.get_int_max_str_digits()
    if not 0 < limit < digits:
        pytest.skip(f"int-to-str limit {limit} does not refuse {digits} digits")
    start = time.perf_counter()
    code, out = run_cli(args + ["--seed", "7", "branch", "--weight-json", _DEGREE_12_WEIGHT],
                        capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {
        "error": "budget exceeded",
        "message": f"branch.restriction_samples needs {digits} digits"
                   f" > the int-to-str limit of {limit} digits"}


def test_prime_past_the_exact_test_bound_is_charged_exit_2():
    # (2^61 - 1)(2^31 - 1) is past the bound of the exact Miller-Rabin test:
    # its 7 * 10^13 trial divisions are refused before the first one
    p = (2 ** 61 - 1) * (2 ** 31 - 1)
    proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--p", str(p), "tate",
                           "verify"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == ""
    count = math.isqrt(p) - 1
    assert json.loads(proc.stdout) == {
        "error": "budget exceeded",
        "message": f"rationals.is_prime needs {count} trial divisions > budget 1000000"
                   f" ({count - 10 ** 6} over)"}


def test_branch_samples_are_charged_against_the_budget(capsys):
    code, out = run_cli(["--p", "3", "--beta", "1000", "--budget", "1000", "branch",
                         "--weight-json", _DEGREE_12_WEIGHT], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "budget exceeded",
        "message": "branch.restriction_samples needs 5894 digits > budget 1000 (4894 over)"}
    # the same samples at beta 10 are short enough to draw and write
    code, out = run_cli(["--p", "3", "--beta", "10", "--budget", "1000", "branch",
                         "--weight-json", _DEGREE_12_WEIGHT], capsys)
    assert code == 0 and len(json.loads(out)["restriction_samples"]) == 5


@pytest.mark.parametrize("args, message", [
    (["--p", "4", "verify", "--suite", "mahler"], "--p 4 is not prime"),
    (["--p", "1", "tate", "verify"], "--p 1 is not prime"),
    (["--beta", "0", "iwahori", "verify"], "--beta 0 must be >= 1"),
    (["tate", "verify", "--k-max", "-1"], "--k-max -1 must be >= 0"),
    (["--n", "1", "iwahori", "verify"], "--n 1 must be >= 2"),
    (["--n", "0", "iwahori", "verify"], "--n 0 must be >= 2"),
    (["tate", "verify", "--dmax", "2"], "--dmax 2 must be >= 3"),
    (["--p", "2", "verify", "--suite", "mahler"], "--p 2: the mahler suite needs an odd prime"),
    (["--p", "2", "verify", "--suite", "all"], "--p 2: the mahler suite needs an odd prime"),
    (["--budget", "-5", "iwahori", "verify"], "--budget -5 must be >= 1"),
    (["--budget", "0", "tate", "verify"], "--budget 0 must be >= 1"),
    (["branch", "--dim-cap", "-1", "--weight-json", _TRIVIAL_WEIGHT], "--dim-cap -1 must be >= 1"),
    (["branch", "--dim-cap", "0", "--weight-json", _TRIVIAL_WEIGHT], "--dim-cap 0 must be >= 1"),
], ids=["p-composite", "p-one", "beta-zero", "k-max-negative", "n-one", "n-zero",
        "dmax-two", "p-two-mahler", "p-two-all", "budget-negative", "budget-zero",
        "dim-cap-negative", "dim-cap-zero"])
def test_bad_global_option(args, message, capsys):
    code, out = run_cli(args, capsys)
    assert code == 3
    assert json.loads(out) == {"error": "bad input", "message": message}


@pytest.mark.parametrize("spec", [
    "[1, 2]",
    '{"n": 2, "d": 1, "tau0": 0, "kappa0": 0, "kappa": [[3.5, 2, -2, -3]], "j": [1]}',
    '{"n": 2.5, "d": 1, "tau0": 0, "kappa0": 0, "kappa": [[0, 0, 0, 0, 0]], "j": [0]}',
    '{"n": 2, "d": 1, "tau0": 0, "kappa0": Infinity, "kappa": [[0, 0, 0, 0]], "j": [0]}',
], ids=["not-an-object", "non-integer-entry", "non-integer-n", "infinite-entry"])
def test_branch_malformed_weight_spec(spec, capsys):
    code, out = run_cli(["branch", "--weight-json", spec], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "malformed weight spec" and rep["message"]


def test_branch_invariant_failure_is_falsified(capsys, monkeypatch):
    import padicdesk.glrep as glrep

    true_dimension = glrep.weyl_dimension
    monkeypatch.setattr(glrep, "weyl_dimension", lambda weight: true_dimension(weight) + 1)
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0,
            "kappa": [[3, 2, -2, -3]], "j": [1]}
    code, out = run_cli(["branch", "--weight-json", json.dumps(spec)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "falsified" and "Weyl dimension" in rep["message"]


@pytest.mark.parametrize("args", [
    ["--d", "5", "verify", "--suite", "mahler"],
    ["verify", "--suite", "mahler", "--d", "5"],
], ids=["before-command", "after-command"])
def test_removed_d_flag_is_a_usage_error(args, capsys):
    # no flag is read as a prefix of another, so --d is not taken for --dmax
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 3


def test_bad_input_exit_does_not_depend_on_optimize():
    proc = subprocess.run([sys.executable, "-O", "-m", "padicdesk.cli", "--beta", "0",
                           "iwahori", "verify"], capture_output=True, text=True)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "bad input"


def _stdout_lost(stdout) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "padicdesk.cli", "--seed", "7", "verify",
                           "--suite", "mahler"], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
def test_stdout_on_a_full_device_exits_3_with_json_on_stderr():
    with open("/dev/full", "w") as full:
        proc = _stdout_lost(full)
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "cannot write output",
                                       "message": "stdout: [Errno 28] No space left on device"}
    assert proc.stderr.count("\n") == 1


def test_stdout_into_a_closed_pipe_exits_3_with_json_on_stderr():
    # as with `| head -c 0`: the reader is gone before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _stdout_lost(write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "cannot write output",
                                       "message": "stdout: [Errno 32] Broken pipe"}
    assert proc.stderr.count("\n") == 1


def _help_lost(stdout, unbuffered) -> subprocess.CompletedProcess:
    # argparse writes the help itself: unbuffered, the write fails at once;
    # buffered, the flush does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "padicdesk.cli", "--help"], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_on_a_full_device_exits_3_with_json_on_stderr(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _help_lost(full, unbuffered)
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "cannot write output",
                                       "message": "stdout: [Errno 28] No space left on device"}
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_into_a_closed_pipe_exits_3_with_json_on_stderr(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _help_lost(write_end, unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "cannot write output",
                                       "message": "stdout: [Errno 32] Broken pipe"}
    assert proc.stderr.count("\n") == 1
