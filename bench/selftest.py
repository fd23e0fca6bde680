"""Self-test of the output checks: genuine reports pass, tampered ones fail.

    python3 bench/selftest.py

Runs one small real operation of each kind through padicdesk.cli.main, checks
that checks.py accepts its report, then alters the report in the ways a wrong
kernel could and checks that each altered copy is rejected.  Exits 1 if any
genuine report is rejected or any tampered one accepted.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import checks
from run import SRC, call


def _branch_cases():
    spec = {"n": 2, "d": 1, "tau0": 0, "kappa0": 0, "kappa": [[3, 2, -2, -3]], "j": [1]}
    op = {"kind": "branch", "spec": spec, "p": 3, "beta": 1,
          "argv": ["--p", "3", "--beta", "1", "branch", "--weight-json", json.dumps(spec)]}

    def non_unit(r):
        r["restriction_samples"][0]["value"] = "2"  # 2 - 1 is a 3-adic unit

    tampers = {
        "model_dimension off by one": lambda r: r.update(model_dimension=r["model_dimension"] + 1),
        "eigenspace dimension 2": lambda r: r.update(eigenspace_dimension=2),
        "normalization value 2": lambda r: r.update(normalization_value="2"),
        "non-unit restriction value": non_unit,
        "zero operator constant": lambda r: r.update(operator_constant="0"),
        "missing operator constant": lambda r: r.pop("operator_constant"),
    }
    return op, tampers


def _interp_cases(directory):
    cfg = {"p": 5, "n": 3, "d": 2, "e": [2, 1],
           "characters": [{"conductor_exp": 2, "log": 3, "at_p": "-5/2"},
                          {"conductor_exp": 1, "log": 2, "at_p": "3"}],
           "theta_values": {"0,1": "2", "1,3": "-1/2"}}
    path = os.path.join(directory, "factor.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    op = {"kind": "interp", "config": cfg, "argv": ["interp", "factor", "--config", path]}

    def flip_coefficient(r):
        coeffs = r["value"]["coeffs"]
        k = next(i for i, x in enumerate(coeffs) if not x.startswith("0"))
        coeffs[k] = coeffs[k][1:] if coeffs[k].startswith("-") else "-" + coeffs[k]

    def shift_theta(r):
        r["value"]["theta"][0][1] += 1

    tampers = {
        "flipped Gauss-sum coefficient": flip_coefficient,
        "wrong field order": lambda r: r["value"].update(field_order=r["value"]["field_order"] * 2),
        "wrong Satake exponent": shift_theta,
        "cpr identity not passed": lambda r: r["checks"][0].update(passed=False),
    }
    return op, tampers


def _verify_cases():
    op = {"kind": "verify", "suites": ("iwahori",), "n": 2, "p": 3,
          "argv": ["--n", "2", "--p", "3", "--seed", "7", "iwahori", "verify"]}

    def fail_check(r):
        r["suites"][0]["checks"][-1]["passed"] = False

    def wrong_count(r):
        for c in r["suites"][0]["checks"]:
            if c["id"] == "iwahori.double_coset_singleton":
                c["checked"] -= 1

    tampers = {
        "a check not passed": fail_check,
        "representatives miscounted": wrong_count,
        "a suite missing": lambda r: r.update(suites=[]),
        "report not passed": lambda r: r.update(passed=False),
    }
    return op, tampers


def main() -> int:
    sys.path.insert(0, str(SRC))
    import padicdesk.cli as cli

    bad = 0
    rejected = 0
    with tempfile.TemporaryDirectory() as directory:
        cases = [_branch_cases(), _interp_cases(directory), _verify_cases()]
        for op, tampers in cases:
            code, out, _ = call(cli.main, op["argv"])
            report = json.loads(out)
            problem = checks.check(op, code, report)
            if problem:
                print(f"selftest: genuine {op['kind']} report rejected: {problem}")
                bad += 1
            if checks.check(op, 1, report) is None:
                print(f"selftest: {op['kind']} report with exit code 1 accepted")
                bad += 1
            for name, tamper in tampers.items():
                altered = copy.deepcopy(report)
                tamper(altered)
                if checks.check(op, code, altered) is None:
                    print(f"selftest: {op['kind']}: {name} accepted")
                    bad += 1
                else:
                    rejected += 1
    print(f"selftest: {rejected} tampered reports rejected, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
