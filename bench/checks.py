"""Output checks for every operation, sharing no code with the package.

Each checker takes the operation (as built by gen.py), the exit code and the
parsed JSON report, and returns None when the output is right or a short
reason when it is not.  They recompute what they can from the inputs with the
stdlib alone: Weyl products, p-adic valuations of printed rationals, field
orders, and |G(chi)|^2 = p^c through a complex embedding (Washington, GTM 83,
section 4).  Floats stay here; the package stays float-free.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from gen import branch_dimension, character_order

GAUSS_RTOL = 1e-9


def _valuation(x: Fraction, p: int):
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check_verify(op: dict, code: int, report: dict):
    if code != 0:
        return f"exit code {code}"
    suites = report.get("suites", [])
    names = tuple(sorted(s.get("suite") for s in suites))
    if names != tuple(sorted(op["suites"])):
        return f"suites {names}, expected {tuple(sorted(op['suites']))}"
    if report.get("passed") is not True:
        return "report not passed"
    for s in suites:
        if s.get("passed") is not True or not s.get("checks"):
            return f"suite {s.get('suite')} not passed"
        for c in s["checks"]:
            if c.get("passed") is not True:
                return f"check {c.get('id')} not passed"
    if "iwahori" in op["suites"]:
        n, p = op["n"], op["p"]
        iw = next(s for s in suites if s["suite"] == "iwahori")
        dc = [c for c in iw["checks"] if c["id"] == "iwahori.double_coset_singleton"]
        if len(dc) != 1 or dc[0].get("checked") != p ** (n * (2 * n - 1)):
            return "double-coset enumeration did not check p^(n(2n-1)) representatives"
    return None


def check_branch(op: dict, code: int, report: dict):
    if code != 0:
        return f"exit code {code}"
    spec, p, beta = op["spec"], op["p"], op["beta"]
    dim = branch_dimension(spec["n"], spec["kappa"], spec["j"])
    if report.get("model_dimension") != dim:
        return f"model_dimension {report.get('model_dimension')}, Weyl product {dim}"
    if report.get("eigenspace_dimension") != 1:
        return "eigenspace dimension is not 1"
    if report.get("normalization_value") != "1":
        return "normalization value is not 1"
    samples = report.get("restriction_samples") or []
    if not samples:
        return "no restriction samples"
    for s in samples:
        if _valuation(Fraction(s["value"]) - 1, p) < beta:
            return f"restriction value {s['value']} is not 1 mod p^beta"
    if any(spec["j"]):
        if "operator_constant" not in report or Fraction(report["operator_constant"]) == 0:
            return "missing or zero operator constant"
    elif "operator_constant" in report:
        return "operator constant reported for j = 0"
    return None


def theta_exponents(n: int, e: list) -> dict:
    """Net exponent of each Satake symbol theta_(tau, i), i <= n, in the factor.

    The factor carries (alpha_(0,n)/alpha_(0,n-1))^e0 = (p^(1/2) theta_(0,n))^e0
    over prod_tau prod_(i<2n) alpha_(tau,i)^e_tau, with alpha_(tau,i) the product
    of theta_(tau,j) for j <= i and theta_j = theta_(2n+1-j)^-1 for j > n.
    """
    exps = {(0, n): e[0]}
    for tau, et in enumerate(e):
        for i in range(1, 2 * n):
            for j in range(1, i + 1):
                key = (tau, j) if j <= n else (tau, 2 * n + 1 - j)
                sign = 1 if j <= n else -1
                exps[key] = exps.get(key, 0) - sign * et
    return {k: v for k, v in exps.items() if v}


def check_interp(op: dict, code: int, report: dict):
    if code != 0:
        return f"exit code {code}"
    checks = report.get("checks") or []
    if [c.get("id") for c in checks] != ["interp.cpr_identity"] or \
            checks[0].get("passed") is not True:
        return "interp.cpr_identity not passed"
    cfg = op["config"]
    p, n, e = cfg["p"], cfg["n"], cfg["e"]
    chi0 = cfg["characters"][0]
    c = chi0["conductor_exp"]
    m = math.lcm(p ** c, character_order(p, c, chi0["log"]))
    value = report["value"]
    if value.get("field_order") != m:
        return f"field order {value.get('field_order')}, expected {m}"
    # the Satake symbols left formal must carry the exponents of the formula;
    # the specialized ones contribute their values to the coefficient
    exps = theta_exponents(n, e)
    given = {tuple(int(x) for x in key.split(",")): Fraction(v)
             for key, v in (cfg.get("theta_values") or {}).items()}
    formal = {k: v for k, v in exps.items() if k not in given}
    reported = {tuple(k): v for k, v in value.get("theta", [])}
    if reported != formal:
        return f"formal Satake exponents {reported}, expected {formal}"
    scale = Fraction(chi0["at_p"]) ** -e[0]
    for key, val in given.items():
        scale *= val ** exps.get(key, 0)
    # |coeff(zeta_m)|^2 = |G(chi0)|^2 * scale^2 = p^c * scale^2
    coeffs = [Fraction(x) for x in value["coeffs"]]
    terms = [float(x) * cmath.exp(2j * math.pi * k / m) for k, x in enumerate(coeffs) if x]
    z = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    expected = p ** c * float(scale) ** 2
    if not math.isclose(abs(z) ** 2, expected, rel_tol=GAUSS_RTOL):
        return f"|G(chi)|^2 check failed: {abs(z) ** 2} vs {expected}"
    return None


CHECKERS = {"verify": check_verify, "branch": check_branch, "interp": check_interp}


def check(op: dict, code: int, report: dict):
    return CHECKERS[op["kind"]](op, code, report)
