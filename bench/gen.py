"""Seeded inputs for the four workloads.

Each workload is one *round*: a fixed list of operations, where an operation
is the argv of one `padicdesk` call plus what its checker needs to know.  The
same seed always gives the same round.  Input files (interp configs) are
written by `materialize` before any timing starts.

Only the stdlib is used; weight dimensions are computed here with our own Weyl
product so that generation never calls into the package under test.
"""

from __future__ import annotations

import json
import os
import random
from math import comb, gcd

WORKLOADS = ("verify-all", "branch-batch", "interp-factor", "iwahori-enum")

# The 11 weights of the branching acceptance criterion, as (n, d, kappa0, kappa, j).
ACCEPTANCE_WEIGHTS = [
    (2, 1, 0, [[0, 0, 0, 0]], [0]),
    (2, 1, 0, [[2, 1, -2, -2]], [0]),
    (2, 1, 0, [[3, 2, -2, -3]], [1]),
    (2, 1, 0, [[0, 2, -1, -3]], [2]),
    (2, 1, 0, [[0, 2, -1, -3]], [1]),
    (2, 1, 1, [[1, 1, -1, -2]], [1]),
    (2, 1, 0, [[0, 3, -2, -3]], [0]),
    (2, 1, 0, [[0, 3, -2, -3]], [1]),
    (2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
    (3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
    (3, 1, 2, [[0, 1, 0, 0, 0, -1]], [0]),
]

# Seeded weights, by shape class: (count, n, shape of the GL_(2n-1) block
# kappa[0][1:] relative to its last entry, later components' rows, j).  A model
# build costs what the shape makes it cost (seed-polynomial degree and the
# dimension it spans), so each class has a narrow, stable cost; the seed picks
# the free entries (kappa0, the GL_1 exponent and the block's offset) and the
# order of operations.  Classes are grouped by their cost here.
BRANCH_SHAPES = [
    # cheap: under 10 ms each
    (6, 2, (0, 0, 0), [], [0]),
    (6, 2, (1, 0, 0), [], [0]),
    (6, 2, (2, 0, 0), [], [0]),
    (5, 2, (3, 0, 0), [], [0]),
    (3, 2, (2, 1, 0), [], [1]),
    (6, 3, (0, 0, 0, 0, 0), [], [0]),
    (4, 2, (0, 0, 0), [[0, 0, 0, 0]], [0, 0]),
    # around the median, 14-16 ms each
    (12, 2, (4, 0, 0), [], [0]),
    (12, 3, (1, 1, 0, 0, 0), [], [0]),
    # 18-40 ms each
    (4, 2, (3, 1, 0), [], [1]),
    (3, 2, (4, 1, 0), [], [0]),
    (5, 2, (2, 0, 0), [[1, 1, -1, -1]], [0, 0]),
    (4, 2, (1, 0, 0), [[1, 1, -1, -1]], [0, 1]),
    (4, 2, (3, 0, 0), [[1, 0, 0, -1]], [0, 0]),
    # around the 90th percentile, 38-45 ms each
    (9, 2, (4, 1, 0), [], [1]),
]

# Interp strata: (count, p, c, character order o).  The field order is
# lcm(p^c, o); counts are fixed so every seed has the same field-order mix.
INTERP_STRATA = [
    # a few large fields, each built cold once per round (m = 2028 alone took
    # 3 to 7 s, which left room for only one round in a run on a slow minute)
    (1, 13, 2, 78),    # m = 1014
    (1, 7, 2, 42),     # m = 294
    (1, 11, 2, 22),    # m = 242
    (1, 13, 2, 26),    # m = 338
    # a reused medium field
    (12, 13, 1, 12),   # m = 156
    # many small fields, reused
    (8, 3, 1, 2),      # m = 6
    (6, 3, 2, 6),      # m = 18
    (4, 3, 2, 3),      # m = 9
    (8, 5, 1, 4),      # m = 20
    (4, 5, 1, 2),      # m = 10
    (6, 5, 2, 20),     # m = 100
    (4, 5, 2, 10),     # m = 50
    (4, 5, 2, 5),      # m = 25
    (8, 7, 1, 6),      # m = 42
    (4, 7, 1, 3),      # m = 21
    (4, 7, 1, 2),      # m = 14
    (4, 7, 2, 7),      # m = 49
    (4, 11, 1, 10),    # m = 110
    (4, 11, 1, 5),     # m = 55
    (4, 11, 1, 2),     # m = 22
    (4, 13, 1, 6),     # m = 78
    (4, 13, 1, 4),     # m = 52
]

BRANCH_DIM_CAP = 500  # the CLI's default --dim-cap
IWAHORI = {"n": 2, "p": 5, "beta": 1, "budget": 1000000}
BRANCH_P, BRANCH_BETA = 3, 1


def weyl_dimension(lam) -> int:
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def branch_dimension(n: int, kappa, j) -> int:
    """GL_{2n-1} dim of kappa[0][1:] x GL_{2n} dims of the rest x C(n+j0-1, j0)."""
    dim = weyl_dimension(kappa[0][1:]) * comb(n + j[0] - 1, j[0])
    for row in kappa[1:]:
        dim *= weyl_dimension(row)
    return dim


def cone_violation(n: int, kappa, j):
    """The weight-cone conditions; None when (kappa, j) lies in the cone."""
    k = kappa[0]
    if any(k[i] < k[i + 1] for i in range(1, 2 * n - 1)):
        return "kappa[0][1:] not non-increasing"
    if any(any(r[i] < r[i + 1] for i in range(2 * n - 1)) for r in kappa[1:]):
        return "later component not dominant"
    w = k[1] + k[2 * n - 1]
    if w > 0 or k[n] > w:
        return "w > 0 or kappa_(n+1) > w"
    if any(k[i - 1] + k[2 * n + 1 - i] != w for i in range(2, n + 1)):
        return "kappa_i + kappa_(2n+2-i) != w"
    if any(r[i] + r[2 * n - 1 - i] != 0 for r in kappa[1:] for i in range(n)):
        return "later component not self-dual"
    if not 0 <= j[0] <= k[n] - k[n + 1]:
        return "j_tau0 out of range"
    if any(not 0 <= jt <= r[n - 1] for jt, r in zip(j[1:], kappa[1:])):
        return "later j out of range"
    return None


def _weight_of_shape(rnd: random.Random, n: int, shape, rows, j) -> dict:
    """A random cone weight whose GL_(2n-1) block is `shape` plus an offset."""
    k1 = rnd.randrange(-2, 3)
    kappas = [[[k1] + [x + s for x in shape]] + [list(r) for r in rows]
              for s in range(-8, 9)]
    kappas = [kap for kap in kappas if cone_violation(n, kap, j) is None]
    return {"n": n, "d": 1 + len(rows), "tau0": 0, "kappa0": rnd.randrange(-2, 3),
            "kappa": rnd.choice(kappas), "j": list(j)}


def branch_round(seed: int) -> list:
    rnd = random.Random(f"branch-batch:{seed}")
    specs = [{"n": n, "d": d, "tau0": 0, "kappa0": k0, "kappa": kap, "j": j}
             for n, d, k0, kap, j in ACCEPTANCE_WEIGHTS]
    for count, n, shape, rows, j in BRANCH_SHAPES:
        specs += [_weight_of_shape(rnd, n, shape, rows, j) for _ in range(count)]
    for spec in specs:
        # screen with our own Weyl product, so no instance hits --dim-cap
        if cone_violation(spec["n"], spec["kappa"], spec["j"]) or \
                branch_dimension(spec["n"], spec["kappa"], spec["j"]) > BRANCH_DIM_CAP:
            raise ValueError(f"weight outside the cone or over the dimension cap: {spec}")
    rnd.shuffle(specs)
    ops = []
    for spec in specs:
        argv = ["--p", str(BRANCH_P), "--beta", str(BRANCH_BETA), "--seed", str(seed),
                "branch", "--weight-json", json.dumps(spec, sort_keys=True)]
        ops.append({"kind": "branch", "argv": argv, "spec": spec,
                    "p": BRANCH_P, "beta": BRANCH_BETA})
    return ops


def _phi(p: int, c: int) -> int:
    return p ** (c - 1) * (p - 1)


def character_order(p: int, c: int, k: int) -> int:
    return _phi(p, c) // gcd(_phi(p, c), k)


def _log_with_order(rnd: random.Random, p: int, c: int, order: int) -> int:
    """A log k with p not dividing k whose character has the given order."""
    phi = _phi(p, c)
    choices = [k for k in range(1, phi) if k % p and phi // gcd(phi, k) == order]
    return rnd.choice(choices)


# (n, d) of the i-th config of a stratum, cycled so that every seed has the
# same mix; the 1-config strata (the large fields) get the first, cheapest one
INTERP_SHAPES = [(2, 1), (3, 2), (2, 2), (3, 1)]


def _interp_config(rnd: random.Random, p: int, c: int, order: int, index: int) -> dict:
    n, d = INTERP_SHAPES[index % len(INTERP_SHAPES)]
    k0 = _log_with_order(rnd, p, c, order)
    chars = [{"conductor_exp": c, "log": k0,
              "at_p": rnd.choice(("1", "-1", "2", "1/3", "-5/2"))}]
    e = [c]
    # a later component gets a nontrivial character whose order divides chi0's,
    # so the value stays in Q(zeta_m) for m = lcm(p^c, order of chi0)
    later = [(ct, kt) for ct in range(1, c + 1) for kt in range(1, _phi(p, ct))
             if kt % p and order % character_order(p, ct, kt) == 0
             and character_order(p, ct, kt) > 1]
    for _ in range(d - 1):
        ct, kt = rnd.choice(later)
        chars.append({"conductor_exp": ct, "log": kt, "at_p": rnd.choice(("1", "3"))})
        e.append(ct)
    cfg = {"p": p, "n": n, "d": d, "e": e, "characters": chars}
    if index % 3 == 1:
        keys = [f"{tau},{i}" for tau in range(d) for i in range(1, n + 1)]
        cfg["theta_values"] = {key: rnd.choice(("1", "2", "-1/2", "3"))
                               for key in rnd.sample(keys, rnd.randrange(1, len(keys) + 1))}
    return cfg


def interp_round(seed: int) -> list:
    rnd = random.Random(f"interp-factor:{seed}")
    cfgs = []
    for count, p, c, order in INTERP_STRATA:
        cfgs += [_interp_config(rnd, p, c, order, i) for i in range(count)]
    rnd.shuffle(cfgs)
    return [{"kind": "interp", "config": cfg, "file": f"factor-{i:03d}.json"}
            for i, cfg in enumerate(cfgs)]


def build_round(workload: str, seed: int) -> list:
    if workload == "verify-all":
        return [{"kind": "verify", "argv": ["--seed", str(seed), "verify", "--suite", "all"],
                 "suites": ("interp", "iwahori", "mahler", "rep", "tate", "uea"),
                 "n": 2, "p": 3}]
    if workload == "iwahori-enum":
        iw = IWAHORI
        argv = ["--n", str(iw["n"]), "--p", str(iw["p"]), "--beta", str(iw["beta"]),
                "--budget", str(iw["budget"]), "--seed", str(seed), "iwahori", "verify"]
        return [{"kind": "verify", "argv": argv, "suites": ("iwahori",),
                 "n": iw["n"], "p": iw["p"]}]
    if workload == "branch-batch":
        return branch_round(seed)
    if workload == "interp-factor":
        return interp_round(seed)
    raise ValueError(f"unknown workload {workload!r}")


def materialize(ops: list, directory: str) -> None:
    """Write every input file of the round and fill in the argv that names it."""
    for op in ops:
        if op["kind"] == "interp":
            path = os.path.join(directory, op["file"])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh, sort_keys=True)
            op["argv"] = ["interp", "factor", "--config", path]
