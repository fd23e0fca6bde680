"""Command-line front end.

Subcommands: branch, tate, iwahori, interp, verify.  All output is JSON
(optionally flattened to CSV for leaf tables); identical configurations
produce byte-identical reports.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 a resource budget was exceeded, 3 bad input
(an unwritable --out or stdout included), 4 an internal error: any other
exception, reported as {"error": "internal error", "type": ..., "message":
...} on stdout with no traceback.  `--budget` is set once per call, for
`work.charge`.  Several suites on several cores run here and in forked
children, each process taking its next suite from one shared queue
(`_forked`); only this process writes, exactly as the serial loop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import work
from .glrep import WeightData, cone_decompose
from .rationals import integer, is_prime
from .suites import CPR_IDENTITY, SUITES, Suite


EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class _OutputError(Exception):
    """The --out file could not be written."""


class _StdoutError(Exception):
    """stdout could not be written: a full device or a closed pipe."""


def _resolve(out_path: str) -> str:
    """The --out path, resolved against PADICDESK_OUT_DIR when that is set."""
    base_dir = os.environ.get("PADICDESK_OUT_DIR", "")
    return out_path if os.path.isabs(out_path) or not base_dir else \
        os.path.join(base_dir, out_path)


def _unwritable(out_path: str) -> str | None:
    """Why the --out file's directory cannot take it, or None if it looks writable."""
    path = _resolve(out_path)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return f"{path}: directory {directory} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"{path}: directory {directory} is not writable"
    return None


# stands in for the labels: no other string of a branch report holds a NUL
_LABELS = "\0basis_labels"


def _label_list(labels, depth: int) -> str:
    """json.dumps(labels, indent=2) nested `depth` levels deep, for a list of
    [[int, ...], [int, ...]] pairs, written without the pure-Python encoder
    that an indent selects."""
    if not labels:
        return "[]"
    pad = "\n" + "  " * depth
    item, pair, entry = pad + "  ", pad + "    ", pad + "      "

    def ints(xs):
        return "[" + entry + ("," + entry).join(map(str, xs)) + pair + "]" if xs else "[]"

    return ("[" + item + ("," + item).join(
        "[" + pair + ints(b) + "," + pair + ints(J) + item + "]" for b, J in labels)
        + pad + "]")


def _dumps(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True, default=str).

    A branch report's basis labels, most of its bytes, are written by
    `_label_list` and spliced in at their place in the dump of the rest.
    """
    vector = report.get("branch_vector")
    if vector is None:
        return json.dumps(report, indent=2, sort_keys=True, default=str)
    rest = {**report, "branch_vector": {**vector, "basis_labels": _LABELS}}
    head, _, tail = json.dumps(rest, indent=2, sort_keys=True, default=str).partition(
        json.dumps(_LABELS))
    return head + _label_list(vector["basis_labels"], 2) + tail


def _emit(report: dict, out_path: str | None, csv: bool = False) -> None:
    text = _dumps(report)
    if out_path:
        path = _resolve(out_path)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            if csv:
                with open(path + ".csv", "w", encoding="utf-8") as fh:
                    fh.write(_flatten_csv(report))
        except OSError as err:
            raise _OutputError(str(err)) from None
    else:
        try:
            sys.stdout.write(text + "\n")
            if csv:
                sys.stdout.write(_flatten_csv(report))
            sys.stdout.flush()
        except OSError as err:
            raise _StdoutError(str(err)) from None


def _malformed(err: Exception) -> str:
    """The message of a malformed-input error; a KeyError names the missing key."""
    return f'missing key "{err.args[0]}"' if isinstance(err, KeyError) else str(err)


def _flatten_csv(report: dict) -> str:
    rows = ["suite,check,passed"]
    for suite_rep in report.get("suites", [report]):
        for c in suite_rep.get("checks", []):
            rows.append(f"{suite_rep.get('suite', '')},{c['id']},{int(c['passed'])}")
    return "\n".join(rows) + "\n"


def _run_branch(args) -> int:
    try:
        if args.weight_json:
            spec = json.loads(args.weight_json)
        else:
            with open(args.weight, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
    except json.JSONDecodeError as err:
        _emit({"error": "invalid JSON", "message": str(err),
               "line": err.lineno, "column": err.colno}, args.out)
        return EXIT_INPUT
    except OSError as err:
        _emit({"error": "cannot read weight spec", "message": str(err)}, args.out)
        return EXIT_INPUT
    try:
        wd = WeightData.from_json(spec)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        _emit({"error": "malformed weight spec", "message": _malformed(err)}, args.out)
        return EXIT_INPUT

    from . import branch as branch_pkg
    from .rationals import valuation
    from .uea import branching_operator_constant

    bad = wd.cone_violation()
    if bad is not None:
        _emit({"error": "weight outside the cone", "violation": bad}, args.out)
        return EXIT_INPUT
    try:
        cone = cone_decompose(wd)
        bm = branch_pkg.BranchModel(wd, dim_cap=args.dim_cap)
    except ValueError as err:
        _emit({"error": "dimension cap exceeded", "message": str(err)}, args.out)
        return EXIT_BUDGET
    except ArithmeticError as err:
        _emit({"error": "falsified", "message": str(err)}, args.out)
        return EXIT_FALSIFIED

    report = {
        "weight": wd.to_json(),
        "cone_decomposition": {str(k): v for k, v in sorted(
            cone.items(), key=lambda kv: str(kv[0]))},
        "model_dimension": bm.dimension,
        "eigenspace_dimension": bm.eigen_dimension,
        "branch_vector": bm.to_json(),
        "p": args.p, "beta": args.beta, "seed": args.seed,
    }
    report["normalization_value"] = str(bm.normalization_value())

    if any(wd.j):
        wd0 = WeightData(wd.n, wd.d, wd.kappa0,
                         [list(r) for r in wd.kappa], [0] * wd.d)
        bm0 = branch_pkg.BranchModel(wd0, dim_cap=args.dim_cap)
        try:
            res = branching_operator_constant(bm, bm0)
            report["operator_constant"] = str(res["constant"])
            report["operator"] = res["operator"].to_json()
        except ArithmeticError as err:
            _emit({"error": "falsified", "message": str(err)}, args.out)
            return EXIT_FALSIFIED

    # sample restriction values on the congruence set
    import random

    rnd = random.Random(args.seed)
    from .suites import random_congruence_unipotent, random_unit_box_point

    p, beta = args.p, args.beta
    M = beta + 2
    # every sample entry is an int below p^M < 2^(M bitlen(p^16) / 16): before the
    # first draw, refuse a box point or value too long for the budget or to write out
    entry_bits = -(-M * (p ** 16).bit_length() // 16)
    digits = max(entry_bits, bm.box_value_bits(entry_bits)) * 30103 // 100000 + 1
    work.charge_digits("branch.restriction_samples", digits)
    samples = []
    for _ in range(5):
        g = random_congruence_unipotent(wd.n, wd.d, p, beta, M, rnd)
        a = random_unit_box_point(wd.n, p, beta, M, rnd)
        val = bm.box_restriction_value(g, a)
        samples.append({
            "box_point": [str(x) for x in a],
            "value": str(val),
            "unit_congruent": bool(valuation(val - 1, p) >= beta),
        })
    report["restriction_samples"] = samples
    _emit(report, args.out, args.csv)
    return EXIT_OK


def _run_suite(name: str, args) -> dict:
    kwargs = {"seed": args.seed}
    if name in ("mahler", "rep"):
        kwargs["p"] = args.p
    elif name == "tate":
        kwargs.update(p=args.p, k_max=args.k_max, dmax=args.dmax)
    elif name == "iwahori":
        kwargs.update(n=args.n, p=args.p, beta=args.beta)
    return SUITES[name](**kwargs)


class _ChildError(Exception):
    """An exception a suite raised in a child process; its args are (type name, message)."""

    def __str__(self):
        return self.args[1]


# the order suites start in: the longest first, so none is left to run alone
_HEAVIEST_FIRST = ("tate", "interp", "rep", "uea", "iwahori", "mahler")


def _workers(names) -> int:
    """How many processes run the suites, this one included; 1 runs them here, in turn.

    Several suites on several usable cores run here and in children, unless
    fork is missing, another thread is alive, or something observes the run:
    a profiler, a tracer, or a wrapper on a SUITES entry (the benchmark
    tracer wraps them), whose counts a child could not bring back.
    """
    if len(names) < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if (threading and threading.active_count() > 1) or sys.getprofile() or sys.gettrace() \
            or any(hasattr(SUITES[name], "__wrapped__") for name in names):
        return 1
    return min(len(os.sched_getaffinity(0)), len(names))


def _outcome(name: str, args):
    """(report, None), or (None, the exception suite `name` raised)."""
    try:
        return _run_suite(name, args), None
    except Exception as err:  # raised at the suite's turn, as the serial loop would
        return None, err


def _child(queue, first: int, tasks: int, args, write_fd: int) -> None:
    """In a forked child: run suite `queue[first]`, then each suite whose index it
    reads from the task pipe `tasks`, until that is empty; then exit.

    Down `write_fd` it sends each suite's index (one byte) before running it,
    so that the parent can name the suite a death cuts short, and then its
    outcome as an 8-byte length and a pickle: (report, None), or (None, the
    exception to raise in the parent): the BudgetExceeded itself, or any other
    exception as a `_ChildError`.  `os._exit` runs no atexit hook and flushes
    no stdio inherited from the parent.
    """
    status = 1
    try:
        import pickle

        index = bytes([first])
        with open(write_fd, "wb") as fh:
            while index:
                fh.write(index)
                fh.flush()
                report, err = _outcome(queue[index[0]], args)
                if err is not None and not isinstance(err, work.BudgetExceeded):
                    err = _ChildError(type(err).__name__, str(err))
                data = pickle.dumps((report, err), pickle.HIGHEST_PROTOCOL)
                fh.write(len(data).to_bytes(8, "big") + data)
                fh.flush()
                index = os.read(tasks, 1)  # one byte: atomic, no suite is taken twice
        status = 0
    finally:
        os._exit(status)


def _forked(names, args, workers: int):
    """The suites' reports in the order of `names`, run here and in forked children.

    The suites form one queue, the heaviest first.  Each of the `workers - 1`
    children is forked once with its first suite; the rest wait in a task
    pipe, one byte each, from which every process, this one included, takes
    its next suite as soon as it is free.  Between its own suites this
    process reads the children's pipes, and it waits on them only when the
    queue is empty.  A suite's budget exit or exception is raised at its
    turn, as the serial loop would raise it, and the children still running
    are killed: they would not be run serially.  Every child is reaped
    before this generator ends, however it ends.
    """
    import pickle
    import selectors
    import signal

    queue = sorted(names, key=_HEAVIEST_FIRST.index)
    tasks, task_end = os.pipe()
    os.write(task_end, bytes(range(workers - 1, len(queue))))
    os.close(task_end)  # so a read from the empty queue returns b"" at once
    live, done = {}, {}  # read fd -> [pid, unread bytes]; name -> outcome
    how = ""  # how the last child to die abnormally died
    selector = selectors.DefaultSelector()

    def died(suite):
        return None, _ChildError("ChildProcessError",
                                 f"suite {suite}: its child process {how} before reporting")

    try:
        for first in range(workers - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(queue, first, tasks, args, write_fd)
            live[read_fd] = [pid, bytearray()]
            os.close(write_fd)
            selector.register(read_fd, selectors.EVENT_READ)
        for name in names:
            while name not in done:
                own = os.read(tasks, 1)
                if own:
                    done[queue[own[0]]] = _outcome(queue[own[0]], args)
                elif not live:  # its child died between taking it and naming it
                    done[name] = died(name)
                    continue
                for key, _ in selector.select(0 if own else None):
                    pid, unread = live[key.fd]
                    chunk = os.read(key.fd, 1 << 16)
                    unread += chunk
                    while len(unread) > 8 and len(unread) >= (
                            end := 9 + int.from_bytes(unread[1:9], "big")):
                        done[queue[unread[0]]] = pickle.loads(unread[9:end])
                        del unread[:end]
                    if chunk:
                        continue
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del live[key.fd]
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    if status == 0:
                        continue
                    how = (f"was killed by {signal.Signals(-status).name}" if status < 0
                           else f"exited with status {status}")
                    if unread:  # the index of the suite it died in
                        done[queue[unread[0]]] = died(queue[unread[0]])
            report, err = done[name]
            if err is not None:
                raise err
            yield report
    finally:
        for read_fd, (pid, _) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
        os.close(tasks)
        selector.close()


def _run_suites(names, args) -> int:
    workers = _workers(names)
    reports = []
    try:
        for report in _forked(names, args, workers) if workers > 1 else (
                _run_suite(name, args) for name in names):
            reports.append(report)
    except work.BudgetExceeded as err:
        _emit({"error": "budget exceeded", "message": str(err),
               "suites": reports}, args.out)
        return EXIT_BUDGET
    merged = {"suites": reports, "passed": all(r["passed"] for r in reports),
              "seed": args.seed}
    _emit(merged, args.out, args.csv)
    return EXIT_OK if merged["passed"] else EXIT_FALSIFIED


def _run_interp_factor(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        _emit({"error": "invalid JSON", "message": str(err), "line": err.lineno,
               "column": err.colno}, args.out)
        return EXIT_INPUT
    except OSError as err:
        _emit({"error": "cannot read config", "message": str(err)}, args.out)
        return EXIT_INPUT
    from .characters import PCharacter
    from .cyclotomic import CyclotomicElement
    from .interp import HalfPowerValue, SatakeData, SmoothCharacter, cpr_identity_check

    try:
        p, n, d = (integer(cfg[key], f'"{key}"') for key in ("p", "n", "d"))
        e = [integer(x, '"e" entry') for x in cfg["e"]]
        entries, logs = cfg["characters"], []
        for item in entries:
            if not isinstance(item, dict):
                raise ValueError(f'"characters" entry must be a JSON object, got {item!r}')
            logs.append((integer(item.get("conductor_exp", 0), '"conductor_exp"'),
                         integer(item.get("log", 0), '"log"')))
        # a Gauss sum loops over (Z/p^c)^*: bound it before is_prime or any table
        if p >= 2:  # p < 2 is refused later as not prime
            work.charge("interp.gauss_sum", (p, max([1] + [c for c, _ in logs])), "units")
        # alpha_p^e is a product of d n (2n - 1) Satake factors
        if n > 0 and d > 0:
            work.charge("interp.alpha_p_e", d * n * (2 * n - 1), "Satake factors")
        chis = []
        for item, (c, log) in zip(entries, logs):
            fin = PCharacter.from_log(p, c, log)
            at_p = HalfPowerValue(p, CyclotomicElement.from_json(item["at_p"])
                                  if isinstance(item.get("at_p"), dict)
                                  else Fraction(item.get("at_p", 1)))
            if at_p.coeff.is_zero():
                raise ValueError('"at_p" must be nonzero')
            chis.append(SmoothCharacter(fin, at_p))
        for key, items in (("e", e), ("characters", chis)):
            if len(items) != d:
                raise ValueError(f'"{key}" has {len(items)} entries, need d = {d}')
        values = {}
        for key, val in (cfg.get("theta_values") or {}).items():
            try:
                tau, i = map(int, key.split(","))
            except ValueError:
                raise ValueError(f'theta value key "{key}" must be "tau,i",'
                                 ' two integers') from None
            if not (0 <= tau < d and 1 <= i <= n):
                raise ValueError(f'theta value "{key}" is outside 0 <= tau < d = {d},'
                                 f' 1 <= i <= n = {n}')
            theta = HalfPowerValue(p, Fraction(val))
            if theta.coeff.is_zero():
                raise ValueError(f'theta value "{key}" must be nonzero')
            values[(tau, i)] = theta
        data = SatakeData(n, d, p, values or None)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        _emit({"error": "malformed config", "message": _malformed(err)}, args.out)
        return EXIT_INPUT
    try:
        rep = cpr_identity_check(data, chis, e, n)
    except ValueError as err:
        _emit({"error": "malformed config", "message": str(err)}, args.out)
        return EXIT_INPUT
    vj = rep["direct"].to_json()
    factor = Suite("interp")
    factor.check(CPR_IDENTITY, "both epsilon-factor forms agree").expect(rep["passed"])
    report = {
        "value": {"coeffs": vj["coeff"]["coeffs"], "field_order": vj["coeff"]["m"],
                  "half_exp": vj["half_exp"], "theta": vj["theta"]},
        "checks": factor.checks,
    }
    _emit(report, args.out, args.csv)
    return EXIT_OK if rep["passed"] else EXIT_FALSIFIED


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as bad input (exit code 3).

    Prefixes of long flags are not accepted: an unknown `--d` would
    otherwise be read as `--dmax`.  Help that cannot be written to stdout
    raises `_StdoutError`, where argparse would drop it and exit 0.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if not message:
            return
        file = file or sys.stderr
        try:
            file.write(message)
            file.flush()
        except OSError as err:
            if file is sys.stdout:
                raise _StdoutError(str(err)) from None


_DEFAULTS = {"p": 3, "n": 2, "beta": 1, "seed": 0, "budget": 10 ** 6, "out": None,
             "csv": False, "k_max": 8, "dmax": 12}


def _add_global_flags(parser) -> None:
    # defaults are SUPPRESS so subcommand-position flags do not clobber
    # values given before the subcommand; main() fills the real defaults
    parser.add_argument("--p", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--beta", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="most work one check may do, in the units its budget "
                             "message names; past it the run exits 2 (default 1000000)")
    parser.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="output path (resolved against PADICDESK_OUT_DIR)")
    parser.add_argument("--csv", action="store_true", default=argparse.SUPPRESS,
                        help="also flatten leaf tables to CSV")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="padicdesk",
        description="Exact p-adic desk calculator: branching vectors, Iwahori "
                    "matrix identities, Gauss sums and interpolation factors.")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_branch = sub.add_parser("branch", help="solve a branching instance")
    p_branch.add_argument("--weight", type=str, help="weight spec JSON file")
    p_branch.add_argument("--weight-json", type=str, help="inline weight spec JSON")
    p_branch.add_argument("--dim-cap", type=int, default=500)
    _add_global_flags(p_branch)

    p_tate = sub.add_parser("tate", help="derivation-calculus identity checks")
    tate_sub = p_tate.add_subparsers(dest="action", required=True, parser_class=_Parser)
    t_verify = tate_sub.add_parser("verify")
    t_verify.add_argument("--k-max", type=int, default=argparse.SUPPRESS)
    t_verify.add_argument("--dmax", type=int, default=argparse.SUPPRESS)
    _add_global_flags(t_verify)

    p_iw = sub.add_parser("iwahori", help="coset and matrix identity checks")
    iw_sub = p_iw.add_subparsers(dest="action", required=True, parser_class=_Parser)
    iw_verify = iw_sub.add_parser("verify")
    _add_global_flags(iw_verify)

    p_interp = sub.add_parser("interp", help="interpolation factor arithmetic")
    interp_sub = p_interp.add_subparsers(dest="action", required=True,
                                         parser_class=_Parser)
    i_factor = interp_sub.add_parser("factor")
    i_factor.add_argument("--config", type=str, required=True)
    _add_global_flags(i_factor)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", type=str, default="all",
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--k-max", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--dmax", type=int, default=argparse.SUPPRESS)
    _add_global_flags(p_verify)
    return parser


def _bad_input(args) -> str | None:
    """The first out-of-range global option, described; None if all are valid."""
    if not is_prime(args.p):
        return f"--p {args.p} is not prime"
    if args.p == 2 and getattr(args, "suite", None) in ("mahler", "all"):
        return "--p 2: the mahler suite needs an odd prime"
    if args.n < 2:
        return f"--n {args.n} must be >= 2"
    if args.beta < 1:
        return f"--beta {args.beta} must be >= 1"
    if args.k_max < 0:
        return f"--k-max {args.k_max} must be >= 0"
    if args.dmax < 3:
        return f"--dmax {args.dmax} must be >= 3"
    if args.budget < 1:
        return f"--budget {args.budget} must be >= 1"
    if getattr(args, "dim_cap", 1) < 1:
        return f"--dim-cap {args.dim_cap} must be >= 1"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for key, default in _DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, default)
        return _run(parser, args)
    except _StdoutError as err:
        # the report was lost: say so on stderr, and point stdout at the null
        # device so that the flush at exit cannot fail a second time
        sys.stderr.write(json.dumps({"error": "cannot write output",
                                     "message": f"stdout: {err}"}, sort_keys=True) + "\n")
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_INPUT
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_INPUT


def _run(parser, args) -> int:
    """Dispatch under --budget; every failure but a lost stdout becomes a JSON report."""
    try:
        # an --out that cannot be written fails before any work is done; the
        # late _OutputError still covers what this check cannot see
        problem = args.out and _unwritable(args.out)
        if problem:
            raise _OutputError(problem)
        with work.budget(args.budget):
            return _dispatch(parser, args)
    except _StdoutError:
        raise
    except work.BudgetExceeded as err:
        _emit({"error": "budget exceeded", "message": str(err)}, args.out)
        return EXIT_BUDGET
    except _OutputError as err:
        _emit({"error": "cannot write output", "message": str(err)}, None)
        return EXIT_INPUT
    except Exception as err:  # the boundary of the process: no traceback escapes
        kind = err.args[0] if isinstance(err, _ChildError) else type(err).__name__
        _emit({"error": "internal error", "type": kind, "message": str(err)}, None)
        return EXIT_INTERNAL


def _dispatch(parser, args) -> int:
    bad = _bad_input(args)
    if bad:
        _emit({"error": "bad input", "message": bad}, args.out)
        return EXIT_INPUT
    if args.command == "branch":
        if not args.weight and not args.weight_json:
            parser.error("branch requires --weight or --weight-json")
        return _run_branch(args)
    if args.command == "tate":
        return _run_suites(["tate"], args)
    if args.command == "iwahori":
        return _run_suites(["iwahori"], args)
    if args.command == "interp":
        return _run_interp_factor(args)
    if args.command == "verify":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        return _run_suites(names, args)
    parser.error("unknown command")
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
