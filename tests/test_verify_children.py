"""`verify` with several suites runs them here and in forked children: same bytes as serial.

Each case runs the same command twice in process: with two usable cores
(`os.sched_getaffinity` patched to {0, 1}), so the suites run in this
process and one child, and with one ({0}), which takes the serial loop.
stdout, the exit code and the --out/--csv files must be the same bytes,
and no child may be left behind.  Faults are planted in a suite's mathematics before the fork, so the
children inherit them.
"""

import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import padicdesk.cli as cli
from padicdesk import mahler, suites, tate
from padicdesk.cli import main

_SEED7 = "24dc05c9119254ea2ae9f9f618c87ca7c3ce96791b5c6205c443ae7192db51be"


def _run(argv, capfd, monkeypatch, cores, tmp_path=None):
    """(exit code, stdout, stderr, --out and --csv file bytes, forks) of one in-process call."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        patch.setattr(os, "fork", fork)
        out = tmp_path / f"report-{cores}.json" if tmp_path else None
        code = main((["--out", str(out), "--csv"] if out else []) + argv)
    captured = capfd.readouterr()
    files = (out.read_bytes(), Path(f"{out}.csv").read_bytes()) if out else None
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    return code, captured.out, captured.err, files, len(forks)


def _same_as_serial(argv, capfd, monkeypatch, tmp_path=None):
    """The forked run's exit code and stdout, after checking them against the serial run's."""
    code, out, err, files, forks = _run(argv, capfd, monkeypatch, 2, tmp_path)
    serial = _run(argv, capfd, monkeypatch, 1, tmp_path)
    assert forks > 0 and serial[4] == 0
    assert (code, out, err, files) == serial[:4]
    return code, out


@pytest.mark.parametrize("flags", [["--seed", "7"], ["--seed", "13"], ["--p", "5"]],
                         ids=["seed7", "seed13", "p5"])
def test_forked_report_matches_serial(flags, capfd, monkeypatch):
    code, out = _same_as_serial(flags + ["verify", "--suite", "all"], capfd, monkeypatch)
    assert code == 0 and len(json.loads(out)["suites"]) == 6


def test_forked_out_and_csv_files_match_serial(capfd, monkeypatch, tmp_path):
    code, out = _same_as_serial(["--seed", "7", "verify", "--suite", "all"], capfd,
                                monkeypatch, tmp_path)
    assert code == 0 and out == ""


@pytest.mark.parametrize("flags, suite, kept", [
    (["--p", "11"], "iwahori", 1),
    (["--seed", "7", "--budget", "18378"], "tate", 4),
], ids=["p11-iwahori", "budget-tate"])
def test_forked_budget_exit_keeps_the_reports_before_it(flags, suite, kept, capfd,
                                                        monkeypatch):
    code, out = _same_as_serial(flags + ["verify", "--suite", "all"], capfd, monkeypatch)
    report = json.loads(out)
    assert code == 2 and len(report["suites"]) == kept
    assert report["message"].startswith(f"{suite}.")


def test_forked_failing_check_exits_1(capfd, monkeypatch):
    real = mahler.mahler_coefficients

    def fault(values, p, K=None):
        return real(values[:2] + [v + 1 for v in values[2:]] if K is None else values, p, K)

    monkeypatch.setattr(mahler, "mahler_coefficients", fault)
    code, out = _same_as_serial(["--seed", "7", "verify", "--suite", "all"], capfd,
                                monkeypatch)
    report = json.loads(out)
    assert code == 1 and not report["passed"]
    assert [r["suite"] for r in report["suites"] if not r["passed"]] == ["mahler"]


def test_forked_internal_error_exits_4_with_its_type_and_message(capfd, monkeypatch):
    def broken(values, p, K=None):
        raise ZeroDivisionError("planted in the mahler coefficients")

    monkeypatch.setattr(mahler, "mahler_coefficients", broken)
    code, out = _same_as_serial(["--seed", "7", "verify", "--suite", "all"], capfd,
                                monkeypatch)
    assert code == 4
    assert json.loads(out) == {"error": "internal error", "type": "ZeroDivisionError",
                               "message": "planted in the mahler coefficients"}


def test_child_killed_by_a_signal_exits_4_without_traceback(capfd, monkeypatch):
    parent = os.getpid()

    def killed(k, f, deriv):  # tate, the heaviest suite, is the first child's first
        if os.getpid() == parent:
            raise AssertionError("tate ran in the parent process")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(tate, "binomial_of_derivation_direct", killed)
    code, out, err, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                    monkeypatch, 2)
    assert code == 4 and forks > 0 and err == ""
    assert json.loads(out) == {
        "error": "internal error", "type": "ChildProcessError",
        "message": "suite tate: its child process was killed by SIGKILL before reporting"}


def test_exception_in_the_parents_own_suite_keeps_its_type(capfd, monkeypatch):
    def broken(*args):  # interp, the second heaviest, is this process's first suite
        raise KeyError("planted in the interp suite")

    monkeypatch.setattr(suites, "cpr_identity_check", broken)
    code, out = _same_as_serial(["--seed", "7", "verify", "--suite", "all"], capfd,
                                monkeypatch)
    assert code == 4
    assert json.loads(out) == {"error": "internal error", "type": "KeyError",
                               "message": "'planted in the interp suite'"}


def test_each_suite_runs_once_and_this_process_takes_a_share(capfd, monkeypatch, tmp_path):
    log, parent, real = tmp_path / "ran.txt", os.getpid(), cli._run_suite

    def logged(name, args):
        with open(log, "a") as fh:  # one short append per suite, from any process
            fh.write(f"{name} {'here' if os.getpid() == parent else 'child'}\n")
        return real(name, args)

    monkeypatch.setattr(cli, "_run_suite", logged)
    code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                  monkeypatch, 2)
    assert code == 0 and forks == 1
    assert hashlib.sha256(out.encode()).hexdigest() == _SEED7
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in ran) == sorted(cli.SUITES)
    here = [name for name, where in ran if where == "here"]
    assert here[0] == "interp" and "tate" not in here  # the child starts with tate


def test_the_start_order_names_every_suite_once():
    assert sorted(cli._HEAVIEST_FIRST) == sorted(cli.SUITES)


def _children_starts(log, parent):
    """How many suites each child has started, by process id, from the lines of `log`."""
    lines = log.read_text().split() if log.exists() else []
    return Counter(pid for pid in lines[1::2] if pid != str(parent))


def _interp_waits(monkeypatch, log, until=None, kill_second=False):
    """Patch `cli._run_suite` to append "<suite> <pid>" to `log` as any process starts a
    suite.  This process's first suite, interp, first waits up to 5 s for `until()`,
    by default for a child to start its second suite; the returned list gets whether
    it came.  With `kill_second` a child kills itself by SIGKILL as it starts its
    second suite."""
    parent, real, waits = os.getpid(), cli._run_suite, []
    until = until or (lambda: max(_children_starts(log, parent).values(), default=0) > 1)

    def logged(name, args):
        with open(log, "a") as fh:  # one short append per suite, from any process
            fh.write(f"{name} {os.getpid()}\n")
        if os.getpid() == parent and name == "interp":
            deadline = time.monotonic() + 5
            while not until() and time.monotonic() < deadline:
                time.sleep(0.005)
            waits.append(until())
        elif kill_second and _children_starts(log, parent)[str(os.getpid())] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(name, args)

    monkeypatch.setattr(cli, "_run_suite", logged)
    return waits


def test_a_child_that_finishes_a_suite_takes_the_next(capfd, monkeypatch, tmp_path):
    waits = _interp_waits(monkeypatch, tmp_path / "ran.txt")
    code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                  monkeypatch, 2)
    assert waits == [True]  # the child started its second suite while interp ran here
    assert code == 0 and forks == 1
    assert hashlib.sha256(out.encode()).hexdigest() == _SEED7


def test_child_killed_in_its_second_suite_names_that_suite(capfd, monkeypatch, tmp_path):
    log, parent = tmp_path / "ran.txt", os.getpid()
    waits = _interp_waits(monkeypatch, log, kill_second=True)
    code, out, err, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                    monkeypatch, 2)
    ran = [line.split() for line in log.read_text().splitlines()]
    child = [name for name, pid in ran if pid != str(parent)]
    assert waits == [True] and child[0] == "tate" and len(child) == 2
    assert code == 4 and forks == 1 and err == ""
    assert json.loads(out) == {
        "error": "internal error", "type": "ChildProcessError",
        "message": f"suite {child[1]}: its child process was killed by SIGKILL before"
                   " reporting"}


def test_child_killed_before_naming_the_suite_it_took(capfd, monkeypatch, tmp_path):
    log, taken, parent, real_read = tmp_path / "ran.txt", tmp_path / "taken", os.getpid(), \
        os.read

    def read(fd, n):
        data = real_read(fd, n)
        if n == 1 and data and os.getpid() != parent:  # a child takes a suite from the queue
            taken.write_bytes(data)
            os.kill(os.getpid(), signal.SIGKILL)
        return data

    monkeypatch.setattr(os, "read", read)
    waits = _interp_waits(monkeypatch, log, taken.exists)
    code, out, err, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                    monkeypatch, 2)
    lost = cli._HEAVIEST_FIRST[taken.read_bytes()[0]]  # the queue is in this order
    assert waits == [True] and lost != "tate"
    assert lost not in [line.split()[0] for line in log.read_text().splitlines()]
    assert code == 4 and forks == 1 and err == ""
    assert json.loads(out) == {
        "error": "internal error", "type": "ChildProcessError",
        "message": f"suite {lost}: its child process was killed by SIGKILL before reporting"}


def test_a_death_is_named_at_its_turn_while_other_children_run(capfd, monkeypatch):
    parent, real = os.getpid(), cli._run_suite

    def planted(name, args):  # three cores: tate and interp start in the two children
        if os.getpid() != parent and name == "tate":
            time.sleep(20)  # killed with the run long before this ends
        elif os.getpid() != parent and name == "interp":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(name, args)

    monkeypatch.setattr(cli, "_run_suite", planted)
    start = time.monotonic()
    code, out, err, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                    monkeypatch, 3)
    assert time.monotonic() - start < 10  # the index interp's child sent names it at once
    assert code == 4 and forks == 2 and err == ""
    assert json.loads(out)["message"] == ("suite interp: its child process was killed by"
                                          " SIGKILL before reporting")


@pytest.mark.parametrize("cores", [3, 6, 8])
def test_this_process_runs_a_suite_at_any_core_count(cores, capfd, monkeypatch, tmp_path):
    log, real = tmp_path / "ran.txt", cli._run_suite

    def logged(name, args):
        with open(log, "a") as fh:  # one short append per suite, from any process
            fh.write(f"{name}\n")
        return real(name, args)

    monkeypatch.setattr(cli, "_run_suite", logged)
    code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                  monkeypatch, cores)
    assert code == 0 and forks == min(cores, 6) - 1  # each child is forked once
    assert hashlib.sha256(out.encode()).hexdigest() == _SEED7
    assert sorted(log.read_text().split()) == sorted(cli.SUITES)  # none taken twice


def test_forked_report_larger_than_a_pipe_buffer(capfd, monkeypatch):
    real = suites.Suite.report

    def padded(self):
        report = real(self)
        if self.name == "tate":
            report["padding"] = ["x" * 1000] * 200
        return report

    monkeypatch.setattr(suites.Suite, "report", padded)
    code, out = _same_as_serial(["--seed", "7", "verify", "--suite", "all"], capfd,
                                monkeypatch)
    assert code == 0 and len(out) > 200_000


def test_a_single_suite_runs_in_process(capfd, monkeypatch):
    code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "tate"], capfd,
                                  monkeypatch, 2)
    assert code == 0 and forks == 0


def test_a_run_with_another_thread_alive_stays_in_process(capfd, monkeypatch):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                      monkeypatch, 2)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and code == 0 and forks == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SEED7


def _tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("padicdesk_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_stays_in_process_and_counts_the_serial_work(capfd, monkeypatch):
    argv = ["--seed", "7", "verify", "--suite", "all"]
    _run(argv, capfd, monkeypatch, 1)  # both traced runs find the module caches filled
    counts = []
    for cores in (2, 1):
        tracer = _tracer().Tracer()
        tracer.install()
        try:
            code, out, _, _, forks = _run(argv, capfd, monkeypatch, cores)
        finally:
            tracer.restore()
        assert code == 0 and forks == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _SEED7
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["iwahori.representatives_checked"] > 0
    assert counts[0]["artinian.mul_calls"] > 0 and counts[0]["characters.evals"] > 0


def test_profiled_run_stays_in_process(capfd, monkeypatch):
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name.startswith("run_"):
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, out, _, _, forks = _run(["--seed", "7", "verify", "--suite", "all"], capfd,
                                      monkeypatch, 2)
    finally:
        sys.setprofile(None)
    assert code == 0 and forks == 0
    assert {f"run_{name}_suite" for name in cli.SUITES} <= called


def test_fresh_process_report_under_optimize_and_a_fixed_hash_seed():
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    proc = subprocess.run([sys.executable, "-O", "-m", "padicdesk.cli", "--seed", "7",
                           "verify", "--suite", "all"], capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == _SEED7


def test_fresh_process_into_a_closed_pipe_exits_3_with_json_on_stderr():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "padicdesk.cli", "--seed", "7",
                               "verify", "--suite", "all"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "cannot write output",
                                       "message": "stdout: [Errno 32] Broken pipe"}
    assert proc.stderr.count("\n") == 1
