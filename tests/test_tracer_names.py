"""Every name the benchmark tracer patches exists in the package.

The tracer looks each qualified name up with `vars(owner)[name]`, so a
renamed or deleted function makes `--trace 1` fail with a KeyError.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("padicdesk_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = ([(module, qualname) for _, _, module, qualname, _, _ in tracer._SPANS]
             + [(module, qualname) for _, module, qualname, _ in tracer._COUNTERS])
    missing = []
    for module, qualname in names:
        owner = importlib.import_module(module)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert {("padicdesk.artinian", "ArtinianElement.__mul__"),
            ("padicdesk.tate", "binomial_of_derivation_closed")} <= set(names)
    assert missing == []


def test_the_hooks_read_the_work_off_the_results(capsys):
    # the hooks read `npoints` off the Fourier checks' reports and "checked"
    # off the double-coset result; the counts must match the reports' own
    import json

    import padicdesk.cli as cli

    tracer = _tracer().Tracer()
    tracer.install()
    try:
        reports = []
        for suite in ("mahler", "iwahori"):
            assert cli.main(["verify", "--suite", suite]) == 0
            reports.append(json.loads(capsys.readouterr().out)["suites"][0])
    finally:
        tracer.restore()
    mahler_report, iwahori_report = reports
    points = sum(c["points"] for c in mahler_report["checks"] if "points" in c)
    checked = {c["id"]: c for c in iwahori_report["checks"]}[
        "iwahori.double_coset_singleton"]["checked"]
    assert tracer.counts["mahler.fourier_points"] == points > 0
    assert tracer.counts["iwahori.representatives_checked"] == checked > 0
