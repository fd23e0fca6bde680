"""Per-layer tracing from outside the package.

A Tracer wraps named functions and methods of the loaded `padicdesk` modules
and restores them afterwards.  Coarse calls get spans (name, start, end,
parent id) and self time: the span's duration minus the time its child spans
cover.  The hot ring operators get counters only.  Spans and counters stay in
memory until `write`.

Every binding of a wrapped object is patched: module globals (including the
copies made by `from .x import y`), class attributes that alias the same
function (`__rmul__ = __mul__`) and module-level dicts such as
`suites.SUITES`.  Otherwise calls would go around the wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000  # span records kept; aggregates stay exact past the cap

# (metric for self time, count metric or None, module, qualified name, hook, record)
# A hook (tracer, args, result) adds work counts read off the call.
_SPANS = [
    *[(f"suites.{s}_s", None, "padicdesk.suites", f"run_{s}_suite", None, True)
      for s in ("mahler", "tate", "rep", "uea", "iwahori", "interp")],
    ("tate.epsilon_action_bound_s", "tate.epsilon_action_bound_calls", "padicdesk.tate",
     "epsilon_action_bound", None, True),
    ("tate.closed_form_s", "tate.closed_form_calls", "padicdesk.tate",
     "binomial_of_derivation_closed", None, True),
    ("tate.direct_iteration_s", None, "padicdesk.tate", "binomial_of_derivation_direct",
     None, True),
    ("tate.derivation_matrix_s", None, "padicdesk.tate", "derivation_matrix", None, True),
    ("matrices.matmul_s", "matrices.matmul_calls", "padicdesk.matrices",
     "ExactMatrix.__mul__", "matmul", True),
    ("matrices.modular_inverse_s", "matrices.modular_inverse_calls", "padicdesk.matrices",
     "modular_inverse", None, True),
    ("matrices.det_s", "matrices.det_calls", "padicdesk.matrices", "ExactMatrix.det",
     None, True),
    ("cyclotomic.zeta_power_sum_s", "cyclotomic.zeta_power_sum_calls",
     "padicdesk.cyclotomic", "zeta_power_sum", None, True),
    ("characters.gauss_sum_s", "characters.gauss_sum_calls", "padicdesk.characters",
     "gauss_sum", None, True),
    ("characters.from_log_s", "characters.from_log_calls", "padicdesk.characters",
     "PCharacter.from_log", None, True),
    ("characters.order_s", None, "padicdesk.characters", "PCharacter.order", None, True),
    ("characters.inverse_s", None, "padicdesk.characters", "PCharacter.inverse", None, True),
    ("interp.interpolation_factor_s", None, "padicdesk.interp", "interpolation_factor",
     None, True),
    ("interp.cpr_identity_check_s", None, "padicdesk.interp", "cpr_identity_check",
     None, True),
    # Poly products are a hot ring operator: timed, but not kept as span records
    ("polynomials.mul_s", "polynomials.mul_calls", "padicdesk.polynomials", "Poly.__mul__",
     None, False),
    ("polynomials.nullspace_s", None, "padicdesk.polynomials", "nullspace", None, True),
    ("glrep.block_model_s", "glrep.block_model_builds", "padicdesk.glrep",
     "GLBlockModel.__init__", "block_dim", True),
    ("branch.model_build_s", "branch.model_builds", "padicdesk.branch",
     "BranchModel.__init__", "model_dim", True),
    ("branch.box_restriction_s", "branch.box_restriction_calls", "padicdesk.branch",
     "BranchModel.box_restriction_value", None, True),
    ("uea.pbw_normalize_s", "uea.pbw_normalize_calls", "padicdesk.uea", "pbw_normalize",
     None, True),
    ("uea.operator_constant_s", None, "padicdesk.uea", "branching_operator_constant",
     None, True),
    ("iwahori.double_coset_s", None, "padicdesk.iwahori", "double_coset_singleton",
     "representatives", True),
    ("iwahori.intersection_check_s", None, "padicdesk.iwahori", "intersection_check",
     None, True),
    ("iwahori.similitude_check_s", None, "padicdesk.iwahori",
     "similitude_congruence_check", None, True),
    ("mahler.fourier_expand_s", None, "padicdesk.mahler", "fourier_expand_fchi",
     "fourier_points", True),
    ("mahler.fourier_expand_s", None, "padicdesk.mahler", "fourier_expand_unit_indicator",
     "fourier_points", True),
]

# (count metric, module, qualified name, hook on the arguments)
_COUNTERS = [
    ("artinian.elements_built", "padicdesk.artinian", "ArtinianElement.__init__", None),
    ("artinian.mul_calls", "padicdesk.artinian", "ArtinianElement.__mul__", None),
    ("artinian.add_calls", "padicdesk.artinian", "ArtinianElement.__add__", None),
    ("cyclotomic.elements_built", "padicdesk.cyclotomic", "CyclotomicElement.__init__",
     "field_order"),
    ("cyclotomic.mul_calls", "padicdesk.cyclotomic", "CyclotomicElement.__mul__", None),
    ("cyclotomic.inverse_calls", "padicdesk.cyclotomic", "CyclotomicElement.inverse", None),
    ("characters.evals", "padicdesk.characters", "PCharacter.__call__", None),
    ("interp.epsilon_factor_calls", "padicdesk.interp", "epsilon_factor", None),
    ("polynomials.diff_calls", "padicdesk.polynomials", "Poly.diff", None),
]

ROOT_METRIC = "cli.self_s"  # self time of cli.main: argument parsing, report assembly, JSON

PER_LAYER = {
    **{m[0]: "s" for m in _SPANS},
    **{m[1]: "count" for m in _SPANS if m[1]},
    **{m[0]: "count" for m in _COUNTERS},
    # work read off the calls by the hooks below
    "matrices.matmul_scalar_mults": "count",  # computed from operand shapes
    "glrep.block_dimension_sum": "count",
    "branch.model_dimension_sum": "count",
    "iwahori.representatives_checked": "count",
    "mahler.fourier_points": "count",
    "cyclotomic.max_field_order": "order",
    ROOT_METRIC: "s",
    "trace.wall_s": "s",
}


def _matmul(tracer, args, result):
    a, b = args
    inner = b.ncols if hasattr(b, "ncols") else 1  # computed from operand shapes
    tracer.counts["matrices.matmul_scalar_mults"] += a.nrows * a.ncols * inner


def _block_dim(tracer, args, result):
    tracer.counts["glrep.block_dimension_sum"] += args[0].dimension


def _model_dim(tracer, args, result):
    tracer.counts["branch.model_dimension_sum"] += args[0].dimension


def _representatives(tracer, args, result):
    tracer.counts["iwahori.representatives_checked"] += result["checked"]


def _fourier_points(tracer, args, result):
    tracer.counts["mahler.fourier_points"] += result.npoints


def _field_order(tracer, args):
    m = args[1]
    if m > tracer.counts["cyclotomic.max_field_order"]:
        tracer.counts["cyclotomic.max_field_order"] = m


_HOOKS = {"matmul": _matmul, "block_dim": _block_dim, "model_dim": _model_dim,
          "representatives": _representatives, "fourier_points": _fourier_points,
          "field_order": _field_order}


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []  # (id, parent id, name, start, end); parent 0 is the run
        self.dropped = 0
        self._stack = [[0, 0.0]]  # open spans: [id, time covered by children]
        self._next_id = 1
        self._patches = []  # (setter, key, original) to undo
        self.t0 = now()

    # -- wrappers -------------------------------------------------------

    def spanned(self, fn, metric, count=None, hook=None, record=True):
        tracer, stack, spans, now = self, self._stack, self.spans, self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                tracer.self_s[metric] += duration - frame[1]
                parent[1] += duration
                if count:
                    tracer.counts[count] += 1
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent[0], metric, start - tracer.t0,
                                      end - tracer.t0))
                    else:
                        tracer.dropped += 1
            if hook:
                hook(tracer, args, result)
            return result
        return wrapper

    def counted(self, fn, metric, hook=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            if hook:
                hook(self, args)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------

    def _patch_everywhere(self, module: str, qualname: str, make) -> None:
        owner = sys.modules[module]
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "padicdesk" or name.startswith("padicdesk.")]
        holders = {id(mod): mod for mod in modules}
        for mod in modules:
            for value in vars(mod).values():
                if isinstance(value, dict) or (
                        isinstance(value, type) and value.__module__.startswith("padicdesk")):
                    holders.setdefault(id(value), value)
        for holder in holders.values():
            if isinstance(holder, dict):
                items, setter = list(holder.items()), holder.__setitem__
            else:
                items, setter = list(vars(holder).items()), functools.partial(setattr, holder)
            for key, value in items:
                if value is raw:
                    setter(key, wrapped)
                    self._patches.append((setter, key, raw))

    def install(self) -> None:
        for metric, count, module, qualname, hook, record in _SPANS:
            self._patch_everywhere(module, qualname, functools.partial(
                self.spanned, metric=metric, count=count, hook=_HOOKS.get(hook),
                record=record))
        for metric, module, qualname, hook in _COUNTERS:
            self._patch_everywhere(module, qualname, functools.partial(
                self.counted, metric=metric, hook=_HOOKS.get(hook)))

    def restore(self) -> None:
        for setter, key, raw in reversed(self._patches):
            setter(key, raw)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        out = {}
        for name, unit in sorted(PER_LAYER.items()):
            value = self.self_s[name] if unit == "s" else self.counts[name]
            out[name] = {"value": value, "unit": unit}
        out["trace.wall_s"]["value"] = wall_s
        return out

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["spans_dropped"] = self.dropped
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
