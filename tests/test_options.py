"""No library option goes unset: every parameter with a default in
`src/padicdesk` is given a value by some call in `src/padicdesk`.

A call is matched to a definition by the name it calls (`f(...)`,
`obj.f(...)`, `Class(...)` for `Class.__init__`, `cls(...)` inside a
class).  It passes a parameter when it names it, reaches its position, or
spreads `*args` or `**kwargs`.  A value that only forwards an option counts
only if that option is itself passed: the caller's own defaulted parameter
(`gammahat_element(n, distinguished)` calling `gamma_element(n,
distinguished)`), or an attribute of the same name on `self` or on a
parameter annotated with the class that takes it (`f.scale` for
`f: MahlerSeries`).  The options allowed below are set from outside the
package, so what they forward counts as set.  Matching by name alone can
credit a call to a same-named function, so the scan may miss an unset
option; a parameter rebound before it is forwarded still reads as forwarded.
"""

import ast
from pathlib import Path

import padicdesk

_SRC = Path(padicdesk.__file__).resolve().parent

# parameters that only a caller outside the package sets: the suite
# configuration, the argv of the entry point and argparse's output stream
_ALLOWED = {
    "cli.main(argv)",
    "cli._Parser._print_message(file)",
}


def _is_allowed(option: str) -> bool:
    return option in _ALLOWED or (option.startswith("suites.run_")
                                  and "_suite(" in option)


class _Scan(ast.NodeVisitor):
    """Definitions with defaults, and every call with the enclosing function."""

    def __init__(self):
        self.defs = {}   # called name -> [(label, {param: position or None})]
        self.calls = []  # (called name, call node, enclosing (label, def, class) or None)
        self.inits = {}  # class name -> label of its __init__
        self._scope, self._cls, self._func = [], None, None

    def scan(self, module: str, tree):
        self._scope = [module]
        self.visit(tree)

    def visit_ClassDef(self, node):
        saved = self._scope, self._cls
        self._scope, self._cls = self._scope + [node.name], node.name
        self.generic_visit(node)
        self._scope, self._cls = saved

    def visit_FunctionDef(self, node):
        label = ".".join(self._scope + [node.name])
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = int(self._cls is not None and not static)  # self or cls
        first = len(positional) - len(args.defaults)
        params = {a.arg: i - skip for i, a in enumerate(positional) if i >= first}
        params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None})
        called = self._cls if node.name == "__init__" and self._cls else node.name
        if node.name == "__init__" and self._cls:
            self.inits[self._cls] = label
        if params:
            self.defs.setdefault(called, []).append((label, params))
        saved = self._scope, self._cls, self._func
        self._func = (label, node, self._cls)
        self._scope, self._cls = self._scope + [node.name], None
        self.generic_visit(node)
        self._scope, self._cls, self._func = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "cls" or (isinstance(f, ast.Call) and getattr(f.func, "id", None) == "type"):
            name = self._func and self._func[2]
        self.calls.append((name, node, self._func))
        self.generic_visit(node)


def _scan() -> _Scan:
    scan = _Scan()
    for path in sorted(_SRC.glob("*.py")):
        scan.scan(path.stem, ast.parse(path.read_text()))
    return scan


def _source(arg, func, scan):
    """The option `arg` forwards, as a "label(param)" string, or None if it sets one."""
    if func is None:
        return None
    label, node, cls = func
    own = {label_: params for entries in scan.defs.values() for label_, params in entries}
    if isinstance(arg, ast.Name):
        return f"{label}({arg.id})" if arg.id in own.get(label, {}) else None
    if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
        owner = cls if arg.value.id == "self" else None
        for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if a.arg == arg.value.id and a.annotation is not None:
                ann = a.annotation
                owner = ann.id if isinstance(ann, ast.Name) else getattr(ann, "value", None)
        init = scan.inits.get(owner)
        if init is not None and arg.attr in own.get(init, {}):
            return f"{init}({arg.attr})"
    return None


def _unset(allowed=_is_allowed) -> set:
    scan = _scan()
    options = {f"{label}({p})" for entries in scan.defs.values()
               for label, params in entries for p in params}
    # the allowed options are set from outside, so what they forward is set too
    passed = {o for o in options if allowed(o)}
    forwards = []  # (option, the option it forwards)
    for name, call, func in scan.calls:
        spread = (any(isinstance(a, ast.Starred) for a in call.args)
                  or any(k.arg is None for k in call.keywords))
        given = {k.arg: k.value for k in call.keywords if k.arg is not None}
        for label, params in scan.defs.get(name, ()):
            for param, index in params.items():
                option = f"{label}({param})"
                if param in given:
                    arg = given[param]
                elif index is not None and index < len(call.args) and not any(
                        isinstance(a, ast.Starred) for a in call.args[:index + 1]):
                    arg = call.args[index]
                elif spread:
                    arg = None
                else:
                    continue
                source = None if arg is None else _source(arg, func, scan)
                if source is None:
                    passed.add(option)
                else:
                    forwards.append((option, source))
    grew = True
    while grew:
        grew = False
        for option, source in forwards:
            if source in passed and option not in passed:
                passed.add(option)
                grew = True
    return options - passed


def test_every_option_is_set_by_some_call():
    assert sorted(o for o in _unset() if not _is_allowed(o)) == []


def test_the_scan_follows_positions_keywords_and_forwards():
    scan = _scan()
    # a method's position skips self; __init__ is reached through the class name
    assert ("glrep.GLBlockModel.__init__", {"convention": 2, "dim_cap": 3}) \
        in scan.defs["GLBlockModel"]
    # with nothing set from outside, the suite configuration and what it
    # forwards (run_tate_suite's p as the scale of shift_matrix) are unset
    unset = _unset(allowed=lambda option: False)
    assert {"suites.run_tate_suite(k_max)", "tate.shift_matrix(scale)"} <= unset
    unset = _unset()
    assert "tate.shift_matrix(scale)" not in unset
    # set by position, by keyword, and through a forward from `--dim-cap`
    assert not {"iwahori.t_p_matrix(e)", "uea.det_operator_full(comp)",
                "glrep.GLBlockModel.__init__(dim_cap)"} & unset
