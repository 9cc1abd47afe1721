"""Tooling guards: every public name in ``kgflow`` has a caller, every
parameter default of one is passed by some caller, and no kgflow module
imports a private name from another.

The scan parses ``src/kgflow/*.py`` and ``bench/*.py`` and collects every
name the code references, as a bare name or as an attribute; an import
alone is not a reference, and ``kgflow/__init__.py``'s re-exports are not
scanned. A public top-level function or class of ``kgflow``, or a public
method of such a class, that nothing references is callerless. Each
callerless name must be listed below with the reason it stays, and so
must each parameter with a default that no scanned call passes.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CALLERLESS = {
    "gfl.format_flowline": "the CLI's fmt command (ROADMAP item 8)",
    "gfl.emit_dot": "the CLI's dot command (item 8)",
    "scheduler.plan_from_dict": "the CLI reads plan files with it (item 8)",
    "sim.timeline_to_chrome_trace": "the CLI's simulate --trace (item 8)",
    "costmodel.MakespanPriceFit.makespan_at": "the plan diagnostics show the "
                                              "fitted curve (item 8)",
    "scheduler.compound": "bench/tracer.py's LAYERS reads it with getattr; "
                          "a missing name fails every traced run",
}

# Parameters with a default that no call in src/kgflow or bench passes.
UNPASSED = {
    "_fields.field.kind": "each module calls field through functools.partial "
                          "as _field, which the scan does not follow",
    "_fields.field.default": "as kind: called through functools.partial",
    "gfl.emit_dot.name": "the graph name of the CLI's dot command (item 8)",
    "scheduler.schedule.fit": "bench passes it through **curve_kw",
    "scheduler.schedule.observations": "bench passes it through **curve_kw",
    "scheduler.schedule.corpus_size": "the corpus a single plan's "
                                      "predictions are costed on, as "
                                      "schedule_many's callers pass it",
    "scheduler.schedule.slice_size": "as corpus_size, the slice it is cut in",
    "sim.sweep_eta.config": "the network, corpus and random-plan count of "
                            "a sweep other than the default one",
    "synth.synthetic_flowline.seed": "varies the profile of one task mix",
}


def _sources() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "kgflow").glob("*.py"))
               if p.name != "__init__.py"]
    return package + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree: ast.Module):
    """The public top-level functions and classes of a module, and the
    public methods of such a class: (name within the module, node, whether
    it is a method)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member, True


def scan() -> tuple[dict[str, str], set[str]]:
    """The public definitions of ``kgflow`` (qualified name -> the name a
    caller writes) and every name the scanned code references."""
    public: dict[str, str] = {}
    referenced: set[str] = set()
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        if path.parent.name == "kgflow":
            for name, node, _ in _definitions(tree):
                public[f"{path.stem}.{name}"] = node.name
    return public, referenced


def test_scan_sees_definitions_and_references():
    public, referenced = scan()
    assert {"gfl.parse", "scheduler.schedule", "scheduler.Ledger.fitting",
            "costmodel.ProcurementPlan.expand"} <= set(public)
    assert {"parse", "schedule", "fitting", "expand"} <= referenced


def test_every_public_name_has_a_caller_or_a_reason():
    public, referenced = scan()
    callerless = {name for name, called in public.items()
                  if called not in referenced}
    assert callerless == set(CALLERLESS)
    assert all(CALLERLESS.values())


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def unpassed_defaults() -> set[str]:
    """Each parameter with a default of a public function or method of
    ``kgflow`` that no call in the scanned code passes, by keyword or by
    position, as "module.function.parameter". A call is matched by the
    name it calls, as ``scan`` matches references; a ``*args`` passes
    every position, and what a ``**kwargs`` passes is not seen."""
    keywords: dict[str, set[str]] = {}
    positions: dict[str, float] = {}
    defaulted: dict[str, tuple[str, list[tuple[str, int | None]]]] = {}
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _called_name(node)):
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords if k.arg)
                given = (math.inf if any(isinstance(a, ast.Starred)
                                         for a in node.args)
                         else len(node.args))
                positions[name] = max(positions.get(name, 0), given)
        if path.parent.name != "kgflow":
            continue
        for name, node, method in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            bound = method and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            params = [(a.arg, i - bound) for i, a in enumerate(ordered)
                      ][len(ordered) - len(args.defaults):]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                      args.kw_defaults) if d]
            defaulted[f"{path.stem}.{name}"] = node.name, params
    return {f"{qualified}.{param}"
            for qualified, (called, params) in defaulted.items()
            for param, position in params
            if param not in keywords.get(called, ())
            and (position is None or positions.get(called, 0) <= position)}


def test_knob_scan_sees_defaults_by_keyword_and_position():
    found = unpassed_defaults()
    assert "scheduler.schedule.corpus_size" in found
    # sweep_eta passes baseline_list's table by position, procure's by name.
    assert not {"sim.baseline_list.table", "costmodel.procure.table"} & found


def test_every_default_is_passed_or_has_a_reason():
    assert unpassed_defaults() == set(UNPASSED)
    assert all(UNPASSED.values())


def private_imports(path: Path) -> list[str]:
    """The underscore names ``path`` imports from a kgflow module; a
    private module itself (``from . import _fields``) is allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and (node.level or node.module.split(".")[0] == "kgflow"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_import_scan_sees_a_sibling_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from . import _fields\n"
                      "from .scheduler import Ledger, _compile\n"
                      "from kgflow.gfl import _IDENT\n")
    assert private_imports(module) == ["scheduler._compile",
                                       "kgflow.gfl._IDENT"]


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {path.name: names
            for path in sorted((ROOT / "src" / "kgflow").glob("*.py"))
            if (names := private_imports(path))} == {}
