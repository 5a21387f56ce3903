"""Every definition in ghlab has a use inside ghlab, or a reason to exist.

A top-level function or class, a public method, or a name bound by a
top-level assignment counts as used when its name is read as a name, or
appears as an attribute, anywhere in the package.  The
definitions that only tests or the benchmark tracer reach are the
acceptance experiments and traced functions below; anything else nothing
calls is dead API.  The reference computations that tests compare
against live in tests/oracles.py, outside the package; each of them must
be named by a test module or by another of them.  Every name a module
imports at its top level is read in that module.
"""

import ast
from pathlib import Path

import ghlab

PACKAGE = Path(ghlab.__file__).parent
TESTS = Path(__file__).parent

ALLOWED = {
    "ansatz.HolomorphicData.xi_at": "traced by name in perfbench/layers.py (ansatz.xi)",
    "ansatz.HolomorphicData.slice_frame":
        "traced by name in perfbench/layers.py (ansatz.slice_frame)",
    "pathlab.ParamPath.radial_window": "hororegion paths of acceptance criterion 6",
    "pathlab.ParamPath.slice_segment": "horizontal paths of acceptance criterion 7",
    "pathlab.ParamPath.theta_circle": "control loop of acceptance criterion 7",
    "pathlab.log_variation_check": "acceptance criterion 6: the log-variation inequality",
    "pathlab.horizontal_length": "acceptance criterion 7: horizontal lengths",
    "pathlab.hexagon_constants": "acceptance criterion 6: the region constants",
    "verify.beta_zero_search": "acceptance criterion 5 and the beta-zeros benchmark",
}


def _names(tree) -> set:
    """Every name used in a syntax tree, read as a name or as an
    attribute: an assignment's own target does not count."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _surface():
    """(definitions as {qualified name: name}, every name used)."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (t.id for tree in targets for t in ast.walk(tree)
                             if isinstance(t, ast.Name)):
                    defined[f"{path.stem}.{name}"] = name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        used |= _names(tree)
    return defined, used


def test_every_unused_definition_is_allowed():
    defined, used = _surface()
    unused = {q for q, name in defined.items() if name not in used}
    assert sorted(unused - set(ALLOWED)) == []


def test_allow_list_is_current():
    # an entry that is gone, or that the package now uses, is stale
    defined, used = _surface()
    stale = [q for q in ALLOWED if q not in defined or defined[q] in used]
    assert stale == []


def _unused_imports(source: str) -> list:
    """The names the module-level imports of a module bind and that the
    module never reads as a name; ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_import_is_read():
    unused = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_a_leftover_import_is_caught():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert _unused_imports(source) == []
    leftover = source.replace("from .errors import ConfigError,",
                              "from .errors import InvalidMuError, ConfigError,")
    assert leftover != source and _unused_imports(leftover) == ["InvalidMuError"]


def test_every_oracle_is_referenced():
    # a reference left behind when its last test goes is dead
    used = set().union(*(_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in TESTS.glob("test_*.py")))
    body = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")).body
    bound = {node: [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             else [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
             for node in body}
    dead = [name for node, names in bound.items() for name in names
            if name not in used.union(*(_names(other) for other in body if other is not node))]
    assert dead == []
