"""Dead-definition guard for the package sources.

Every function, method and class defined under `src/regolith` must be
named somewhere in `src/regolith` besides its own definition and the
re-exports of a package `__init__`: a caller, an attribute access, a
string looked up by name, or a node name in a `.bt` tree file.  A name
that only tests use is dead code.  The allowlist below keeps the few that
stay for a stated reason.

Uses are matched by bare name, not by owner: a method nothing calls passes
when another definition shares its name and is used (a caller-less
`to_dict` on one class hides behind `RunReport.to_dict`).

The config dataclasses (the soil, the machine specs, and the planner's
settings, poses and rigs) get a second guard: each of their fields must
be read as an attribute outside a `__post_init__`, since a field that
only its own validation reads changes nothing a run does.
"""

import ast
import dataclasses
import re
import time
from collections import Counter
from pathlib import Path

from regolith.config import Leveling, PlannerParams, Poses, Rig
from regolith.machines import ArmGeometry, MachineSpec
from regolith.terrain import SoilParams

SRC = Path(__file__).resolve().parents[1] / "src" / "regolith"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: A string that may name a definition: an identifier or a dotted path.
#: Prose (error messages, help text) does not count as a use.
_LOOKUP = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

#: Name -> why it stays although nothing in the package names it.
ALLOWLIST = {
    "set_available": "fault-injection hook that run(observer=...) drives",
    "max_region_slope": "the repose-invariant oracle of the acceptance "
                        "criteria",
    "LoopbackBridge": "the benchmark's bus.pump span resolves "
                      "LoopbackBridge.pump; both go with that span",
    "pump": "LoopbackBridge.pump, kept for the benchmark's bus.pump span",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ids.add(id(first.value))
    return ids


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string constants listed in a module's `__all__`."""
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            ids.update(id(n) for n in ast.walk(node.value))
    return ids


def scan(root: Path = SRC) -> tuple[dict, Counter]:
    """(name -> [file:line of each definition], name -> uses) over the
    package sources."""
    defs: dict[str, list[str]] = {}
    uses: Counter = Counter()
    for path in sorted(root.rglob("*.bt")):
        uses.update(_WORD.findall(path.read_text()))
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        is_init = path.name == "__init__.py"
        skip = _docstrings(tree) | (_all_strings(tree) if is_init else set())
        where = path.relative_to(root.parent)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defs.setdefault(node.name, []).append(
                        f"{where}:{node.lineno}")
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reexport = is_init and isinstance(node, ast.ImportFrom) \
                    and node.level > 0
                if not reexport:
                    uses.update(a.name.split(".")[-1] for a in node.names)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and id(node) not in skip \
                    and _LOOKUP.fullmatch(node.value):
                uses.update(node.value.split("."))
    return defs, uses


def test_every_definition_has_a_reader():
    start = time.perf_counter()
    defs, uses = scan()
    elapsed = time.perf_counter() - start
    dead = sorted(f"{name} ({', '.join(sites)})"
                  for name, sites in defs.items()
                  if not uses[name] and name not in ALLOWLIST)
    assert not dead, "defined but never named in src/regolith: " \
        + "; ".join(dead)
    assert elapsed < 1.0, f"scan took {elapsed:.2f} s"


def test_allowlist_is_current():
    defs, uses = scan()
    stale = sorted(name for name in ALLOWLIST
                   if name not in defs or uses[name])
    assert not stale, f"allowlist entries defined nowhere or now read: {stale}"


def test_guard_flags_a_caller_less_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import used, unused\n__all__ = ['used', 'unused']\n")
    (pkg / "mod.py").write_text(
        "def used():\n    '''unused is named here only in a docstring'''\n"
        "    return 1\n\n"
        "def unused():\n    return used()  # unused\n\n"
        "def prose():\n    raise ValueError('prose and unused')\n\n"
        "class Node:\n    pass\n\n"
        "LOOKUP = getattr(Node, 'prose')\n")
    (pkg / "tree.bt").write_text("Node\n")
    defs, uses = scan(pkg)
    assert sorted(name for name in defs if not uses[name]) == ["unused"]


def attribute_reads(root: Path = SRC) -> Counter:
    """attribute name -> loads outside any `__post_init__`, over the
    package sources.  Matched by bare name, as `scan` matches uses: a field
    that shares its name with another class's attribute hides behind it,
    as an unread `MachineSpec.width` did behind `SweptCut.width`."""
    reads: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        validation = {id(node) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef)
                      and fn.name == "__post_init__"
                      for node in ast.walk(fn)}
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in validation)
    return reads


def test_every_config_field_is_read():
    reads = attribute_reads()
    unread = sorted(f"{cls.__name__}.{f.name}"
                    for cls in (SoilParams, MachineSpec, ArmGeometry,
                                PlannerParams, Leveling, Poses, Rig)
                    for f in dataclasses.fields(cls) if not reads[f.name])
    assert not unread, "config fields nothing reads: " + ", ".join(unread)


def test_field_guard_skips_validation_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Soil:\n"
        "    def __post_init__(self):\n"
        "        if self.only_validated <= 0:\n"
        "            raise ValueError\n\n"
        "def use(soil):\n"
        "    soil.written = soil.read\n")
    reads = attribute_reads(tmp_path)
    assert set(reads) == {"read"}
