"""Source hygiene, by stdlib ``ast`` walks (no linter needed).

- No module under ``src/repro`` imports a name it never uses.  A name
  counts as used when it appears anywhere else in its module as an
  identifier, inside an annotation (quoted annotations are parsed too) or
  in ``__all__``.  ``__future__`` imports and package ``__init__`` modules
  (re-export hubs) are exempt.
- No module outside ``src/repro/sim`` reads or writes an underscore
  attribute of the scheduler (a name ``sched`` or an attribute
  ``.sched``): the layers above use its public interface only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """``(name, lineno)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield (a.asname or a.name), node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    quoted = ast.parse(n.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.relative_to(SRC.parent)} imports unused: {', '.join(unused)}"


def test_the_walk_sees_annotations_and_flags_a_dead_import():
    tree = ast.parse(
        "from typing import List, Optional, Union\n"
        "from x import Later\n"
        "import os.path\n"
        "def f(a: List[int]) -> 'Later':\n"
        "    return os.path.sep\n"
    )
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["Optional", "Union"]


OUTSIDE_SIM = sorted(p for p in SRC.rglob("*.py") if p.parent != SRC / "sim")


def _sched_privates(tree: ast.Module):
    """``(attribute, lineno)`` for every ``sched._x`` / ``<expr>.sched._x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            v = node.value
            if (isinstance(v, ast.Name) and v.id == "sched") or (
                isinstance(v, ast.Attribute) and v.attr == "sched"
            ):
                yield node.attr, node.lineno


@pytest.mark.parametrize("path", OUTSIDE_SIM, ids=lambda p: str(p.relative_to(SRC)))
def test_no_scheduler_private_is_touched_outside_sim(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    touched = [f"{name} (line {line})" for name, line in _sched_privates(tree)]
    assert not touched, f"{path.relative_to(SRC.parent)} touches Scheduler privates: {', '.join(touched)}"


def test_the_scheduler_walk_flags_private_attributes_of_sched_only():
    tree = ast.parse(
        "sched._failure = None\n"
        "x = self.sched._ranks\n"
        "sched.wake(0, 1.0)\n"
        "self._sched = rt.sched\n"
        "sched2._ready\n"
    )
    assert list(_sched_privates(tree)) == [("_failure", 1), ("_ranks", 2)]
