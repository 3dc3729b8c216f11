"""Cost census: every constant of the cost model moves a golden program, or says why not.

The model's costs are the numbers in four frozen dataclasses, ``UpcxxCosts``
(``upcxx/costs.py``), ``MpiCosts`` (``mpisim/profile.py``), ``CpuModel``
(``gasnet/cpumodel.py``, with the keyword values of its ``HASWELL`` and
``KNL`` instances) and ``NetworkModel`` (``gasnet/network.py``).  The census
doubles one constant at a time in a copy of ``src/`` and ``tests/`` in a
temporary directory, runs ``tests.golden --check`` on the copy and records
the programs that moved::

    PYTHONPATH=src python -m tests.cost_census [constant ...]

It prints one row per constant (its provenance tag, the number of programs
it moves and their names) and exits 1 when a constant moves no program and
has no ``ALLOWLIST`` entry, when an allowlisted constant moves one, or when
a field's ``#:`` comment does not carry exactly one provenance tag.

The copy is needed: ``costs=DEFAULT_COSTS`` defaults are bound when each
function is defined and ``Runtime`` pre-scales its ``_c_*`` charges at
construction, so patching the instances in-process reaches no run.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the files holding the cost model, relative to the repo root
COST_FILES = (
    "src/repro/upcxx/costs.py",
    "src/repro/mpisim/profile.py",
    "src/repro/gasnet/cpumodel.py",
    "src/repro/gasnet/network.py",
)
#: the platform instances whose keyword values are constants too
PLATFORMS = ("HASWELL", "KNL")

#: provenance tags, one per field's ``#:`` comment, as ``[tag]``
TAGS = {
    "paper": "the paper prints it",
    "hw": "a Cori hardware or system figure",
    "repr": "representative, no source",
    "fit": "shaped to match a figure",
}
_TAG = re.compile(r"\[(\w+)\]")

#: constants that move no golden program: the committed results/ file that
#: pins each instead, and why golden scale cannot reach it
ALLOWLIST = {
    "CpuModel.ppn_dht": (
        "results/fig4a_dht_haswell.json",
        "node width: every golden job that names no ppn fits in one 32-wide node; "
        "Fig. 4a runs 64 and 128 ranks at the default width"),
    "CpuModel.ppn_eadd": (
        "results/fig8_eadd_haswell.json",
        "node width: golden extend-add runs name their ppn; Fig. 8 (Haswell) runs "
        "64 and 128 processes 32 to a node"),
    "KNL.ppn_dht": (
        "results/fig4b_dht_knl.json",
        "node width: the KNL golden DHT point fits in one 68-wide node; Fig. 4b runs "
        "128 ranks"),
    "KNL.ppn_eadd": (
        "results/fig8_eadd_knl.json",
        "node width: the KNL golden extend-add point fits in one 64-wide node; "
        "Fig. 8 (KNL) runs 128 processes"),
}


class Constant(NamedTuple):
    """One number of the cost model and where its value expression sits."""

    name: str  # "Class.field" or "PLATFORM.keyword"
    tag: Optional[str]
    path: str  # relative to the root
    line: int  # 1-based line of the value expression
    start: int  # its utf-8 byte columns on that line
    end: int


def _comment_tags(lines: List[str], lineno: int) -> List[str]:
    """The ``[tag]`` tokens of line ``lineno``'s ``#:`` comment: the block
    right above it, or the comment that ends the line."""
    _, mark, trailing = lines[lineno - 1].partition("#:")
    tags, i = _TAG.findall(trailing) if mark else [], lineno - 2
    while i >= 0 and lines[i].strip().startswith("#:"):
        tags = _TAG.findall(lines[i]) + tags
        i -= 1
    return tags


def fields(root: str = ROOT):
    """``(Class.field, tags, value node or None, path)`` for every numeric
    field of the cost dataclasses, in source order."""
    for path in COST_FILES:
        with open(os.path.join(root, path)) as f:
            text = f.read()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and isinstance(stmt.annotation, ast.Name)
                        and stmt.annotation.id in ("int", "float")):
                    yield (f"{node.name}.{stmt.target.id}", _comment_tags(lines, stmt.lineno),
                           stmt.value, path)


def _at(name, tag, path, node) -> Constant:
    if node.lineno != node.end_lineno:
        raise ValueError(f"{path}: {name}: the value spans lines")
    return Constant(name, tag, path, node.lineno, node.col_offset, node.end_col_offset)


def constants(root: str = ROOT) -> List[Constant]:
    """Every numeric constant: each field default, then each keyword value
    of the platform instances."""
    out, tag_of = [], {}
    for name, tags, value, path in fields(root):
        tag_of[name] = tags[0] if len(tags) == 1 else None
        if value is not None:
            out.append(_at(name, tag_of[name], path, value))
    for path in COST_FILES:
        with open(os.path.join(root, path)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in PLATFORMS and isinstance(node.value, ast.Call)):
                for kw in node.value.keywords:
                    field = f"{node.value.func.id}.{kw.arg}"
                    if field in tag_of:
                        out.append(_at(f"{node.targets[0].id}.{kw.arg}", tag_of[field], path,
                                       kw.value))
    return out


def perturbed(text: str, c: Constant) -> str:
    """``text`` with ``c``'s value expression ``e`` replaced by ``(e) * 2``."""
    lines = text.split("\n")
    raw = lines[c.line - 1].encode()
    expr = raw[c.start:c.end]
    lines[c.line - 1] = (raw[:c.start] + b"(" + expr + b") * 2" + raw[c.end:]).decode()
    return "\n".join(lines)


def _golden_check(copy: str, programs: Sequence[str]):
    """``(moved program names, error or None)`` of ``tests.golden --check``
    run on the tree at ``copy`` (``-B``: no stale bytecode between edits)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    proc = subprocess.run([sys.executable, "-B", "-m", "tests.golden", "--check", *programs],
                          cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or "difference(s)" not in lines[-1]:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return [], f"golden check exited {proc.returncode}: {tail}"
    moved: Dict[str, None] = {}
    for line in lines[:-1]:
        moved[line.split(": ", 1)[0]] = None  # program names hold no ": "
    return list(moved), None


def census(root: str = ROOT, names: Sequence[str] = (), programs: Sequence[str] = ()) -> Dict:
    """``{constant: (tag, moved programs, error or None)}`` for the
    constants of the tree at ``root`` (all, or ``names``), each doubled
    alone, against its golden programs (all, or ``programs``)."""
    chosen = [c for c in constants(root) if not names or c.name in names]
    missing = set(names) - {c.name for c in chosen}
    if missing:
        raise ValueError(f"no such constant: {sorted(missing)}")
    out = {}
    with tempfile.TemporaryDirectory(prefix="cost-census-") as copy:
        for sub in ("src", "tests"):
            shutil.copytree(os.path.join(root, sub), os.path.join(copy, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        moved, error = _golden_check(copy, programs)
        if moved or error:
            raise RuntimeError(f"the unperturbed tree fails its golden check: {error or moved}")
        for c in chosen:
            target = os.path.join(copy, c.path)
            with open(target) as f:
                text = f.read()
            with open(target, "w") as f:
                f.write(perturbed(text, c))
            out[c.name] = (c.tag,) + _golden_check(copy, programs)
            with open(target, "w") as f:
                f.write(text)
    return out


def failures(rows: Dict, root: str = ROOT, allowlist=ALLOWLIST) -> List[str]:
    """Why the census fails: a line per field without exactly one tag, per
    allowlist entry that names no constant or no results/ file, and per
    row that moves nothing without an allowlist entry, that is allowlisted
    but moves something, or whose run failed."""
    out = [f"{path}: {name}: tags {tags}, want exactly one of {sorted(TAGS)}"
           for name, tags, _, path in fields(root) if len(tags) != 1 or tags[0] not in TAGS]
    names = {c.name for c in constants(root)}
    for name, (path, _) in allowlist.items():
        if name not in names:
            out.append(f"{name}: allowlisted, but there is no such constant")
        if not path.startswith("results/") or not os.path.exists(os.path.join(root, path)):
            out.append(f"{name}: its allowlist entry names {path}, no results/ file")
    for name, (_, moved, error) in rows.items():
        if error:
            out.append(f"{name}: {error}")
        elif not moved and name not in allowlist:
            out.append(f"{name}: moves no golden program and has no allowlist entry")
        elif moved and name in allowlist:
            out.append(f"{name}: allowlisted but moves {len(moved)} program(s); drop its entry")
    return out


def _folded(names: Sequence[str]) -> str:
    """``names`` with each family of bracketed variants folded into one
    entry: ``chaos_mixed[…] ×10``."""
    families: Dict[str, int] = {}
    for name in names:
        base, bracket, _ = name.partition("[")
        key = base + "[…]" if bracket else name
        families[key] = families.get(key, 0) + 1
    return ", ".join(k if n == 1 else f"{k} ×{n}" for k, n in families.items())


def table(rows: Dict, programs: Sequence[str]) -> List[str]:
    """The census table: constant, tag, count of ``programs`` it moves and
    which (or which not, when it moves most of them)."""
    width = max(len(n) for n in rows)
    out = [f"{'constant':<{width}}  tag    moves  programs"]
    for name, (tag, moved, error) in rows.items():
        if error or not moved:
            what = error or "-"
        elif len(moved) == len(programs):
            what = "every program"
        elif 2 * len(moved) > len(programs):
            what = "all but " + _folded([p for p in programs if p not in moved])
        else:
            what = _folded(moved)
        out.append(f"{name:<{width}}  {tag or '?':<5}  {len(moved):>5}  {what}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("constants", nargs="*", metavar="constant",
                    help="restrict to these constants, e.g. MpiCosts.put_sw (default: all)")
    args = ap.parse_args(argv)
    from tests.golden import PROGRAMS

    t0 = time.perf_counter()
    rows = census(names=args.constants)
    for line in table(rows, list(PROGRAMS)):
        print(line)
    print("\nallowlist (constant: results file that pins it, reason):")
    for name, (path, reason) in ALLOWLIST.items():
        print(f"  {name}: {path}: {reason}")
    bad = failures(rows)
    for line in bad:
        print(f"FAIL {line}")
    print(f"{len(rows)} constant(s), {sum(bool(r[1]) for r in rows.values())} move a program, "
          f"{len(bad)} failure(s) in {time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
