"""Shared benchmark harness: result persistence and claims.

Each figure benchmark renders its :class:`BenchTable` under ``results/``
(so ``pytest benchmarks/`` leaves a reviewable artifact trail matching
EXPERIMENTS.md) and asserts the paper's qualitative claims through the
helpers here.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.util.records import BenchTable
from repro.util.units import fmt_bytes

#: results directory at the repository root
RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))), "results")


def save_table(
    table: BenchTable,
    name: str,
    x_fmt: Optional[Callable] = None,
    y_fmt: Optional[Callable] = None,
    extra: str = "",
) -> str:
    """Render ``table`` to ``results/<name>.txt`` (human-readable) and
    ``results/<name>.json`` (machine-readable, for external plotting);
    returns the text."""
    import json

    text = table.render(x_fmt=x_fmt or str, y_fmt=y_fmt or (lambda y: f"{y:.4g}"))
    if extra:
        text = text + "\n\n" + extra
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    payload = {
        "title": table.title,
        "x_name": table.x_name,
        "y_name": table.y_name,
        "series": [s.as_dict() for s in table.series],
        "notes": extra,
    }
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return text


def improvement(slow: float, fast: float) -> float:
    """The paper's 'X% improvement' convention: (slow - fast) / slow."""
    return (slow - fast) / slow


def size_fmt(x) -> str:
    return fmt_bytes(int(x))

