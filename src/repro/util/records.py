"""Benchmark result containers and plain-text table rendering.

Every figure-reproduction benchmark produces one or more :class:`BenchSeries`
(one line in the paper's plot) collected into a :class:`BenchTable` (the
whole figure).  The table renders as aligned monospace text so benchmark
output can be pasted directly into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class BenchSeries:
    """One plotted line: a label plus (x, y) points.

    ``x`` is the sweep variable (message size, process count, ...) and ``y``
    the metric (seconds, bytes/s, ...).  Points are kept in insertion order.
    """

    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, x, y) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x):
        """Return the y value recorded for sweep point ``x``."""
        for xi, yi in zip(self.xs, self.ys):
            if xi == x:
                return yi
        raise KeyError(f"series {self.label!r} has no point x={x!r}")

    def as_dict(self) -> dict:
        return {"label": self.label, "x": list(self.xs), "y": list(self.ys)}


@dataclass
class BenchTable:
    """A figure: a title, an x-axis name, and several series over shared xs."""

    title: str
    x_name: str
    y_name: str
    series: list = field(default_factory=list)

    def new_series(self, label: str, **meta) -> BenchSeries:
        s = BenchSeries(label=label, meta=dict(meta))
        self.series.append(s)
        return s

    def get(self, label: str) -> BenchSeries:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labeled {label!r} in table {self.title!r}")

    def render(self, x_fmt: Callable = str, y_fmt: Callable = str) -> str:
        return format_table(self, x_fmt=x_fmt, y_fmt=y_fmt)


def format_table(
    table: BenchTable,
    x_fmt: Callable = str,
    y_fmt: Callable = str,
) -> str:
    """Render a :class:`BenchTable` as aligned monospace text.

    The union of all series' x values forms the rows; series that lack a
    point at some x show ``-``.
    """
    all_xs: list = []
    for s in table.series:
        for x in s.xs:
            if x not in all_xs:
                all_xs.append(x)
    try:
        all_xs.sort()
    except TypeError:
        pass  # heterogeneous x values: keep insertion order

    headers = [table.x_name] + [s.label for s in table.series]
    rows = []
    for x in all_xs:
        row = [x_fmt(x)]
        for s in table.series:
            try:
                row.append(y_fmt(s.y_at(x)))
            except KeyError:
                row.append("-")
        rows.append(row)

    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [
        f"# {table.title}   [y: {table.y_name}]",
        fmt_row(headers),
        fmt_row(["-" * w for w in widths]),
    ]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)
