"""EXPERIMENTS.md quotes the Fig. 8 speedups the committed results print.

``results/fig8_eadd_{haswell,knl}.txt`` end their table with one line,
``UPC++ speedup at 128 procs: A x vs Alltoallv, P x vs P2P``; the Fig. 8
section of EXPERIMENTS.md quotes those four ratios beside the paper's
own (1.63x, 3.11x at 2 048 processes) and no others.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER = {"1.63", "3.11"}
SPEEDUP = re.compile(r"UPC\+\+ speedup at 128 procs: (\d+\.\d+)x vs Alltoallv, (\d+\.\d+)x vs P2P")


def _read(*parts) -> str:
    with open(os.path.join(ROOT, *parts)) as f:
        return f.read()


def _measured(platform: str) -> tuple:
    m = SPEEDUP.search(_read("results", f"fig8_eadd_{platform}.txt"))
    assert m, f"results/fig8_eadd_{platform}.txt prints no speedup line"
    return m.groups()


def _fig8_section() -> str:
    text = _read("EXPERIMENTS.md")
    start = text.index("## Fig. 8")
    return text[start:text.index("\n## ", start + 1)]


def test_fig8_prose_quotes_the_committed_speedups():
    (a, p), (a_knl, p_knl) = _measured("haswell"), _measured("knl")
    section = _fig8_section()
    assert f"| {a}× at 128 ({a_knl}× KNL) |" in section
    assert f"| {p}× at 128 ({p_knl}× KNL)," in section
    assert re.search(rf"Alltoallv {re.escape(a)}×, P2P\s+{re.escape(p)}×", section)
    quoted = set(re.findall(r"(\d+\.\d+)×", section))
    assert quoted <= PAPER | {a, p, a_knl, p_knl}, sorted(quoted - PAPER - {a, p, a_knl, p_knl})
