"""The cost census itself (``tests/cost_census.py``, a CI job): it reports a
field that a golden program reads as moving that program, reports a field
that nothing reads as moving nothing and fails on it, and finds every
field of the cost model tagged and every allowlist entry well formed."""

import os
import shutil

from tests import cost_census

CHEAP = "fig3a_series"  # 2 ranks, 20 blocking rputs


def test_every_field_is_tagged_and_every_allowlist_entry_names_a_constant_and_a_file():
    assert cost_census.failures({}) == []


def test_a_read_field_moves_its_program_and_an_unread_one_fails(tmp_path):
    for sub in ("src", "tests"):
        shutil.copytree(os.path.join(cost_census.ROOT, sub), tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    costs = tmp_path / "src" / "repro" / "upcxx" / "costs.py"
    field = "    dist_object_lookup: float = 0.08 * US\n"
    scratch = "    #: [repr] read by nothing\n    scratch: float = 0.5 * US\n"
    costs.write_text(costs.read_text().replace(field, field + scratch))

    rows = cost_census.census(str(tmp_path), ["UpcxxCosts.rma_inject", "UpcxxCosts.scratch"],
                              [CHEAP])
    assert rows == {"UpcxxCosts.rma_inject": ("repr", [CHEAP], None),
                    "UpcxxCosts.scratch": ("repr", [], None)}
    assert cost_census.failures(rows, root=str(tmp_path), allowlist={}) == [
        "UpcxxCosts.scratch: moves no golden program and has no allowlist entry"]
