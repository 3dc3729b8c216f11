"""docs/kvservice.md quotes what ``kv_write_heavy`` (seed 7) does.

The "Duplicates meet at the sender" and "Reads aggregate like writes"
paragraphs cite six counts of perfbench's ``kv_write_heavy`` workload at
seed 7: updates issued and folded at the sender, batches shipped, the
hot shard's applied entries, and cache misses and the read messages that
carried them.  This runs that configuration (8 ranks, 8 192 requests a
rank, 10 % reads, offered all at once) and checks each quoted count.
"""

import os
import re

import pytest

import repro.upcxx as upcxx
from repro.apps.kvservice import default_config, kv_rank_body

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _num(n: int) -> str:
    """The docs' digit grouping: ``59 013``."""
    return f"{n:,}".replace(",", " ")


@pytest.fixture(scope="module")
def write_heavy():
    cfg = default_config("tiny")
    cfg.update(read_fraction=0.1, rate=1e9, n_requests=8192)
    res = upcxx.run_spmd(lambda: kv_rank_body(cfg), cfg["ranks"], platform="haswell",
                         ppn=cfg["ppn"], seed=7)
    return {
        "updates": sum(r["updates_sent"] for r in res),
        "folded": sum(r["updates_combined"] for r in res),
        "batches": sum(r["batches_sent"] for r in res),
        "hot_applied": max(r["applied_updates"] for r in res),
        "misses": sum(r["cache_misses"] for r in res),
        "read_messages": sum(r["read_batches"] for r in res),
    }


def _prose() -> str:
    with open(os.path.join(ROOT, "docs", "kvservice.md")) as f:
        return re.sub(r"\s+", " ", f.read())


def test_combining_paragraph_quotes_the_run(write_heavy):
    w = {k: _num(v) for k, v in write_heavy.items()}
    assert (
        f"`kv_write_heavy` (seed 7) {w['folded']} of {w['updates']} updates never leave "
        f"their front end, {w['batches']} batches ship, and the hot shard applies "
        f"{w['hot_applied']} entries" in _prose()
    )


def test_read_batching_paragraph_quotes_the_run(write_heavy):
    w = {k: _num(v) for k, v in write_heavy.items()}
    assert (
        f"on `kv_write_heavy` {w['misses']} misses ship in {w['read_messages']} messages"
        in _prose()
    )
