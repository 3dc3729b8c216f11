"""The golden check itself: complete, runnable from the shell, able to fail.
(The per-program cells live with the suites that own the programs; that a
*different* run differs from its entry is pinned by the fault-seed test in
``tests/test_chaos_determinism.py``.)"""

import json

from tests import golden

CHEAP = "sched_mixed_wakes"


def test_every_program_has_exactly_one_entry():
    assert sorted(golden.load()) == sorted(golden.PROGRAMS)


def test_check_passes_on_the_committed_file(capsys):
    assert golden.main(["--check", CHEAP]) == 0
    assert "0 difference(s)" in capsys.readouterr().out


def test_check_names_program_and_component_of_an_edited_digest(tmp_path, monkeypatch, capsys):
    entries = golden.load()
    entries[CHEAP]["trace"] = "0" * 64
    entries[CHEAP]["switches"] += 1
    edited = tmp_path / "fingerprints.json"
    edited.write_text(json.dumps(entries))
    monkeypatch.setattr(golden, "GOLDEN_PATH", str(edited))
    assert golden.main(["--check", CHEAP]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith(f"{CHEAP}: trace: golden '{'0' * 64}', got ") for l in lines)
    assert any(l.startswith(f"{CHEAP}: switches: golden ") for l in lines)
    assert not any(l.startswith(f"{CHEAP}: results") for l in lines)


def test_write_of_one_program_keeps_the_rest(tmp_path, monkeypatch):
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"stale": {}}))
    monkeypatch.setattr(golden, "GOLDEN_PATH", str(path))
    assert golden.main(["--write", CHEAP]) == 0
    assert sorted(json.loads(path.read_text())) == sorted([CHEAP, "stale"])
    assert golden.main(["--check", CHEAP]) == 0


def test_write_prints_what_moved_against_the_file_it_replaces(tmp_path, monkeypatch, capsys):
    entries = golden.load()
    switches = entries[CHEAP]["switches"]
    entries[CHEAP]["switches"] += 1
    entries[CHEAP]["trace"] = "0" * 64
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({CHEAP: entries[CHEAP]}))
    monkeypatch.setattr(golden, "GOLDEN_PATH", str(path))
    assert golden.main(["--write", CHEAP]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{CHEAP}: switches {switches + 1} -> {switches}, trace"
    assert lines[-1] == "1 changed, 0 unchanged"
    assert golden.main(["--write", CHEAP]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{CHEAP}: unchanged"
    assert lines[-1] == "0 changed, 1 unchanged"
