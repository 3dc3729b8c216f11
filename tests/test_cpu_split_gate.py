"""``--fail-if-sys-exceeds-user`` (tests/conftest.py) seen failing a run."""

from types import SimpleNamespace

from tests import conftest


def _exit_status(monkeypatch, split, option_on, status):
    """The session's exit status after ``pytest_sessionfinish`` saw ``split``."""
    monkeypatch.setattr(conftest, "_cpu_split", lambda: split)
    config = SimpleNamespace(getoption=lambda name: option_on and name == "--fail-if-sys-exceeds-user")
    session = SimpleNamespace(config=config, exitstatus=status)
    conftest.pytest_sessionfinish(session, status)
    return session.exitstatus


def test_sys_above_user_fails_a_green_run_only_when_asked_to(monkeypatch):
    kernel_bound, python_bound = (1.0, 2.0), (2.0, 1.0)  # (user, sys) seconds
    assert _exit_status(monkeypatch, kernel_bound, option_on=True, status=0) == 1
    assert _exit_status(monkeypatch, kernel_bound, option_on=False, status=0) == 0
    assert _exit_status(monkeypatch, python_bound, option_on=True, status=0) == 0
    # a run that already failed keeps its own status
    assert _exit_status(monkeypatch, kernel_bound, option_on=True, status=2) == 2
