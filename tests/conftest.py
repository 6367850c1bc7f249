"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a replay test evaluates its fixture's cases with the recorder's own code
sys.path.insert(0, str(ROOT / "tests" / "fixtures"))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) patches module.name to record each call's
    arguments in the list it returns, and still runs the real function."""

    def patch(module, name: str) -> list:
        calls, real = [], getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return patch


@pytest.fixture(scope="session")
def child():
    """child(*args, timeout=60, **env) runs `python *args` in a fresh interpreter on
    the package source, from the checkout root, with env added to the environment;
    it returns the completed process, its output as text."""

    def run(*args, timeout: float = 60, **env) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               **{name: str(value) for name, value in env.items()}}
        return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)

    return run
