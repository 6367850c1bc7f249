"""Fixtures shared by the test modules."""

import pytest


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
