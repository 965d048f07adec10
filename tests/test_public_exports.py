"""Every ``__all__`` entry of every ``repro`` module resolves at runtime.

This is the check ruff's F822 makes statically; it lives in the test
suite too so a stale export fails tier-1 without ruff installed.
``hasattr`` goes through PEP 562 module ``__getattr__`` hooks, so lazy
exports (``repro.robustness``) are resolved, not just listed.  The
facades ``repro`` and ``repro.api`` are among the modules checked.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_walk_reaches_every_package():
    assert {
        "repro.api",
        "repro.devtools.lint",
        "repro.robustness.chaos",
        "repro.serve.router",
    } <= set(MODULES)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert all(isinstance(entry, str) for entry in exported)
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ names unbound {missing}"

