"""Every name a module exports through __all__ exists, and is listed once."""

import importlib
import pkgutil

import pytest

import gradedtwist

MODULES = ["gradedtwist"] + [
    f"gradedtwist.{info.name}" for info in pkgutil.iter_modules(gradedtwist.__path__)
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_exporting_modules_are_found():
    expected = {"graded", "twist", "enriched", "equivalence", "fixtures"}
    assert {f"gradedtwist.{name}" for name in expected} | {"gradedtwist"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    assert len(set(exported)) == len(exported)
