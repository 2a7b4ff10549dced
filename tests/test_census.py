"""The committed census (``tools/census.py``): every public definition
that only tests reach is on its keep-list with a reason, or is gone."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

CENSUS = Path(__file__).resolve().parent.parent / "tools" / "census.py"


def _load_census():
    spec = importlib.util.spec_from_file_location("tools_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def test_census_has_no_unexplained_test_only_code():
    result = subprocess.run(
        [sys.executable, str(CENSUS)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout
    assert "(0 not in KEEP)" in result.stdout


def test_every_keep_entry_has_a_reason():
    for name, reason in _load_census().KEEP.items():
        assert isinstance(reason, str) and reason.strip(), name


def test_census_rules_on_a_small_tree(tmp_path, monkeypatch):
    """Keywords, positions, ``**`` and a function handed to a helper all
    set a value; the definition's own body and ``__all__`` are not
    references."""
    library = tmp_path / "src" / "pkg"
    library.mkdir(parents=True)
    (library / "mod.py").write_text(textwrap.dedent('''
        __all__ = ["orphan", "run"]

        def run(a=1, b=2, c=3, d=4):
            return a

        def spread(x=1):
            return x

        def orphan(depth=0):
            return orphan if depth else None

        def helper(function, *args, **kwargs):
            return function(*args, **kwargs)

        def main(options):
            run(0, b=1)
            helper(run, 5, 6, 7)
            spread(**options)
    '''))
    census = _load_census()
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "LIBRARY", tmp_path / "src")
    definitions, values = census.scan_library()
    calls = census.scan_calls()
    unset = [value.label for value in values if not census._is_set(value, calls)]
    assert unset == ["pkg.mod.run(d)", "pkg.mod.orphan(depth)"]
    references = census.scan_references()
    test_only = [
        definition.qualname
        for definition in definitions
        if not census._referenced(definition, references)
    ]
    assert test_only == ["pkg.mod.orphan", "pkg.mod.main"]
