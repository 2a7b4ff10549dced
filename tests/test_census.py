"""The committed census (``tools/census.py``): every public definition
that only tests reach, and every defaulted value no program sets, is on
its keep-list with a reason, or is gone."""

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
    assert result.stdout.count("(0 not in KEEP)") == 2, result.stdout


def test_every_keep_entry_has_a_reason():
    for name, reason in _load_census().KEEP.items():
        assert isinstance(reason, str) and reason.strip(), name


def test_census_rules_on_a_small_tree(tmp_path, monkeypatch, capsys):
    """Keywords, positions, ``**``, a function handed to a helper and
    ``cls(...)`` in a class body all set a value; a class handed to a
    helper is not instantiated; the definition's own body and
    ``__all__`` are not references; and a value no program sets fails
    the census until ``KEEP`` gives it a reason."""
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

        def wrap(owner, attribute, name=None):
            return owner

        class Thing:
            def __init__(self, size=1, depth=0):
                self.size = size

            @classmethod
            def sized(cls, size):
                return cls(size)

        def main(options):
            run(0, b=1)
            helper(run, 5, 6, 7)
            spread(**options)
            wrap(Thing, "size", "thing.size")
            return Thing.sized(2)
    '''))
    census = _load_census()
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "LIBRARY", tmp_path / "src")
    definitions, values = census.scan_library()
    calls = census.scan_calls()
    unset = [value.label for value in values if not census._is_set(value, calls)]
    assert unset == ["pkg.mod.run(d)", "pkg.mod.orphan(depth)", "pkg.mod.Thing(depth)"]
    references = census.scan_references()
    test_only = [
        definition.qualname
        for definition in definitions
        if not census._referenced(definition, references)
    ]
    assert test_only == ["pkg.mod.orphan", "pkg.mod.main"]

    monkeypatch.setattr(census, "KEEP", {name: "kept" for name in test_only})
    assert census.main() == 1
    assert "pkg.mod.Thing(depth): NOT IN KEEP" in capsys.readouterr().out
    monkeypatch.setattr(census, "KEEP", {name: "kept" for name in test_only + unset})
    assert census.main() == 0
