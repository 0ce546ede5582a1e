"""The dead-code census (``tools/census.py``) and the guard it backs.

Every top-level def / class and class method under ``src/repro`` must be
reached from a run, an example or a benchmark, or be named on the census's
allowlist with its reason; every file-loaded spec field must be read, or be
named on the unread-field list.  The rule tests run the census on a small
tree built here, one rule per definition.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture(scope="module")
def repo_census():
    return census.take_census()


def test_every_definition_is_reached_or_allowlisted(repo_census):
    assert repo_census.findings() == []


def test_every_allowance_names_what_is_there_with_a_reason(repo_census):
    assert repo_census.stale_allowances() == []
    for reason in (*census.ALLOWLIST.values(), *census.UNREAD_FIELDS.values()):
        assert reason.strip() and "\n" not in reason


def test_the_cli_exits_zero_on_the_tree(capsys):
    assert census.main() == 0
    out = capsys.readouterr().out
    assert "unreached: 0 definitions" in out
    assert "repro.api.runners:AnalyticRunner.run  (" in out  # live ones are listed too


FILES = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": """
        from repro._lazy import lazy_exports
        from repro.pkg.mod import reexported

        __all__ = ["reexported"]
        __getattr__, __dir__, _ = lazy_exports(__name__, {"repro.pkg.mod": ("reexported",)})
    """,
    "src/repro/pkg/mod.py": """
        from dataclasses import dataclass
        from functools import lru_cache

        REGISTRY = {}


        def register(fn):
            REGISTRY[fn.__name__] = fn
            return fn


        class Validated:
            pass


        @dataclass
        class Knobs(Validated):
            used_knob: float = 1.0
            unread_knob: float = 2.0


        def used(knobs):
            return helper() + knobs.used_knob


        def helper():
            return 1


        def dead():
            return dead_chain()


        def dead_chain():
            return 2


        def tested():
            return 3 + tested_helper()


        def reexported():
            return 4


        def aliased():
            return 5


        @register
        def plugin():
            return 6


        class Live:
            def __init__(self):
                self.x = 0

            def called(self):
                if hasattr(self, "by_hasattr"):
                    return getattr(self, "by_string")()
                return 0

            def by_hasattr(self):
                return 10

            def by_string(self):
                return 7

            def unused_method(self):
                return 8


        class Traced:
            def method(self):
                return 9


        def tested_helper():
            return 11


        def entry():
            return 12


        def module_default():
            return 13


        @lru_cache
        def cached_unused():
            return 14


        class Base:
            def probe(self):
                return 15


        class Impl(Base):
            def probe(self):
                return 16

            @staticmethod
            def static_unused():
                return 17


        DEFAULT = module_default()
    """,
    "examples/demo.py": """
        from repro.pkg.mod import Knobs, Live, aliased as renamed, used

        used(Knobs())
        renamed()
        Live().called()
        for prober in (Impl(),):
            prober.probe()
    """,
    "benchmarks/spans.py": """
        SPANS = ["repro.pkg.mod:Traced.method"]
    """,
    "pyproject.toml": """
        [project.scripts]
        demo = "repro.pkg.mod:entry"
    """,
    "tests/test_mod.py": """
        from repro.pkg.mod import tested


        def test_tested():
            assert tested() == 14
    """,
}


@pytest.fixture(scope="module")
def tiny_census(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    for name, text in FILES.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return census.take_census(root)


@pytest.mark.parametrize(
    "name, band",
    [
        ("used", "live"),  # an example calls it
        ("helper", "live"),  # a reached body calls it
        ("aliased", "live"),  # through ``import ... as``
        ("plugin", "live"),  # a registering decorator
        ("Live.__init__", "live"),  # a dunder goes with its class
        ("Live.by_string", "live"),  # getattr's string
        ("Traced", "live"),  # a "module:Qual.name" span string
        ("Traced.method", "live"),
        ("Live.by_hasattr", "live"),  # hasattr's string
        ("entry", "live"),  # a [project.scripts] entry point
        ("module_default", "live"),  # a module-level statement calls it
        ("register", "live"),  # used as a decorator
        ("Validated", "live"),  # a base of a reached class
        ("Base", "live"),
        ("Impl.probe", "live"),  # by name, as a call on the base reaches it
        ("Base.probe", "live"),
        ("tested_helper", "test-only"),  # named only by a test-only body
        ("cached_unused", "unreached"),  # a plain-Python decorator registers nothing
        ("Impl.static_unused", "unreached"),
        ("tested", "test-only"),
        ("dead", "unreached"),
        ("dead_chain", "unreached"),  # named only by an unreached body
        ("reexported", "unreached"),  # an import and a lazy_exports table
        ("Live.unused_method", "unreached"),
    ],
)
def test_each_rule_puts_its_definition_in_its_band(tiny_census, name, band):
    assert tiny_census.band(f"repro.pkg.mod:{name}") == band


def test_an_allowance_for_a_live_or_missing_definition_is_stale(tiny_census, monkeypatch):
    monkeypatch.setattr(census, "ALLOWLIST", {})
    monkeypatch.setitem(census.ALLOWLIST, "repro.pkg.mod:used", "live anyway")
    monkeypatch.setitem(census.ALLOWLIST, "repro.pkg.mod:gone", "names nothing")
    monkeypatch.setitem(census.ALLOWLIST, "repro.pkg.mod:dead", "still needed")
    monkeypatch.setattr(census, "UNREAD_FIELDS", {})
    assert tiny_census.stale_allowances() == ["repro.pkg.mod:gone", "repro.pkg.mod:used"]


def test_an_unread_spec_field_is_reported(tiny_census):
    assert tiny_census.unread_fields == {"Knobs.unread_knob": "repro.pkg.mod:Knobs"}
