"""Dead-code census of ``src/repro``: what a run, an example or a benchmark reaches.

Lists every top-level ``def`` / ``class`` and every method of a top-level
class under ``src/repro`` with the files that name it in ``src/``,
``examples/``, ``benchmarks/`` and ``tests/``, and sorts each into a band:

- **live**: reached from a root.  The roots are every line of ``examples/``
  and ``benchmarks/`` (their ``test_*.py`` files aside), the module-level
  statements of ``src/repro`` and the ``[project.scripts]`` entry points.
  A definition a reached body names is reached in turn (a fixpoint).
- **kept**: named by :data:`ALLOWLIST`, or reached only from a definition
  it names (a test oracle's own helpers).
- **test-only**: reached once the tests are roots too, and not before.
- **unreached**: reached from nothing, tests included.

Matching is by name, so it errs towards "reached": ``x.probe`` reaches every
method called ``probe``, which is also how a Protocol method or an override
of a base method is reached through a call on the base.  What counts as a
reference: a name or attribute load (through ``from ... import ... as``
aliases), a decorator other than the plain-Python ones in
:data:`TRANSPARENT_DECORATORS` (a registration: the decorated definition is
reached), the string argument of ``getattr`` / ``hasattr``, and a
``"module:Qual.name"`` string such as the observatory's span table.  Imports
and ``__all__`` / ``lazy_exports`` tables are not references: a name only a
package ``__init__`` re-exports is not reached by that.  A method is reached
only with its class, and a dunder method whenever its class is.
Module-level constants are not definitions here: the census does not
report an unread one.

The census also lists the *unread fields* of the file-loaded spec and config
dataclasses (subclasses of ``Validated``): fields that no live code reads as
an attribute.  Such a field is validated and echoed in every artifact but
changes nothing.

A test-only or unreached definition, or an unread field, fails
``tests/unit/test_census.py`` unless :data:`ALLOWLIST` /
:data:`UNREAD_FIELDS` names it with a one-line reason; so does an
allowance that has nothing left to exempt.

Usage: ``python tools/census.py`` prints every definition by band with the
number of files that name it per scope, then the unread fields and the
findings; it exits 1 when there is a finding.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPES = ("src", "examples", "benchmarks", "tests")

#: Decorators that wrap or declare a definition without registering it.
TRANSPARENT_DECORATORS = frozenset(
    {
        "abstractmethod",
        "cache",
        "cached_property",
        "classmethod",
        "contextmanager",
        "dataclass",
        "lru_cache",
        "property",
        "runtime_checkable",
        "setter",
        "staticmethod",
        "total_ordering",
        "wraps",
    }
)

#: Calls whose string arguments name attributes.
_ATTRIBUTE_STRING_CALLS = frozenset({"getattr", "hasattr"})

_SPAN = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_][\w.]*$")

#: Definitions kept outside the live band, each with the reason it stays.
ALLOWLIST: dict[str, str] = {
    "repro.core.ilp:candidate_grid": "the observatory's self-test traces it as an inner span",
    "repro.experiments.scenarios:run_scenario": "documented twin of `repro run <scenario>`",
}

_ARTIFACTS = "; removing it changes every artifact's spec and old-artifact loading (ROADMAP 8)"

#: Unread spec / config fields (``Class.field``), each with the reason it stays.
UNREAD_FIELDS: dict[str, str] = {
    "DynamicsConfig.drain_recalibration_interval_s": "§4.7 is not modelled" + _ARTIFACTS,
    "DynamicsConfig.max_refresh_fraction": "§4.5's refresh budget is not enforced" + _ARTIFACTS,
    "ProbeConfig.timeout_s": "no probe times out" + _ARTIFACTS,
    "SchedulerConfig.overutilized_latency_multiplier": "§4.6 class (a) is empty" + _ARTIFACTS,
}


@dataclass
class Definition:
    """One top-level def / class, or one method of a top-level class."""

    key: str  # "module:Qual.name"
    name: str
    first_line: int
    last_line: int
    owner: str | None = None  # the class's key, for a method
    registered: bool = False  # carries a registering decorator
    #: scope -> the files that name it (by name, whatever they mean by it).
    references: dict[str, set[str]] = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


@dataclass
class Census:
    definitions: dict[str, Definition]
    live: set[str]
    kept: set[str]
    test_only: set[str]
    unread_fields: dict[str, str]  # "Class.field" -> "module:Class"

    @property
    def unreached(self) -> set[str]:
        return set(self.definitions) - self.live - self.kept - self.test_only

    def band(self, key: str) -> str:
        for band in ("live", "kept", "test_only"):
            if key in getattr(self, band):
                return band.replace("_", "-")
        return "unreached"

    def findings(self) -> list[str]:
        """Every test-only or unreached definition (an allowlisted one is
        kept) and every unread field that :data:`UNREAD_FIELDS` does not name."""
        found = [f"{self.band(key)}: {key}" for key in sorted(self.test_only | self.unreached)]
        found += [
            f"unread field: {name}"
            for name in sorted(self.unread_fields)
            if name not in UNREAD_FIELDS
        ]
        return found

    def stale_allowances(self) -> list[str]:
        """Allowlist entries that name no definition or a live one, and
        unread-field entries that name a field that is read."""
        stale = [
            key for key in sorted(ALLOWLIST) if key not in self.definitions or key in self.live
        ]
        stale += [name for name in sorted(UNREAD_FIELDS) if name not in self.unread_fields]
        return stale


def _name_of(node: ast.expr) -> str:
    """``f`` for ``f``, ``a.f``, ``f(...)`` and ``a.f(...)(...)``."""
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


class _Names(ast.NodeVisitor):
    """The names and attribute names some subtrees reference."""

    def __init__(self, aliases: dict[str, str], *nodes: ast.AST) -> None:
        self.aliases = aliases
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        for node in nodes:
            self.visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(self.aliases.get(node.id, node.id))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _name_of(node.func) in _ATTRIBUTE_STRING_CALLS:
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    self.attributes.add(arg.value)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _SPAN.match(node.value):
            self.attributes.update(node.value.split(":", 1)[1].split("."))

    def visit_Import(self, node: ast.Import) -> None:
        pass

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        pass

    @property
    def all(self) -> set[str]:
        return self.names | self.attributes


def _aliases(tree: ast.Module) -> dict[str, str]:
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return first, node.end_lineno


def _registered(node: ast.AST) -> bool:
    return any(_name_of(d) not in TRANSPARENT_DECORATORS for d in node.decorator_list)


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _fields(node: ast.ClassDef) -> list[str]:
    """The public, per-instance annotated fields of a class body."""
    return [
        n.target.id
        for n in node.body
        if isinstance(n, ast.AnnAssign)
        and isinstance(n.target, ast.Name)
        and not n.target.id.startswith("_")
        and "ClassVar" not in ast.unparse(n.annotation)
    ]


def take_census(root: Path = ROOT) -> Census:
    """Read the tree under ``root`` once and sort every definition into its band."""
    definitions: dict[str, Definition] = {}
    bodies: dict[str, _Names] = {}  # what each definition's own body names
    roots: dict[str, set[str]] = {scope: set() for scope in SCOPES}
    root_attributes: set[str] = set()  # attributes the shipped roots read
    named_in: dict[str, dict[str, set[str]]] = {}
    bases: dict[str, list[str]] = {}
    fields: dict[str, list[str]] = {}

    for top in SCOPES:
        for path in sorted((root / top).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relative = path.relative_to(root)
            test_file = path.name.startswith("test_") or path.name == "conftest.py"
            scope = "tests" if test_file else top
            tree = ast.parse(path.read_text(), filename=str(relative))
            aliases = _aliases(tree)
            found = _Names(aliases, tree)
            for name in found.all:
                named_in.setdefault(name, {}).setdefault(scope, set()).add(str(relative))
            if scope != "src":
                roots[scope] |= found.all
                if scope != "tests":
                    root_attributes |= found.attributes
                continue
            parts = relative.relative_to("src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            module_level: list[ast.AST] = []
            for node in tree.body:
                if not isinstance(node, _DEFS):
                    module_level.append(node)
                    continue
                key = f"{module}:{node.name}"
                definitions[key] = Definition(
                    key, node.name, *_span(node), registered=_registered(node)
                )
                module_level += node.decorator_list
                if isinstance(node, _FUNCS):
                    bodies[key] = _Names(aliases, node)
                    continue
                bodies[key] = _Names(
                    aliases,
                    *(n for n in node.body if not isinstance(n, _FUNCS)),
                    *node.bases,
                    *node.keywords,
                    *node.decorator_list,
                )
                bases[key] = [_name_of(base) for base in node.bases]
                fields[key] = _fields(node)
                for method in node.body:
                    if isinstance(method, _FUNCS):
                        method_key = f"{key}.{method.name}"
                        definitions[method_key] = Definition(
                            method_key, method.name, *_span(method), owner=key
                        )
                        bodies[method_key] = _Names(aliases, method)
            found = _Names(aliases, *module_level)
            roots["src"] |= found.all
            root_attributes |= found.attributes

    pyproject = root / "pyproject.toml"
    if pyproject.exists():
        scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
        for target in scripts.values():
            roots["src"] |= set(target.split(":", 1)[1].split("."))

    def reach(names: set[str], seeds: set[str] = frozenset()) -> set[str]:
        reached = {key for key in seeds if key in definitions}
        names = names.union(*(bodies[key].all for key in reached))
        changed = True
        while changed:
            changed = False
            for key, definition in definitions.items():
                if key in reached:
                    continue
                if definition.owner is None:
                    hit = definition.registered or definition.name in names
                else:
                    hit = definition.owner in reached and (
                        definition.dunder or definition.name in names
                    )
                if hit:
                    reached.add(key)
                    names |= bodies[key].all
                    changed = True
        return reached

    shipped = roots["src"] | roots["examples"] | roots["benchmarks"]
    live = reach(shipped)
    kept = reach(shipped, set(ALLOWLIST)) - live
    test_only = reach(shipped | roots["tests"]) - live - kept

    read = root_attributes.union(*(bodies[key].attributes for key in live))
    by_name = {key.rsplit(":", 1)[1]: key for key in bases}

    def validated(key: str, seen: frozenset[str] = frozenset()) -> bool:
        return any(
            base == "Validated"
            or (base in by_name and base not in seen and validated(by_name[base], seen | {base}))
            for base in bases[key]
        )

    unread = {
        f"{key.rsplit(':', 1)[1]}.{name}": key
        for key in bases
        if validated(key)
        for name in fields[key]
        if name not in read
    }
    for definition in definitions.values():
        definition.references = named_in.get(definition.name, {})
    return Census(definitions, live, kept, test_only, unread)


def _describe(definition: Definition) -> str:
    counts = " ".join(
        f"{scope}={len(definition.references.get(scope, ()))}" for scope in SCOPES
    )
    return f"{definition.key}  ({definition.lines} lines)  {counts}"


def main() -> int:
    census = take_census()
    for band in ("live", "kept", "test-only", "unreached"):
        keys = sorted(getattr(census, band.replace("-", "_")))
        total = sum(census.definitions[k].lines for k in keys)
        print(f"{band}: {len(keys)} definitions, {total} lines")
        for key in keys:
            reason = ALLOWLIST.get(key)
            suffix = f"  [kept: {reason}]" if reason else ""
            print(f"  {_describe(census.definitions[key])}{suffix}")
    print(f"unread fields: {len(census.unread_fields)}")
    for name, owner in sorted(census.unread_fields.items()):
        reason = UNREAD_FIELDS.get(name)
        suffix = f"  [kept: {reason}]" if reason else ""
        print(f"  {owner.split(':')[0]}:{name}{suffix}")
    findings = census.findings() + [f"stale allowance: {k}" for k in census.stale_allowances()]
    if findings:
        print(f"\n{len(findings)} finding(s):")
        print("\n".join(f"  {finding}" for finding in findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
