"""Syntactic rule implementations for *reprolint* (RPL001, RPL002).

Each rule encodes one repo-specific invariant that generic linters
cannot express because it depends on knowledge of this codebase — the
deterministic packages and the :class:`~repro.core.dataset.FOTDataset`
column surface:

* **RPL001 determinism** — no unseeded randomness or wall-clock reads in
  the data-producing packages.  Seeded ``numpy.random.default_rng`` /
  ``SeedSequence`` flows are the only sanctioned entropy source.
* **RPL002 immutability** — arrays derived from ``ColumnStore`` /
  ``FOTDataset`` columns are frozen; mutating them (in-place methods,
  subscript stores, augmented assignment) is a bug even when numpy would
  raise at runtime, because the raise happens on a data-dependent path.
  Inside ``repro/core`` every locally created array that escapes the
  function (returned or stored on an object) must be frozen with
  ``setflags(write=False)``.

The checks here are single-pass and order-sensitive; the dataflow pass
(:mod:`repro.devtools.dataflow`) adds their interprocedural forms, and
the runtime sanitizer in :mod:`repro.devtools.sanitize` validates the
immutability invariant dynamically.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: rule id -> one-line description (also rendered by ``--list-rules``).
RULES: Dict[str, str] = {
    "RPL000": "meta: malformed or unused reprolint suppression",
    "RPL001": "determinism: no unseeded randomness or wall-clock reads in data code",
    "RPL002": "immutability: never mutate arrays derived from ColumnStore/FOTDataset",
    # Value-flow rules (repro.devtools.dataflow).
    "RPL101": "time units: no cross-unit arithmetic/comparison; convert via core.timeutil",
    "RPL102": "time units: no magic second-count literals folded into arithmetic",
    "RPL104": "shard determinism: sort set/dict/fs-listing iteration before ordered folds",
    # Event-loop rules (repro.devtools.effects).
    "RPL201": "async blocking: no synchronous blocking calls on the event loop",
    "RPL202": "async sharing: no shared mutable state read-then-written across an await",
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One linter finding, anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# canonical knowledge imported from the library itself (no drift possible)
# ---------------------------------------------------------------------------
def _column_properties() -> "frozenset[str]":
    """Names of ``FOTDataset`` properties that expose store columns —
    the taint sources for RPL002."""
    from repro.core.dataset import FOTDataset

    names = set()
    for name, member in vars(FOTDataset).items():
        if isinstance(member, property) and member.fget is not None:
            try:
                source = inspect.getsource(member.fget)
            except (OSError, TypeError):  # pragma: no cover - source always on disk
                continue
            if "_col(" in source or "_derived(" in source:
                names.add(name)
    return frozenset(names)


COLUMN_PROPERTIES = _column_properties()

#: Packages under ``repro`` whose code must be deterministic (RPL001).
DETERMINISTIC_PACKAGES = frozenset(
    {"simulation", "analysis", "stats", "engine", "core", "fms", "fleet", "robustness"}
)

#: The only sanctioned names on ``numpy.random`` (seeded-generator flows).
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: ndarray methods that mutate in place (RPL002).
MUTATOR_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "partition", "itemset", "byteswap"}
)

#: numpy constructors whose results must be frozen before escaping core/.
NP_CONSTRUCTORS = frozenset(
    {
        "empty",
        "zeros",
        "ones",
        "full",
        "arange",
        "asarray",
        "array",
        "fromiter",
        "concatenate",
        "linspace",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
    }
)

# ---------------------------------------------------------------------------
# path / module helpers
# ---------------------------------------------------------------------------
def module_parts(path: Path) -> Tuple[str, ...]:
    """Path components from the package anchor (``repro`` / ``tests`` /
    ``benchmarks``) down to the file."""
    parts = path.parts
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            return parts[parts.index(anchor):]
    return (path.name,)


def module_name(path: Path) -> str:
    """Dotted module name of a source file (``repro.core.io``)."""
    parts = list(module_parts(path))
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------
class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.random_mods: Set[str] = set()
        self.nprandom_mods: Set[str] = set()
        self.np_mods: Set[str] = set()
        self.time_mods: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.uuid_mods: Set[str] = set()
        self.secrets_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.banned_names: Dict[str, str] = {}

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding("RPL001", self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    # imports ----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            mod = alias.name
            if mod == "random":
                self.random_mods.add(bound)
            elif mod in {"numpy", "np"}:
                self.np_mods.add(bound)
            elif mod == "numpy.random":
                if alias.asname:
                    self.nprandom_mods.add(bound)
                else:
                    self.np_mods.add("numpy")
            elif mod == "time":
                self.time_mods.add(bound)
            elif mod == "os":
                self.os_mods.add(bound)
            elif mod == "uuid":
                self.uuid_mods.add(bound)
            elif mod == "secrets":
                self.secrets_mods.add(bound)
                self._flag(node, "import of 'secrets' in deterministic code")
            elif mod == "datetime":
                self.datetime_mods.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random":
                self._flag(
                    node,
                    f"'from random import {alias.name}' — stdlib random is "
                    "unseeded; use a numpy Generator threaded from SeedSequence",
                )
            elif module == "secrets":
                self._flag(node, "import from 'secrets' in deterministic code")
            elif module == "numpy" and alias.name == "random":
                self.nprandom_mods.add(bound)
            elif module == "numpy.random" and alias.name not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{alias.name} import — only seeded "
                    "Generator/SeedSequence flows are allowed",
                )
            elif module == "time" and alias.name in {"time", "time_ns"}:
                self.banned_names[bound] = f"time.{alias.name}"
            elif module == "os" and alias.name == "urandom":
                self.banned_names[bound] = "os.urandom"
            elif module == "uuid" and alias.name in {"uuid1", "uuid4"}:
                self.banned_names[bound] = f"uuid.{alias.name}"
            elif module == "datetime" and alias.name in {"datetime", "date"}:
                self.datetime_classes.add(bound)
        self.generic_visit(node)

    # usage ------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            name = base.id
            if name in self.random_mods:
                self._flag(
                    node,
                    f"random.{node.attr} — stdlib random is unseeded; use a "
                    "numpy Generator threaded from SeedSequence",
                )
            elif name in self.nprandom_mods and node.attr not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{node.attr} — only "
                    "default_rng/Generator/SeedSequence flows are allowed",
                )
            elif name in self.time_mods and node.attr in {"time", "time_ns"}:
                self._flag(node, f"time.{node.attr}() wall-clock read in "
                                 "deterministic code")
            elif name in self.os_mods and node.attr == "urandom":
                self._flag(node, "os.urandom — nondeterministic entropy source")
            elif name in self.uuid_mods and node.attr in {"uuid1", "uuid4"}:
                self._flag(node, f"uuid.{node.attr} — nondeterministic id source")
            elif name in self.secrets_mods:
                self._flag(node, f"secrets.{node.attr} — nondeterministic "
                                 "entropy source")
            elif name in self.datetime_classes and node.attr in {
                "now", "utcnow", "today",
            }:
                self._flag(node, f"datetime.{node.attr}() wall-clock read in "
                                 "deterministic code")
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            root = base.value.id
            if root in self.np_mods and base.attr == "random" \
                    and node.attr not in NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    f"legacy numpy.random.{node.attr} — only "
                    "default_rng/Generator/SeedSequence flows are allowed",
                )
            elif root in self.datetime_mods and base.attr in {"datetime", "date"} \
                    and node.attr in {"now", "utcnow", "today"}:
                self._flag(node, f"datetime.{base.attr}.{node.attr}() wall-clock "
                                 "read in deterministic code")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.banned_names:
            self._flag(node, f"{self.banned_names[node.id]} — nondeterministic "
                             "in data code")
        self.generic_visit(node)


def check_determinism(path: str, parts: Tuple[str, ...],
                      tree: ast.Module) -> List[Finding]:
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in DETERMINISTIC_PACKAGES:
        return []
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    return visitor.findings


# ---------------------------------------------------------------------------
# RPL002 — immutability
# ---------------------------------------------------------------------------
class _Creation:
    __slots__ = ("line", "col", "name", "frozen", "escaped", "escape_line")

    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line = line
        self.col = col
        self.frozen = False
        self.escaped = False
        self.escape_line = 0


class _ImmutabilityScope:
    """Linear, order-sensitive walk of one function (or module) body."""

    def __init__(self, path: str, check_creation: bool):
        self.path = path
        self.check_creation = check_creation
        self.findings: List[Finding] = []
        self.tainted: Dict[str, str] = {}  # name -> origin description
        self.created: Dict[str, _Creation] = {}

    # -- expression classification -------------------------------------
    def _taint_origin(self, node: ast.AST) -> Optional[str]:
        """Origin description when ``node`` evaluates to a store/dataset
        column (or a view of one), else None."""
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in COLUMN_PROPERTIES:
            return f"column property '.{node.attr}'"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "column":
                return "store.column(...)"
            return None
        if isinstance(node, ast.Subscript):
            origin = self._taint_origin(node.value)
            return f"view of {origin}" if origin else None
        return None

    def _np_ctor(self, node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in {"np", "numpy"} \
                and func.attr in NP_CONSTRUCTORS:
            return func.attr
        return None

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding("RPL002", self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    # -- statement walk -------------------------------------------------
    def run(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._statement(statement)
        if self.check_creation:
            reported = set()
            for creation in self.created.values():
                if creation.escaped and not creation.frozen \
                        and id(creation) not in reported:
                    reported.add(id(creation))
                    self._flag_creation(creation)

    def _flag_creation(self, creation: _Creation) -> None:
        self.findings.append(
            Finding(
                "RPL002", self.path, creation.line, creation.col,
                f"array '{creation.name}' created in core/ escapes (line "
                f"{creation.escape_line}) without setflags(write=False)",
            )
        )

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own scope from the caller
        if isinstance(node, ast.Assign):
            self._handle_assign(node.targets, node.value)
            self._scan_calls(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._handle_assign([node.target], node.value)
            self._scan_calls(node.value)
        elif isinstance(node, ast.AugAssign):
            self._handle_augassign(node)
            self._scan_calls(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._mark_escapes(node.value, node.lineno)
                self._scan_calls(node.value)
        elif isinstance(node, ast.Expr):
            self._scan_calls(node.value)
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With,
                               ast.AsyncFor, ast.AsyncWith)):
            for attr in ("test", "iter"):
                value = getattr(node, attr, None)
                if value is not None:
                    self._scan_calls(value)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._clear_bindings(node.target)
            for child in node.body:
                self._statement(child)
            for child in getattr(node, "orelse", []):
                self._statement(child)
        elif isinstance(node, ast.Try):
            for child in node.body:
                self._statement(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._statement(child)
            for child in node.orelse + node.finalbody:
                self._statement(child)
        else:
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._scan_calls(value)

    def _clear_bindings(self, target: ast.AST) -> None:
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.tainted.pop(name_node.id, None)
                self.created.pop(name_node.id, None)

    def _handle_assign(self, targets: Iterable[ast.AST], value: ast.expr) -> None:
        origin = self._taint_origin(value)
        ctor = self._np_ctor(value)
        alias = self.created.get(value.id) if isinstance(value, ast.Name) else None
        for target in targets:
            if isinstance(target, ast.Name):
                self.tainted.pop(target.id, None)
                self.created.pop(target.id, None)
                if origin:
                    self.tainted[target.id] = origin
                if ctor and self.check_creation:
                    self.created[target.id] = _Creation(
                        target.id, value.lineno, value.col_offset
                    )
                elif alias is not None:
                    self.created[target.id] = alias
            elif isinstance(target, ast.Subscript):
                base_origin = self._taint_origin(target.value)
                if base_origin:
                    self._flag(
                        target,
                        f"subscript assignment into {base_origin} — column "
                        "views are immutable; build a new array instead",
                    )
                if isinstance(value, ast.Name) and value.id in self.created:
                    self.created[value.id].escaped = True
                    self.created[value.id].escape_line = target.lineno
            elif isinstance(target, ast.Attribute):
                if isinstance(value, ast.Name) and value.id in self.created:
                    self.created[value.id].escaped = True
                    self.created[value.id].escape_line = target.lineno
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._clear_bindings(target)

    def _handle_augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in self.tainted:
            self._flag(
                node,
                f"augmented assignment mutates {self.tainted[target.id]} — "
                "column views are immutable; assign a new array instead",
            )
        elif isinstance(target, ast.Subscript):
            origin = self._taint_origin(target.value)
            if origin:
                self._flag(
                    node,
                    f"augmented subscript assignment into {origin} — column "
                    "views are immutable",
                )

    def _mark_escapes(self, value: ast.expr, line: int) -> None:
        names = []
        if isinstance(value, ast.Name):
            names = [value]
        elif isinstance(value, ast.Tuple):
            names = [e for e in value.elts if isinstance(e, ast.Name)]
        for name_node in names:
            creation = self.created.get(name_node.id)
            if creation is not None:
                creation.escaped = True
                creation.escape_line = line

    def _scan_calls(self, node: ast.expr) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in MUTATOR_METHODS:
                origin = self._taint_origin(func.value)
                if origin:
                    self._flag(
                        call,
                        f".{func.attr}() mutates {origin} — column views are "
                        f"immutable; use the copying variant (np.{func.attr}"
                        "(...)) instead",
                    )
            elif func.attr == "setflags" and isinstance(func.value, ast.Name):
                write_true = any(
                    kw.arg == "write" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in call.keywords
                )
                if write_true:
                    origin = self._taint_origin(func.value)
                    target = origin or f"array '{func.value.id}'"
                    self._flag(call, f"setflags(write=True) thaws {target}")
                elif func.value.id in self.created:
                    self.created[func.value.id].frozen = True


def check_immutability(path: str, parts: Tuple[str, ...],
                       tree: ast.Module) -> List[Finding]:
    if not parts or parts[0] not in {"repro", "tests", "benchmarks"}:
        return []
    check_creation = len(parts) >= 2 and parts[0] == "repro" and parts[1] == "core"
    findings: List[Finding] = []
    module_scope = _ImmutabilityScope(path, check_creation=False)
    module_scope.run([n for n in tree.body
                      if not isinstance(n, (ast.FunctionDef, ast.ClassDef))])
    findings.extend(module_scope.findings)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = _ImmutabilityScope(path, check_creation=check_creation)
            scope.run(node.body)
            findings.extend(scope.findings)
    return findings


# ---------------------------------------------------------------------------
# entry point used by repro.devtools.lint
# ---------------------------------------------------------------------------
def check_file(path: Path, tree: ast.Module) -> List[Finding]:
    """Run every syntactic rule that applies to ``path``."""
    parts = module_parts(path)
    rel = path.as_posix()
    return (check_determinism(rel, parts, tree)
            + check_immutability(rel, parts, tree))


__all__ = [
    "RULES",
    "Finding",
    "COLUMN_PROPERTIES",
    "DETERMINISTIC_PACKAGES",
    "check_file",
    "module_name",
    "module_parts",
]
