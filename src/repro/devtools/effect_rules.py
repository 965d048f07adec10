"""RPL201, RPL202: the effects-engine rule checkers.

Two event-loop rules over the :class:`~repro.devtools.effects.EffectsProject`
summaries, scoped to the ``repro`` package (fixtures exercise them via
synthetic ``src/repro/...`` trees, same as the dataflow rules):

* **RPL201** — blocking calls inside ``async def``; direct (classifier
  tables) and interprocedural (blocking summaries), with the executor
  allowlist carving out ``run_in_executor`` / ``to_thread`` arguments.
* **RPL202** — shared mutable state (``self.*`` chains, declared
  globals) read before an ``await`` and written after it: a per-location
  {clean, read, read-then-await} lattice run to fixpoint over the
  function CFG, so the hazard is caught through loop back edges too.
  ``with``/``async with`` bodies whose context mentions a lock are
  exempt regions.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.cfg import build_cfg
from repro.devtools.effects import (
    EffectsProject,
    blocking_call_reason,
    executor_exempt_nodes,
    is_executor_handoff,
    _dotted,
)
from repro.devtools.rules import Finding, module_name, module_parts

#: Context-manager expressions matching this are treated as lock
#: regions for RPL202 (reads/writes inside are protected).
_LOCK_NAME_RE = re.compile(r"lock|mutex|semaphore|condition", re.IGNORECASE)


def _own_walk(fn: ast.AST) -> Iterable[ast.AST]:
    """Subtree walk excluding nested function/class bodies (nested defs
    are checked on their own); lambdas stay in — they run in this frame
    unless an executor handoff exempts them."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _flag(findings: List[Finding], rule: str, path: str, node: ast.AST,
          message: str) -> None:
    findings.append(
        Finding(rule, path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0), message)
    )


# ---------------------------------------------------------------------------
# RPL201 — blocking calls on the event loop
# ---------------------------------------------------------------------------
def check_async_blocking(
    fn: ast.AsyncFunctionDef, module: str, class_key: Optional[str],
    project: EffectsProject, path: str, findings: List[Finding],
) -> None:
    ctx = project.contexts[module]
    exempt = executor_exempt_nodes(fn)
    local_types = project._local_types(module, fn)
    for node in _own_walk(fn):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        if is_executor_handoff(node):
            continue
        reason = blocking_call_reason(ctx, node)
        if reason is not None:
            _flag(
                findings, "RPL201", path, node,
                f"blocking call on the event loop: {reason}; move it "
                "behind loop.run_in_executor()/asyncio.to_thread() or use "
                "an async equivalent",
            )
            continue
        for key in project.resolve_call(module, node.func, class_key,
                                        local_types):
            callee = project.functions.get(key)
            if callee is not None and callee.blocking and not callee.is_async:
                _flag(
                    findings, "RPL201", path, node,
                    "call blocks the event loop through "
                    f"{project.describe_blocking(key)}; wrap the call in "
                    "loop.run_in_executor()/asyncio.to_thread()",
                )
                break


# ---------------------------------------------------------------------------
# RPL202 — shared state mutated across an await
# ---------------------------------------------------------------------------
_CLEAN, _READ, _READ_THEN_AWAIT = 0, 1, 2


def _shared_location(target: ast.expr,
                     global_names: Set[str]) -> Optional[str]:
    if isinstance(target, ast.Attribute):
        dotted = _dotted(target)
        if dotted is not None and dotted.startswith("self."):
            return dotted
        return None
    if isinstance(target, ast.Name) and target.id in global_names:
        return target.id
    return None


def _interpreted_exprs(item: ast.AST) -> List[ast.AST]:
    """The expressions a CFG block item actually evaluates (structured
    statement headers carry their whole subtree; only the header
    expression belongs to the block)."""
    if isinstance(item, (ast.If, ast.While)):
        return [item.test]
    if isinstance(item, (ast.For, ast.AsyncFor)):
        return [item.iter]
    if isinstance(item, (ast.With, ast.AsyncWith)):
        return [w.context_expr for w in item.items]
    if isinstance(item, ast.ExceptHandler):
        return [item.type] if item.type is not None else []
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [item]


def _lock_region_nodes(fn: ast.AST) -> Set[int]:
    """ids of every node inside a lock-guarded ``with`` body."""
    out: Set[int] = set()
    for node in _own_walk(fn):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        guarded = False
        for item in node.items:
            for sub in ast.walk(item.context_expr):
                name = None
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                if name is not None and _LOCK_NAME_RE.search(name):
                    guarded = True
        if guarded:
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    out.add(id(sub))
    return out


class _SharedStateAnalyzer:
    """Fixpoint of the read/read-then-await lattice over one coroutine."""

    def __init__(self, fn: ast.AsyncFunctionDef, qualname: str, path: str):
        self.fn = fn
        self.qualname = qualname
        self.path = path
        self.global_names = {
            name for node in _own_walk(fn) if isinstance(node, ast.Global)
            for name in node.names
        }
        self.tracked: Set[str] = set()
        for node in _own_walk(fn):
            for target in self._write_targets(node):
                loc = _shared_location(target, self.global_names)
                if loc is not None:
                    self.tracked.add(loc)
        self.lock_nodes = _lock_region_nodes(fn)
        self.flagged: Set[Tuple[str, int]] = set()

    @staticmethod
    def _write_targets(node: ast.AST) -> List[ast.expr]:
        if isinstance(node, ast.Assign):
            out: List[ast.expr] = []
            for target in node.targets:
                if isinstance(target, ast.Tuple):
                    out.extend(target.elts)
                else:
                    out.append(target)
            return out
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def run(self, findings: List[Finding]) -> None:
        if not self.tracked:
            return
        cfg = build_cfg(self.fn.body)
        envs: List[Dict[str, int]] = [{} for _ in cfg.blocks]
        # Every block is seeded so straight-line facts flow even before
        # any env changes; the worklist then re-runs only what joins
        # re-dirty.
        worklist = list(range(len(cfg.blocks)))
        iterations = 0
        limit = 40 * max(1, len(cfg.blocks))
        while worklist and iterations < limit:
            iterations += 1
            idx = worklist.pop()
            out = self._transfer(cfg.blocks[idx].items, dict(envs[idx]), None)
            for succ in cfg.blocks[idx].succs:
                joined = dict(envs[succ])
                changed = False
                for loc, state in out.items():
                    if state > joined.get(loc, _CLEAN):
                        joined[loc] = state
                        changed = True
                if changed:
                    envs[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)
        for block in cfg.blocks:
            self._transfer(block.items, dict(envs[block.idx]), findings)

    def _transfer(self, items: Sequence[ast.AST], env: Dict[str, int],
                  findings: Optional[List[Finding]]) -> Dict[str, int]:
        for item in items:
            if id(item) in self.lock_nodes:
                continue
            exprs = _interpreted_exprs(item)
            reads: Set[str] = set()
            writes: List[Tuple[str, ast.AST]] = []
            has_await = isinstance(item, (ast.AsyncFor, ast.AsyncWith))
            for expr in exprs:
                for node in ast.walk(expr):
                    if id(node) in self.lock_nodes:
                        continue
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        continue
                    if isinstance(node, ast.Await):
                        has_await = True
                    loc = None
                    if isinstance(node, (ast.Attribute, ast.Name)):
                        loc = _shared_location(node, self.global_names)
                    if loc is None or loc not in self.tracked:
                        continue
                    if isinstance(node.ctx, ast.Load):
                        reads.add(loc)
                    elif isinstance(node.ctx, ast.Store):
                        writes.append((loc, node))
                        if isinstance(item, ast.AugAssign):
                            reads.add(loc)
            for loc in reads:
                env[loc] = max(env.get(loc, _CLEAN), _READ)
            if has_await:
                for loc, state in env.items():
                    if state == _READ:
                        env[loc] = _READ_THEN_AWAIT
            for loc, node in writes:
                if env.get(loc, _CLEAN) == _READ_THEN_AWAIT:
                    mark = (loc, getattr(node, "lineno", 1))
                    if findings is not None and mark not in self.flagged:
                        self.flagged.add(mark)
                        _flag(
                            findings, "RPL202", self.path, node,
                            f"'{loc}' is read before an await and written "
                            f"after it in {self.qualname}(); an interleaved "
                            "task can change it mid-flight — hold a lock "
                            "across the await, collapse to a single "
                            "read-modify-write, or justify the single-writer "
                            "invariant with a suppression",
                        )
                env[loc] = _CLEAN
        return env


# ---------------------------------------------------------------------------
# module driver
# ---------------------------------------------------------------------------
def _iter_functions(
    body: Sequence[ast.stmt], module: str, class_key: Optional[str],
    prefix: str, out: List[Tuple[ast.AST, Optional[str], str]],
) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            out.append((node, class_key, qualname))
            _iter_functions(node.body, module, class_key,
                            f"{qualname}.<locals>.", out)
        elif isinstance(node, ast.ClassDef):
            nested_key = f"{module}.{node.name}" if not prefix else None
            _iter_functions(node.body, module, nested_key,
                            f"{prefix}{node.name}.", out)


def check_module(path: Path, tree: ast.Module,
                 project: EffectsProject) -> List[Finding]:
    parts = module_parts(path)
    if not parts or parts[0] != "repro":
        return []
    module = module_name(path)
    rel = path.as_posix()
    findings: List[Finding] = []
    functions: List[Tuple[ast.AST, Optional[str], str]] = []
    _iter_functions(tree.body, module, None, "", functions)
    for fn, class_key, qualname in functions:
        if isinstance(fn, ast.AsyncFunctionDef):
            project.analyzed_async.add((module, qualname, fn.lineno))
            check_async_blocking(fn, module, class_key, project, rel,
                                 findings)
            _SharedStateAnalyzer(fn, qualname, rel).run(findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
    return findings


__all__ = [
    "check_async_blocking",
    "check_module",
]
