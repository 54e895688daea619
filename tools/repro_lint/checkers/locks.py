"""lock-discipline: a lightweight static race detector.

State is declared guarded at its assignment site::

    self._query_count = 0  # guarded-by: _meter_lock

From then on, every read or mutation of ``self._query_count`` inside the
same class must sit lexically inside ``with self._meter_lock:`` (any
expression mentioning the lock attribute counts, so a subscripted
``with self._locks[si]:`` works), or inside a function annotated as
called with the lock already held::

    def _rows_pending(self) -> int:  # requires-lock: _cv

Module-level globals use the same annotation with a bare lock name
(``_instances: dict = {}  # guarded-by: _lock`` ... ``with _lock:``).

Scope and soundness, honestly stated:

* The declaring function (usually ``__init__``) is exempt — construction
  happens-before publication.
* The analysis is lexical and intra-class/intra-file: a nested def or
  lambda under a ``with`` runs *later*, so the walk stops at function
  boundaries and the nested function needs its own ``requires-lock``.
* ``requires-lock`` is trusted, not verified at call sites — it is an
  assumption marker, the same contract GUARDED_BY/REQUIRES annotations
  carry in compiled-world race checkers.

This is exactly the analysis that would have flagged the PR 4 meter
race: an unsynchronized ``self._query_count += n`` check-then-commit in
``PredictionAPI._score_blocks`` losing updates under 32-thread load.
"""

from __future__ import annotations

import ast

from ..engine import MIN_JUSTIFICATION, SourceFile
from ..findings import Finding
from ._util import expr_mentions_name, expr_mentions_self_attr

RULE = "lock-discipline"
_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCISH = _FUNC + (ast.Lambda,)


def _guard_annotation(sf: SourceFile, node: ast.AST) -> str | None:
    return sf.annotation(node.lineno, "guarded-by")


def _requires_locks(sf: SourceFile, func: ast.AST) -> set[str]:
    """Locks a def is annotated as holding on entry."""
    if not isinstance(func, _FUNC):
        return set()
    payload = sf.annotation(func.lineno, "requires-lock")
    if payload is None:
        return set()
    return {part.strip() for part in payload.split(",") if part.strip()}


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, ast.AnnAssign) and node.target is not None:
        return [node.target]
    return []


def _held_locks_self(sf: SourceFile, node: ast.AST, lock: str) -> bool:
    """Is ``node`` lexically under ``with self.<lock>:`` (stopping at
    function boundaries) or inside a def that requires the lock?"""
    cur = node
    for anc in sf.ancestors(node):
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            # Only count the with-block body, not the context expression
            # itself (``with self._lock:`` evaluates self._lock unlocked).
            if cur in anc.body and any(
                expr_mentions_self_attr(item.context_expr, lock)
                for item in anc.items
            ):
                return True
        if isinstance(anc, _FUNCISH):
            return lock in _requires_locks(sf, anc)
        cur = anc
    return False


def _held_locks_global(sf: SourceFile, node: ast.AST, lock: str) -> bool:
    cur = node
    for anc in sf.ancestors(node):
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            if cur in anc.body and any(
                expr_mentions_name(item.context_expr, lock)
                for item in anc.items
            ):
                return True
        if isinstance(anc, _FUNCISH):
            return lock in _requires_locks(sf, anc)
        cur = anc
    return False


def check(sf: SourceFile, config: dict) -> list[Finding]:
    findings: list[Finding] = []
    findings.extend(_check_classes(sf))
    findings.extend(_check_module_globals(sf))
    return findings


# -------------------------------------------------------------------- #
def _check_classes(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    for cls in (n for n in ast.walk(sf.tree) if isinstance(n, ast.ClassDef)):
        # Pass 1: collect guarded self-attributes and where they were
        # declared (that function is exempt for that attribute).
        guards: dict[str, str] = {}
        declared_in: dict[str, ast.AST | None] = {}
        for node in ast.walk(cls):
            for target in _assign_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    lock = _guard_annotation(sf, node)
                    if lock is None:
                        continue
                    if not lock or len(lock.split()) != 1:
                        findings.append(sf.finding(
                            "suppression", node,
                            "guarded-by annotation must name exactly one "
                            f"lock attribute, got {lock!r}",
                        ))
                        continue
                    guards[target.attr] = lock
                    declared_in[target.attr] = sf.enclosing_function(node)
        if not guards:
            continue
        # Pass 2: every other access to a guarded attribute must hold
        # its lock.
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guards
            ):
                continue
            lock = guards[node.attr]
            func = sf.enclosing_function(node)
            if func is None or func is declared_in[node.attr]:
                continue
            if _held_locks_self(sf, node, lock):
                continue
            action = "mutated" if isinstance(
                node.ctx, (ast.Store, ast.Del)
            ) else "read"
            fname = getattr(func, "name", "<lambda>")
            findings.append(sf.finding(
                RULE, node,
                f"`self.{node.attr}` is guarded by `self.{lock}` but is "
                f"{action} in `{cls.name}.{fname}` outside "
                f"`with self.{lock}:` (annotate the def with "
                f"`# requires-lock: {lock}` if the caller holds it)",
            ))
    return findings


# -------------------------------------------------------------------- #
def _check_module_globals(sf: SourceFile) -> list[Finding]:
    guards: dict[str, str] = {}
    for node in sf.tree.body:
        for target in _assign_targets(node):
            if isinstance(target, ast.Name):
                lock = _guard_annotation(sf, node)
                if lock:
                    guards[target.id] = lock.split()[0]
    if not guards:
        return []
    findings: list[Finding] = []
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Name) and node.id in guards):
            continue
        func = sf.enclosing_function(node)
        if func is None:
            continue  # module top level runs at import, pre-threads
        lock = guards[node.id]
        if _held_locks_global(sf, node, lock):
            continue
        action = "mutated" if isinstance(
            node.ctx, (ast.Store, ast.Del)
        ) else "read"
        fname = getattr(func, "name", "<lambda>")
        findings.append(sf.finding(
            RULE, node,
            f"module global `{node.id}` is guarded by `{lock}` but is "
            f"{action} in `{fname}` outside `with {lock}:` (annotate the "
            f"def with `# requires-lock: {lock}` if the caller holds it)",
        ))
    return findings
