"""Await-safety: no stale shared-state write-back across an ``await``.

asyncio interleaves tasks at every ``await``.  The classic lost-update race
in the service's drain/restore loops is::

    staged = self._staged          # read shared state into a local
    await self._flush(staged)      # another drain task mutates self._staged
    self._staged = trim(staged)    # write-back clobbers the concurrent update

The fix is always the same: re-read (or atomically swap) *after* the await,
as ``_commit_round`` does with ``staged, self._staged = self._staged, []``.
This rule is the static detector for the broken shape: inside one async
function, a local bound from a ``self`` attribute chain *before* an await
that is written back to the same chain *after* the await.  A local bound to
a ``self`` chain is followed as an alias (``lane = self._lanes[s]`` makes
``lane.trips`` the chain ``self._lanes[s].trips``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.analysis.framework import Module, Rule, Violation

__all__ = ["AsyncSharedStateRule"]


def _chain_key(node: ast.AST, aliases: Dict[str, str]) -> str:
    """Canonical text of a self-rooted attribute/subscript chain, or ''.

    A chain rooted at an alias local is rewritten onto its ``self`` chain.
    """
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""
    if text.startswith("self."):
        return text
    for local, chain in aliases.items():
        if text.startswith((local + ".", local + "[")):
            return chain + text[len(local):]
    return ""


def _local_names(node: ast.AST) -> List[str]:
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


class AsyncSharedStateRule(Rule):
    id = "async-shared-state"
    title = "no stale read/write-back of shared state across an await"
    rationale = (
        "Every await is a potential interleaving point; a local snapshot of "
        "service state taken before an await and written back after it "
        "silently drops concurrent updates.  Swap atomically or re-read "
        "after the await."
    )
    dirs = ("repro/service/",)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: Module, func: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        # Linear (source-order) approximation of execution order: good
        # enough to catch the read -> await -> write-back shape without a
        # CFG, and it cannot fire on the safe atomic-swap idiom because a
        # swap reads and writes in a single statement with no await between.
        reads: List[Tuple[int, str, str]] = []  # (line, local, chain)
        awaits: List[int] = []
        writes: List[Tuple[int, ast.AST, str, List[str]]] = []
        aliases: Dict[str, str] = {}  # local -> the self chain it was bound to

        # Source order, so an alias is known before the statements using it.
        nodes = sorted(
            (n for n in ast.walk(func) if isinstance(n, (ast.Await, ast.Assign, ast.AugAssign))),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for sub in nodes:
            if isinstance(sub, ast.Await):
                awaits.append(sub.lineno)
            elif isinstance(sub, ast.Assign):
                chain = _chain_key(sub.value, aliases)
                for target in sub.targets:
                    tchain = _chain_key(target, aliases)
                    if tchain and tchain != chain:
                        writes.append((sub.lineno, sub, tchain, _local_names(sub.value)))
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        if chain:
                            reads.append((sub.lineno, target.id, chain))
                            aliases[target.id] = chain
                        else:
                            aliases.pop(target.id, None)
            elif isinstance(sub, ast.AugAssign):
                tchain = _chain_key(sub.target, aliases)
                if tchain:
                    writes.append((sub.lineno, sub, tchain, _local_names(sub.value)))

        for read_line, local, chain in reads:
            for write_line, write_node, wchain, used in writes:
                if wchain != chain or local not in used:
                    continue
                if any(read_line < a <= write_line for a in awaits):
                    yield self.violation(
                        module,
                        write_node,
                        f"`{chain}` was read into `{local}` before an await "
                        f"and written back after it — concurrent updates made "
                        f"during the await are lost; re-read after the await "
                        f"or swap atomically in one statement",
                    )
