"""Core of the repo's static-analysis plane: modules, rules, suppressions.

Every subsystem since the vectorized backend stakes its correctness on one
contract — vectorized, sharded, and recovered executions are
*bit-identical* to the reference backend.  The proptest harnesses enforce
that dynamically; this package enforces the properties they depend on
*statically*, at lint time:

* no wall-clock or unseeded randomness where it could reach results,
* no platform-dependent NumPy dtypes in the state-bearing planes,
* no shared-state mutation smuggled across an ``await`` in the service,
* no fault-site or persistence-format drift.

The framework is deliberately small: a :class:`Rule` sees one parsed
:class:`Module` at a time (plus a repo-wide :meth:`Rule.finalize` pass for
cross-file rules), emits :class:`Violation` records, and the runner filters
them through inline suppressions.  See ``docs/ANALYSIS.md`` for the rule
catalog and ``repro lint --list-rules`` for the live registry.

Suppression syntax (the reason clause is required by convention, not by the
parser)::

    x = time.time()  # repro-lint: disable=det-wallclock -- operator display only

    # repro-lint: disable=np-dtype -- dtype inherited from `template` below
    buf = np.zeros(template.shape)

A whole file opts out of a rule with ``# repro-lint: disable-file=<rule>``
on any line (conventionally in the module docstring's wake).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "LintReport",
    "Module",
    "QualifiedNames",
    "Rule",
    "Violation",
    "default_root",
    "iter_python_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "parse_module",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)=(?P<rules>[A-Za-z0-9_,-]+)"
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str  #: rule id, e.g. ``"np-dtype"``
    rel: str  #: path relative to the lint root, posix separators
    line: int  #: 1-indexed source line
    col: int  #: 0-indexed column
    message: str

    def format(self) -> str:
        return f"{self.rel}:{self.line}:{self.col + 1}: {self.rule}: {self.message}"


class QualifiedNames:
    """Best-effort resolution of names to dotted import paths.

    Tracks ``import x``, ``import x.y as z`` and ``from x import y as z``
    bindings (at any nesting level — good enough for lint purposes) so a
    rule can ask what ``np.random.default_rng`` or an aliased
    ``perf_counter`` actually refers to, without type inference.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self._bindings[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._bindings[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, or ``None`` if unrooted.

        ``np.random.default_rng`` (with ``import numpy as np``) resolves to
        ``"numpy.random.default_rng"``; a chain rooted in a local variable
        resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._bindings.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class Module:
    """One parsed source file under lint."""

    path: Path  #: absolute path on disk
    rel: str  #: path relative to the lint root ("repro/core/flush.py")
    source: str
    tree: ast.Module
    names: QualifiedNames
    #: line -> rule ids disabled on that line ("all" disables every rule)
    line_disables: Dict[int, Set[str]]
    file_disables: Set[str]

    def suppressed(self, violation: Violation) -> bool:
        if {violation.rule, "all"} & self.file_disables:
            return True
        disabled = self.line_disables.get(violation.line, set())
        return bool({violation.rule, "all"} & disabled)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`rationale`, restrict
    themselves with :attr:`dirs` (path prefixes under the lint root; empty
    means every file), and implement :meth:`check`.  Rules that need the
    whole tree at once (cross-file registries) override :meth:`finalize`.
    """

    id: str = ""
    title: str = ""
    #: Why the rule exists — shown by ``repro lint --list-rules``.
    rationale: str = ""
    #: Path prefixes (posix, relative to lint root) the rule applies to.
    dirs: Tuple[str, ...] = ()
    #: Path prefixes the rule never applies to (takes precedence).
    exclude_dirs: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        if any(rel.startswith(prefix) for prefix in self.exclude_dirs):
            return False
        if not self.dirs:
            return True
        return any(rel.startswith(prefix) for prefix in self.dirs)

    def check(self, module: Module) -> Iterator[Violation]:
        """Yield violations for one module."""
        return iter(())

    def finalize(self, modules: Sequence[Module], root: Path) -> Iterator[Violation]:
        """Cross-file pass, run once after every module's :meth:`check`."""
        return iter(())

    def violation(self, module: Module, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.id,
            rel=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        if self.ok:
            return (
                f"repro lint: {self.files_checked} file(s) clean "
                f"({len(self.rules_run)} rule(s))"
            )
        lines = [v.format() for v in self.violations]
        lines.append(
            f"repro lint: {len(self.violations)} violation(s) "
            f"in {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {name.strip() for name in match.group("rules").split(",") if name.strip()}
        if match.group("kind") == "disable-file":
            file_disables |= rules
            continue
        line_disables.setdefault(lineno, set()).update(rules)
        # A standalone comment line suppresses the statement directly below.
        if text.lstrip().startswith("#"):
            line_disables.setdefault(lineno + 1, set()).update(rules)
    return line_disables, file_disables


def parse_module(path: Path, rel: str, source: Optional[str] = None) -> Module:
    text = path.read_text(encoding="utf-8") if source is None else source
    tree = ast.parse(text, filename=str(path))
    line_disables, file_disables = _parse_suppressions(text)
    return Module(
        path=path,
        rel=rel.replace("\\", "/"),
        source=text,
        tree=tree,
        names=QualifiedNames(tree),
        line_disables=line_disables,
        file_disables=file_disables,
    )


def default_root() -> Path:
    """The repo's ``src`` directory, located from this package's own path."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if parent.name == "src" and (parent / "repro").is_dir():
            return parent
    return Path.cwd() / "src"


def iter_python_files(base: Path) -> Iterator[Path]:
    if base.is_file():
        yield base
        return
    for path in sorted(base.rglob("*.py")):
        yield path


def lint_modules(
    modules: Sequence[Module],
    rules: Sequence[Rule],
    *,
    root: Optional[Path] = None,
) -> LintReport:
    """Run ``rules`` over parsed ``modules`` (the importable entry point)."""
    root = root or default_root()
    violations: List[Violation] = []
    for rule in rules:
        for module in modules:
            if not rule.applies_to(module.rel):
                continue
            for violation in rule.check(module):
                if not module.suppressed(violation):
                    violations.append(violation)
        for violation in rule.finalize(
            [m for m in modules if rule.applies_to(m.rel)], root
        ):
            owner = next((m for m in modules if m.rel == violation.rel), None)
            if owner is None or not owner.suppressed(violation):
                violations.append(violation)
    violations.sort(key=lambda v: (v.rel, v.line, v.col, v.rule))
    return LintReport(
        violations=violations,
        files_checked=len(modules),
        rules_run=tuple(rule.id for rule in rules),
    )


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint files/directories (default: the whole ``repro`` package)."""
    from repro.analysis.rules import default_rules

    root = (root or default_root()).resolve()
    targets = [Path(p).resolve() for p in paths] if paths else [root / "repro"]
    modules: List[Module] = []
    seen: Set[Path] = set()
    for target in targets:
        for path in iter_python_files(target):
            if path in seen:
                continue
            seen.add(path)
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                # Outside the package root (an explicit path to a copy of the
                # tree, a tmp dir in tests): anchor at the first ``repro``
                # component so directory-scoped rules still apply.
                parts = path.parts
                if "repro" in parts:
                    rel = "/".join(parts[parts.index("repro"):])
                else:
                    rel = path.name
            modules.append(parse_module(path, rel))
    return lint_modules(modules, rules if rules is not None else default_rules(), root=root)


def lint_source(
    source: str,
    rel: str,
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint an in-memory source string as if it lived at ``rel``.

    The fixture-test entry point: ``rel`` controls which directory-scoped
    rules apply, no file needs to exist on disk.
    """
    from repro.analysis.rules import default_rules

    module = parse_module(Path("/" + rel), rel, source=source)
    return lint_modules(
        [module], rules if rules is not None else default_rules(), root=root
    )
