"""docs/API.md names only methods that exist.

In each section whose heading names one class (``### SlabHash
(`repro.core.slab_hash`)``, or ``### ServiceConfig`` under ``## repro.service``),
every table row whose first column reads `` `name(`` (an optional leading
``await`` stripped) must name an attribute of that class, so a removed method
cannot stay documented.
"""

import importlib
import inspect
import re
from pathlib import Path

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"

_PACKAGE = re.compile(r"^## (repro[\w.]*)\s*$")
_CLASS_SECTION = re.compile(r"^### (\w+)(?: \(`([\w.]+)`\))?\s*$")
_METHOD_ROW = re.compile(r"^\|\s*`(?:await )?(\w+)\(")


def documented_methods():
    """``(class, method name)`` for every method row of a one-class section."""
    package, cls, rows = None, None, []
    for line in API_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            match = _PACKAGE.match(line)
            package, cls = (match.group(1) if match else None), None
        elif line.startswith("### "):
            match = _CLASS_SECTION.match(line)
            module = match and (match.group(2) or package)
            found = module and getattr(importlib.import_module(module), match.group(1), None)
            cls = found if inspect.isclass(found) else None
        elif cls is not None:
            row = _METHOD_ROW.match(line)
            if row:
                rows.append((cls, row.group(1)))
    return rows


def test_api_doc_has_class_method_tables():
    classes = {cls.__name__ for cls, _ in documented_methods()}
    assert {"SlabHash", "ShardedSlabHash", "SlabHashService", "SlabAlloc"} <= classes


def test_every_documented_method_exists():
    missing = [
        f"{cls.__name__}.{name}"
        for cls, name in documented_methods()
        if not hasattr(cls, name)
    ]
    assert not missing, f"docs/API.md documents methods that do not exist: {missing}"
