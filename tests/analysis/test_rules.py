"""Fixture-backed positive and negative cases for every lint rule.

Each fixture in ``fixtures/`` is real parseable Python linted *as if* it
lived at a pretend repo-relative path (``lint_source``'s ``rel``), so the
directory scoping of every rule is exercised too: the same wall-clock
fixture that fails in ``repro/service/`` must pass untouched in
``repro/perf/``.
"""

from pathlib import Path

import pytest

from repro.analysis import default_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def _lint(fixture: str, rel: str, rule: str):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    report = lint_source(source, rel=rel, rules=default_rules([rule]))
    return [v for v in report.violations if v.rule == rule]


#: (fixture file, pretend rel path, rule id, expected violation count)
CASES = [
    # det-wallclock: banned outside repro/perf/, allowed inside it.
    ("det_wallclock_bad.py", "repro/service/fx.py", "det-wallclock", 2),
    ("det_wallclock_bad.py", "repro/core/fx.py", "det-wallclock", 2),
    ("det_wallclock_bad.py", "repro/perf/fx.py", "det-wallclock", 0),
    # det-clock: monotonic clocks banned only in the deterministic layers.
    ("det_clock_bad.py", "repro/core/fx.py", "det-clock", 1),
    ("det_clock_bad.py", "repro/persist/fx.py", "det-clock", 1),
    ("det_clock_bad.py", "repro/service/fx.py", "det-clock", 0),
    # det-random: unseeded RNG flagged, seeded constructors pass.
    ("det_random_bad.py", "repro/core/fx.py", "det-random", 2),
    ("det_random_bad.py", "repro/perf/fx.py", "det-random", 0),
    ("det_random_ok.py", "repro/core/fx.py", "det-random", 0),
    # det-set-order: iterating / materializing a set is order-dependent.
    ("det_set_order_bad.py", "repro/core/fx.py", "det-set-order", 2),
    ("det_set_order_bad.py", "repro/workloads/fx.py", "det-set-order", 0),
    ("det_set_order_ok.py", "repro/core/fx.py", "det-set-order", 0),
    # np-dtype: implicit dtypes in core/engine/persist only.
    ("np_dtype_bad.py", "repro/core/fx.py", "np-dtype", 2),
    ("np_dtype_bad.py", "repro/engine/fx.py", "np-dtype", 2),
    ("np_dtype_bad.py", "repro/persist/fx.py", "np-dtype", 2),
    ("np_dtype_bad.py", "repro/perf/fx.py", "np-dtype", 0),
    ("np_dtype_ok.py", "repro/core/fx.py", "np-dtype", 0),
    # async-shared-state: lost-update flagged, atomic swap passes; the same
    # through a local alias of a self chain, and its re-read-after-await.
    ("async_state_bad.py", "repro/service/fx.py", "async-shared-state", 1),
    ("async_state_bad.py", "repro/core/fx.py", "async-shared-state", 0),
    ("async_state_ok.py", "repro/service/fx.py", "async-shared-state", 0),
    ("async_state_alias_bad.py", "repro/service/fx.py", "async-shared-state", 1),
    ("async_state_alias_ok.py", "repro/service/fx.py", "async-shared-state", 0),
    # fault-site: literals must exist in SITE_CATALOG.
    ("fault_site_bad.py", "repro/core/fx.py", "fault-site", 1),
    ("fault_site_ok.py", "repro/core/fx.py", "fault-site", 0),
    # persist-pickle: repo-wide import ban, persist-local np.load guard.
    ("persist_pickle_bad.py", "repro/persist/fx.py", "persist-pickle", 2),
    ("persist_pickle_ok.py", "repro/persist/fx.py", "persist-pickle", 0),
    # persist-version: numeric-literal version comparisons, persist/ only.
    ("persist_version_bad.py", "repro/persist/fx.py", "persist-version", 1),
    ("persist_version_bad.py", "repro/core/fx.py", "persist-version", 0),
    ("persist_version_ok.py", "repro/persist/fx.py", "persist-version", 0),
    # typing gate mirrors.
    ("ann_strict_bad.py", "repro/core/fx.py", "ann-strict", 2),
    ("ann_bare_generic_bad.py", "repro/core/fx.py", "ann-bare-generic", 2),
    ("ann_ok.py", "repro/core/fx.py", "ann-strict", 0),
    ("ann_ok.py", "repro/core/fx.py", "ann-bare-generic", 0),
]


@pytest.mark.parametrize(
    "fixture,rel,rule,expected",
    CASES,
    ids=[f"{rule}:{fixture}@{rel.split('/')[1]}" for fixture, rel, rule, _ in CASES],
)
def test_fixture(fixture, rel, rule, expected):
    violations = _lint(fixture, rel, rule)
    assert len(violations) == expected, "\n".join(v.format() for v in violations)


def test_pickle_import_is_banned_everywhere():
    # The import ban has no directory scoping — even perf/ may not pickle.
    report = lint_source(
        "import pickle\n", rel="repro/perf/fx.py",
        rules=default_rules(["persist-pickle"]),
    )
    assert len(report.violations) == 1


def test_every_fixture_parses_as_real_python():
    for path in sorted(FIXTURES.glob("*.py")):
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_violation_positions_point_at_the_offending_node():
    violations = _lint("np_dtype_bad.py", "repro/core/fx.py", "np-dtype")
    assert all(v.rel == "repro/core/fx.py" for v in violations)
    assert [v.line for v in violations] == sorted(v.line for v in violations)
    assert all(v.line > 1 for v in violations)
