"""Schema guard for the wall-clock benchmark output (BENCH_wallclock.json).

Runs a tiny instance of ``benchmarks/bench_wallclock.py`` end to end and
validates the emitted document against ``validate_document`` — the single
source of truth for the schema — so any drift in the JSON layout fails CI
before a malformed BENCH_wallclock.json lands at the repo root.  Also
validates the committed repo-root file when present.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_REPO_ROOT, "benchmarks"))

import bench_wallclock  # noqa: E402  (needs the path insertion above)


@pytest.mark.smoke
def test_tiny_benchmark_roundtrip_matches_schema(tmp_path):
    out = tmp_path / "BENCH_wallclock.json"
    assert bench_wallclock.main(["--sizes", "1024", "--repeats", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    bench_wallclock.validate_document(document)  # raises on drift
    assert document["schema_version"] == 7
    assert document["speedups"]["bulk_build_1024"] > 0
    assert document["speedups"]["concurrent_mixed_1024"] > 0
    assert document["speedups"]["resize_churn_1024"] > 0
    ops = {(entry["op"], entry["backend"]) for entry in document["results"]}
    assert ops == {
        (op, backend)
        for op in ("bulk_build", "bulk_search", "concurrent_mixed", "resize_churn")
        for backend in ("vectorized", "reference")
    }
    churn = document["resize_churn"]
    assert churn["num_keys"] == 1024
    # Schema v3 guarantees the comparison exercised real grow/shrink cycles.
    assert churn["auto"]["grows"] >= 1 and churn["auto"]["shrinks"] >= 1
    assert churn["auto_over_fixed"] >= 0.5
    # Schema v4: durability primitives, measured on a verified round-trip.
    persist = document["persist"]
    assert persist["num_keys"] == 1024
    assert persist["replay_records"] >= 1
    assert persist["snapshot_bytes"] > 0 and persist["wal_bytes"] > 0
    # Schema v5: incremental-vs-stop-the-world modelled-latency comparison.
    incremental = document["incremental_resize"]
    assert incremental["num_keys"] == 1024
    assert incremental["incremental"]["steps"] >= 1
    assert incremental["stw_over_incremental_max"] > 0
    # Schema v7 has no measured-multiprocess ``parallel`` section.
    assert "parallel" not in document


@pytest.mark.smoke
def test_committed_trajectory_file_matches_schema():
    path = os.path.join(_REPO_ROOT, "BENCH_wallclock.json")
    if not os.path.exists(path):
        pytest.skip("no BENCH_wallclock.json at the repo root yet")
    with open(path, encoding="utf-8") as handle:
        bench_wallclock.validate_document(json.load(handle))


def test_validate_document_rejects_drift():
    document = bench_wallclock.run_benchmark([256], repeats=1)
    bench_wallclock.validate_document(document)
    broken = dict(document)
    broken.pop("speedups")
    with pytest.raises(ValueError, match="speedups"):
        bench_wallclock.validate_document(broken)
    renamed = dict(document)
    renamed["results"] = [dict(entry, op="build") for entry in document["results"]]
    with pytest.raises(ValueError, match="result op"):
        bench_wallclock.validate_document(renamed)
    churnless = dict(document)
    churnless.pop("resize_churn")
    with pytest.raises(ValueError, match="resize_churn"):
        bench_wallclock.validate_document(churnless)
    persistless = dict(document)
    persistless.pop("persist")
    with pytest.raises(ValueError, match="persist"):
        bench_wallclock.validate_document(persistless)
    no_shrink = json.loads(json.dumps(document))
    no_shrink["resize_churn"]["auto"]["shrinks"] = 0
    with pytest.raises(ValueError, match="grow and one shrink"):
        bench_wallclock.validate_document(no_shrink)
    slow_auto = json.loads(json.dumps(document))
    slow_auto["resize_churn"]["auto_over_fixed"] = 0.4
    with pytest.raises(ValueError, match="auto_over_fixed"):
        bench_wallclock.validate_document(slow_auto)
    incrementalless = dict(document)
    incrementalless.pop("incremental_resize")
    with pytest.raises(ValueError, match="incremental_resize"):
        bench_wallclock.validate_document(incrementalless)
    # The headline latency claim is schema-enforced at production sizes.
    slow_steps = json.loads(json.dumps(document))
    slow_steps["incremental_resize"]["num_keys"] = 100_000
    slow_steps["incremental_resize"]["stw_over_incremental_max"] = 9.0
    with pytest.raises(ValueError, match="order of magnitude"):
        bench_wallclock.validate_document(slow_steps)
