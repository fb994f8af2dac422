#!/usr/bin/env bash
# CI smoke: exercise every command the documentation shows, at tiny scale.
#
# Order: cheap registry/metadata commands first, then the test suites, then
# the experiment reproductions and examples. Fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== CLI metadata (README quickstart) =="
python -m repro list
python -m repro info

echo "== Tier-1 test suite =="
python -m pytest -x -q

echo "== Property-based differential harness (pinned seeds) =="
python -m pytest -q tests/proptest

echo "== Smoke-marked subset =="
python -m pytest -q -m smoke

echo "== Benchmark suite (regenerates every paper table) =="
python -m pytest -q benchmarks/bench_*.py

echo "== Shard-sweep reproduction (sharded engine) =="
python -m repro reproduce shard-sweep --scale 0.05 --out results/smoke

echo "== Every experiment, tiny scale =="
python -m repro reproduce all --scale 0.02 --out results/smoke

echo "== Examples (every examples/*.py) =="
for example in examples/*.py; do
  echo "-- $example"
  python "$example"
done

echo "== Service health counters (healthy + chaotic) =="
python -m repro service-health --ops 2048
python -m repro service-health --ops 2048 --chaos-seed 7

echo "== Durable snapshot / recover (persistence layer) =="
python -m repro snapshot results/smoke/snapshot-demo.npz --elements 2048
python -m repro recover results/smoke/snapshot-demo.npz
rm -f results/smoke/snapshot-demo.npz

echo "== Incremental resize, end to end (migrate + mid-flight snapshot) =="
python - <<'PY'
import numpy as np
from repro import SlabHash

keys = np.arange(1, 3001, dtype=np.uint64)
table = SlabHash(16, seed=3)
table.bulk_insert(keys, keys * 3)
table.begin_resize(64, step_buckets=4)
# A few interleaved writes plus steps, then a mid-migration round-trip.
while table.migration is not None and table.migration.steps < 3:
    table.migrate_step()
table.bulk_insert(np.array([9001], dtype=np.uint64), np.array([1], dtype=np.uint64))
table.save("results/smoke/mid-migration.npz")
resumed = SlabHash.load("results/smoke/mid-migration.npz")
assert resumed.migration is not None
assert resumed.migration.watermark == table.migration.watermark
while resumed.migration is not None:
    resumed.migrate_step()
assert resumed.num_buckets == 64
assert len(resumed) == len(keys) + 1
assert np.array_equal(resumed.bulk_search(keys), keys * 3)
print(f"incremental resize OK: {resumed.resize_stats.migration_steps} steps, "
      f"{resumed.resize_stats.migration_items} items migrated")
PY
rm -f results/smoke/mid-migration.npz

echo "== Static analysis (repro lint; docs/ANALYSIS.md) =="
python -m repro lint

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy --strict (src/repro) =="
  python -m mypy --strict src/repro
else
  echo "== mypy --strict skipped (mypy not installed; the CI lint job runs it) =="
fi

echo "== Bench schema drift guard (docs vs committed BENCH_*.json) =="
python scripts/check_bench_schema_drift.py

echo "== Tutorial snippets (docs/TUTORIAL.md, executed top to bottom) =="
python scripts/run_doc_snippets.py docs/TUTORIAL.md

echo "== Markdown link check (README.md + docs/) =="
python scripts/check_markdown_links.py README.md docs

echo "== Wall-clock backend benchmark (tiny sizes) =="
bash scripts/bench_wallclock.sh --sizes 4096 --repeats 1 --out results/smoke/BENCH_wallclock.json

echo "== Service-saturation benchmark (tiny sweep) =="
python benchmarks/bench_service_saturation.py --smoke \
  --out results/smoke/BENCH_service.json

echo "== Degraded-mode benchmark (merges into the smoke document) =="
python benchmarks/bench_degraded.py --smoke --out results/smoke/BENCH_service.json

echo "== Service-latency benchmark (tiny stream) =="
python benchmarks/bench_service_latency.py --num-ops 2048 --initial 2048 \
  --num-shards 2 --max-batch 256 --burst 128 --out results/smoke/BENCH_service_latency.json

echo "== smoke OK =="
