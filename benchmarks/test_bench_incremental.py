"""E26 — incremental enforcement under an edit storm.

A session absorbing single-article edits must beat fresh full
re-enforcement by ≥ 5x while producing byte-identical receipts, and its
per-edit re-analysis footprint must track edit locality, not document
size (the same worst case while the document doubles).  The assertions
here are the acceptance criteria; the numbers land in
``BENCH_incremental.json`` via the shared trajectory convention.
"""

import pytest

from benchmarks.conftest import write_bench_payload
from repro.incremental.bench import run_incremental


@pytest.fixture(scope="module")
def payload():
    return run_incremental(smoke=True)


class TestIncrementalStorm:
    def test_outcomes_byte_identical(self, payload):
        assert payload["identical_outcomes"] is True
        assert payload["small"]["identical_outcomes"] is True
        assert payload["large"]["identical_outcomes"] is True

    def test_speedup_at_least_5x(self, payload):
        assert payload["small"]["speedup"] >= 5.0
        assert payload["large"]["speedup"] >= 5.0

    def test_locality_not_document_size(self, payload):
        # Doubling the document must not grow the worst-case per-edit
        # re-analysis; and the footprint stays far below the node count.
        assert payload["locality_holds"] is True
        assert (
            payload["small"]["max_reanalyzed_per_edit"]
            == payload["large"]["max_reanalyzed_per_edit"]
        )
        assert (
            payload["large"]["max_reanalyzed_per_edit"]
            < payload["large"]["document_nodes"] // 4
        )

    def test_work_counters_present(self, payload):
        work = payload["work"]["default"]
        assert any("game" in key or "compile" in key for key in work)

    def test_write_payload(self, payload, tmp_path):
        path = write_bench_payload(dict(payload, smoke=True), tmp_path)
        assert path.endswith("BENCH_incremental.json")
