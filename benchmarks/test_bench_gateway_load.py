"""E25 — the gateway under closed-loop load.

The paper's peers are long-lived processes exchanging intensional
documents over the wire; E25 measures our gateway doing exactly that.
A cohort of concurrent clients (60 in smoke, 500 in the full run —
genuinely in flight together, one socket each) storms ``POST
/exchange``; afterwards every response is compared byte-for-byte with
the direct library path, and the phase-1 work counters must be
deterministic (the warm-up request pins the compile-cache state before
the storm).  A second, deliberately under-provisioned gateway then
takes a burst that must shed with typed 429/503 errors.

The assertions here are the acceptance criteria; the numbers land in
``BENCH_gateway_load.json`` via the shared trajectory convention.
"""

import pytest

from benchmarks.conftest import write_bench_payload
from repro.gateway.loadgen import run_load


@pytest.fixture(scope="module")
def payload():
    return run_load(smoke=True)


class TestGatewayLoad:
    def test_every_request_accepted(self, payload):
        assert payload["all_accepted"] is True
        assert payload["completed"] == payload["requests"]
        assert payload["main_phase_shed"] == 0

    def test_byte_identical_with_direct_path(self, payload):
        assert payload["byte_identical"] is True
        assert payload["mismatches"] == 0

    def test_latency_quantiles_recorded(self, payload):
        p50 = payload["client_p50_seconds"]
        p95 = payload["client_p95_seconds"]
        p99 = payload["client_p99_seconds"]
        assert 0 < p50 <= p95 <= p99
        assert payload["server_p99_seconds"] > 0

    def test_overload_sheds_typed(self, payload):
        assert payload["shed_any"] is True
        assert payload["shed_typed"] is True
        assert 0 < payload["overload_shed_fraction"] < 1
        assert payload["overload_completed_min"] is True

    def test_work_counters_present(self, payload):
        work = payload["work"]["default"]
        assert any("compile" in key for key in work)
        assert any("game" in key for key in work)

    def test_write_payload(self, payload, tmp_path):
        path = write_bench_payload(dict(payload, smoke=True), tmp_path)
        assert path.endswith("BENCH_gateway_load.json")
