"""Shared helpers for the experiment benchmarks (E1-E14).

Each benchmark module regenerates one artifact of the paper — a worked
figure or a complexity claim — and asserts its *shape* (who wins, where
the crossover falls) in addition to timing it.  EXPERIMENTS.md records
paper-vs-measured for each.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.bench import machine_fingerprint, write_payload

from repro import (
    FunctionSignature,
    Service,
    ServiceRegistry,
    constant_responder,
    el,
    parse_regex,
)
from repro.workloads import newspaper

#: The running example's children word (Figure 2.a / Section 4).
WORD = ("title", "date", "Get_Temp", "TimeOut")


def newspaper_outputs():
    return {
        "Get_Temp": parse_regex("temp"),
        "TimeOut": parse_regex("(exhibit | performance)*"),
        "Get_Date": parse_regex("date"),
    }


@pytest.fixture
def outputs():
    return newspaper_outputs()


@pytest.fixture
def target_star2():
    return parse_regex("title.date.temp.(TimeOut | exhibit*)")


@pytest.fixture
def target_star3():
    return parse_regex("title.date.temp.exhibit*")


def well_behaved_registry():
    """Get_Temp/TimeOut/Get_Date with fixed, type-conforming answers."""
    registry = ServiceRegistry()
    forecast = Service("http://www.forecast.com/soap", "urn:w")
    forecast.add_operation(
        "Get_Temp",
        FunctionSignature(parse_regex("city"), parse_regex("temp")),
        constant_responder((el("temp", "15"),)),
        side_effect_free=True,
    )
    timeout = Service("http://www.timeout.com/paris", "urn:t")
    timeout.add_operation(
        "TimeOut",
        FunctionSignature(
            parse_regex("data"), parse_regex("(exhibit | performance)*")
        ),
        constant_responder(
            (el("exhibit", el("title", "P"), el("date", "d")),)
        ),
    )
    dates = Service("http://dates.example.com", "urn:d")
    dates.add_operation(
        "Get_Date",
        FunctionSignature(parse_regex("title"), parse_regex("date")),
        constant_responder((el("date", "04/12"),)),
    )
    registry.register(forecast).register(timeout).register(dates)
    return registry


@pytest.fixture
def registry():
    return well_behaved_registry()


def write_bench_payload(payload: dict, directory) -> str:
    """Write one ``BENCH_<name>.json`` trajectory file.

    The shared exit point for every benchmark that records a payload:
    stamps the host fingerprint, then lands the file in
    ``$REPRO_BENCH_DIR`` when set, else in ``directory`` (the tests pass
    pytest's ``tmp_path``, so a smoke-size run never overwrites the
    full-size records at the repository root, which ``repro bench``
    writes), in the sorted-JSON convention `repro bench` also follows.
    ``payload["benchmark"]`` names the file.
    """
    import os

    payload = dict(payload)
    payload.setdefault("machine", machine_fingerprint())
    return write_payload(
        payload, os.environ.get("REPRO_BENCH_DIR", str(directory))
    )


def print_series(title: str, rows):
    """Emit one experiment's series so the harness output mirrors the
    tables of EXPERIMENTS.md (visible with pytest -s)."""
    print()
    print("== %s ==" % title)
    for row in rows:
        print("   " + " | ".join(str(cell) for cell in row))
