"""Tests of the benchmark itself (run: ``PYTHONPATH=src python -m pytest perfbench -q``).

They cover the seeded inputs, the percentile and self-time helpers, the
metric names against ``BENCHMARK.json``, and short real runs.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

from perfbench import inputs, measure
from perfbench.library import Library, LibrarySpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bundle(name: str, seed: int) -> dict:
    """Every wire input a workload sends, for byte comparison."""
    from perfbench import run

    work = run.WORKLOADS[name](seed)
    return {
        "library": [work.library.sender_xsd, work.library.receiver_xsd,
                    work.library.xml, work.library.k,
                    list(work.library.obligations)],
        "storm": list(itertools.islice(work.storm(), 40)),
        "oneshot": [work.oneshot.sender_xsd, work.oneshot.receiver_xsd,
                    work.oneshot_xml],
        "seeds": [work.cycle_seed(i) for i in range(3)]
        if work.cycle_seed else None,
    }


@pytest.mark.parametrize("name", ["digest", "gateway"])
def test_seed_gives_identical_inputs(name):
    first = json.dumps(_bundle(name, 3), sort_keys=True)
    assert first == json.dumps(_bundle(name, 3), sort_keys=True)
    other = _bundle(name, 4)
    assert json.dumps(other, sort_keys=True) != first
    assert other["library"][2] != _bundle(name, 3)["library"][2]


def test_digest_storm_changes_one_word_per_script():
    from repro.doc.document import Document
    from repro.incremental.edits import apply_edits, script_from_json

    original = Document.from_xml(inputs.digest_xml(5))
    words = [len(issue.children) for issue in original.root.children]
    assert len(set(words)) == inputs.DIGEST_ISSUES  # twenty distinct words
    assert inputs.DIGEST_MIN <= min(words)
    assert max(words) <= inputs.DIGEST_MAX
    document = original
    for step, wire in enumerate(itertools.islice(inputs.digest_storm(5),
                                                 200)):
        before = [len(issue.children) for issue in document.root.children]
        document, _ = apply_edits(document, script_from_json(wire))
        after = [len(issue.children) for issue in document.root.children]
        assert sum(a != b for a, b in zip(before, after)) == 1
        if step % 2 == 1:  # each insert is undone by the next script
            assert document.to_xml() == original.to_xml()


# -- percentile helper --------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert measure.percentile(samples, 0.9) == 90  # 10 samples beyond
    assert measure.percentile(samples, 0.95) is None  # only 5 beyond
    assert measure.percentile(list(range(1, 20)), 0.5) is None  # 9 beyond
    assert measure.percentile(list(range(1, 21)), 0.5) == 10


def test_percentile_ignores_ties_when_counting_beyond():
    samples = [1.0] * 50 + [2.0] * 5
    assert measure.percentile(samples, 0.5) is None


def test_tail_picks_the_highest_reportable_percentile():
    assert measure.tail(list(range(1, 1001))) == (0.99, 990, 1000)
    assert measure.tail(list(range(1, 101))) == (0.9, 90, 100)
    assert measure.tail(list(range(1, 41))) == (0.75, 30, 40)
    assert measure.tail(list(range(1, 20))) is None


# -- self-time accounting -----------------------------------------------------


def _span(span_id, parent, name, start, end, **attributes):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "start": start, "end": end, "attributes": attributes}


def test_self_times_sum_to_the_root():
    spans = [
        _span(1, None, "bench.dom", 0.0, 10.0),
        _span(2, 1, "bench.parse", 0.0, 2.0),
        _span(3, 1, "bench.enforce", 2.0, 9.0),
        _span(4, 3, "enforce", 2.1, 8.9),
        _span(5, 4, "document", 3.0, 8.0),
        _span(6, 5, "game", 4.0, 6.0),
        _span(7, 1, "bench.serialize", 9.0, 10.0),
    ]
    table = measure.self_times(spans)["bench.dom"]
    assert table["_total"] == pytest.approx(10.0)
    assert table["rewriting.game"] == pytest.approx(2.0)
    assert table["rewriting.engine"] == pytest.approx(3.0)
    assert table["schema.check"] == pytest.approx(0.2 + 1.8)
    assert sum(v for k, v in table.items() if k != "_total") == \
        pytest.approx(10.0)


def test_overlapping_children_are_not_double_counted():
    spans = [
        _span(1, None, "bench.stream", 0.0, 4.0),
        _span(2, 1, "document", 0.5, 3.0, stream=True),
        _span(3, 1, "game", 1.0, 3.5),  # overlaps its sibling
    ]
    table = measure.self_times(spans)["bench.stream"]
    assert table["stream.pass"] == pytest.approx(4.0 - 3.0)  # union 0.5..3.5
    assert table["stream.driver"] == pytest.approx(2.5)


def test_traced_dom_pass_self_times_sum_within_one_percent():
    from repro.obs.context import observing
    from repro.obs.trace import Tracer

    sender, receiver = inputs.magazine_schemas()
    spec = LibrarySpec(sender, receiver, inputs.magazine_xml(1, 20), 1, 1,
                       ("Get_Temp", "TimeOut"))
    tracer = Tracer(capacity=100_000)
    library = Library(spec, tracer=tracer)
    with observing(tracer):
        for _ in range(3):
            outcome, _xml = library.dom_pass()
            assert outcome.ok
    spans = [span.to_dict() for span in tracer.finished()]
    table = measure.self_times(spans)["bench.dom"]
    parts = sum(v for k, v in table.items() if k != "_total")
    assert abs(parts - table["_total"]) <= 0.01 * table["_total"]
    for layer in ("doc.parse", "doc.serialize", "schema.check",
                  "rewriting.engine", "services.invoke"):
        assert table.get(layer, 0.0) > 0.0, layer
    assert "other" not in table


# -- what BENCHMARK.json declares ---------------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_short_run_prints_every_declared_metric(trace, section):
    """One short gateway run per mode, on two seeds: same metric names,
    as BENCHMARK.json declares them, and no failed operation."""
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    names = []
    for seed in (1, 2):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", "gateway", "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = _last_json_line(done.stdout)
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == declared
        names.append(sorted(metrics))
    assert names[0] == names[1]
