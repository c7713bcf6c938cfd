"""The incremental enforcement session and its edit-script language.

Three layers under test:

- the typed edit language (:mod:`repro.incremental.edits`): application,
  inverses built from the removed node objects, wire-normal-form
  guards, typed path errors, and the JSON wire format;
- the session (:mod:`repro.incremental.session`): byte-identical
  receipts against fresh full enforcement, reuse accounting that tracks
  edit locality, atomic rejection of bad scripts;
- the invalidation **properties** of the ISSUE: edit + inverse restores
  the exact prior cached state (reachable cache snapshot), and
  interleaved edits on disjoint subtrees commute — same final outcome
  *and* the same cache accounting.
"""

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.compile import compiling
from repro.compile.cache import CompilationCache
from repro.conformance.fuzzer import fuzz_edit_scenario
from repro.doc.builder import call, el, text
from repro.doc.document import Document
from repro.doc.nodes import Element, Text
from repro.doc.normalize import normalize_document
from repro.incremental import (
    DocEdit,
    EditError,
    EditPathError,
    EditScriptError,
    apply_edit,
    apply_edits,
    delete,
    edit_from_json,
    edit_to_json,
    full_receipt,
    insert,
    replace,
    script_from_json,
    script_to_json,
    update_call,
)
from repro.obs import MetricsRegistry, observing
from repro.obs.metrics import work_snapshot
from repro.services.responders import sampling_invoker
from repro.workloads import newspaper


def fresh_enforcer(compile_cache=None):
    return SchemaEnforcer(
        target_schema=newspaper.schema_star2(),
        sender_schema=newspaper.schema_star(),
        k=1,
        mode="safe",
        compile_cache=compile_cache,
    )


def newspaper_invoker():
    def invoker(fc):
        if fc.name == "Get_Temp":
            return (el("temp", "15"),)
        if fc.name == "TimeOut":
            return (el("exhibit", el("title", "P"), el("date", "d")),)
        raise ValueError(fc.name)
    return invoker


class TestEditApplication:
    def test_insert_delete_replace_update(self):
        doc = newspaper.document()
        root = doc.root
        # replace the title
        new_title = el("title", "The Moon")
        edited, inverse = apply_edit(root, replace((0,), new_title))
        assert edited.children[0] == new_title
        assert inverse.op == "replace" and inverse.node is root.children[0]
        # delete then re-insert via the inverse
        removed, inv = apply_edit(root, delete((1,)))
        assert len(removed.children) == 3
        restored, _ = apply_edit(removed, inv)
        assert restored == root
        # update-call swaps the parameter forest only
        updated, inv = apply_edit(
            root, update_call((2,), (el("city", "Lyon"),))
        )
        assert updated.children[2].params == (el("city", "Lyon"),)
        assert updated.children[2].name == "Get_Temp"
        back, _ = apply_edit(updated, inv)
        assert back == root

    def test_inverse_reuses_removed_objects(self):
        root = newspaper.document().root
        target = root.children[2]
        edited, inverse = apply_edit(root, delete((2,)))
        assert inverse.node is target  # identity, not a copy
        restored, _ = apply_edit(edited, inverse)
        assert restored.children[2] is target

    def test_off_spine_subtrees_share_identity(self):
        root = newspaper.document().root
        edited, _ = apply_edit(root, replace((0,), el("title", "x")))
        for index in (1, 2, 3):
            assert edited.children[index] is root.children[index]

    def test_dangling_paths_are_typed(self):
        root = newspaper.document().root
        with pytest.raises(EditPathError):
            apply_edit(root, delete((9,)))
        with pytest.raises(EditPathError):
            apply_edit(root, replace((0, 5, 1), el("x")))
        with pytest.raises(EditPathError):
            apply_edit(root, update_call((0,), ()))  # not a call
        with pytest.raises(EditPathError):
            apply_edit(root, insert((0, 0, 0), el("x")))  # under a leaf

    def test_malformed_scripts_are_typed(self):
        with pytest.raises(EditScriptError):
            DocEdit("rename", (0,))
        with pytest.raises(EditScriptError):
            DocEdit("insert", (0,))  # node required
        with pytest.raises(EditScriptError):
            DocEdit("delete", ())  # cannot delete the root

    def test_mixed_content_guard(self):
        root = el("a", el("x"), el("y"))
        with pytest.raises(EditScriptError):
            apply_edit(root, insert((1,), text("words")))
        with pytest.raises(EditScriptError):
            apply_edit(root, replace((0,), text("words")))
        # ... but a text child standing alone is fine
        only = el("a", el("x"))
        edited, _ = apply_edit(only, replace((0,), text("words")))
        assert edited.children == (Text("words"),)

    def test_rejected_scripts_apply_atomically(self):
        doc = newspaper.document()
        script = (
            replace((0,), el("title", "changed")),
            delete((42,)),  # fails
        )
        with pytest.raises(EditPathError):
            apply_edits(doc, script)
        assert doc == newspaper.document()  # untouched


class TestWireFormat:
    def test_json_round_trip_all_ops(self):
        edits = (
            insert((1,), el("x", el("k", "v"))),
            delete((2, 0)),
            replace((0,), call("Get_Temp", el("city", "Paris"))),
            update_call((2,), (el("city", "Lyon"), text("plain"))),
        )
        wire = script_to_json(edits)
        import json

        assert script_from_json(json.loads(json.dumps(wire))) == edits

    def test_text_payloads_use_the_dict_form(self):
        payload = edit_to_json(update_call((0,), (text("bare"),)))
        assert payload["params"] == [{"text": "bare"}]
        assert edit_from_json(payload).params == (Text("bare"),)

    def test_fragments_with_calls_parse_standalone(self):
        edit = insert((0,), call("Get_Temp", el("city", "Paris")))
        again = edit_from_json(edit_to_json(edit))
        assert again.node.name == "Get_Temp"

    def test_malformed_wire_edits_are_typed(self):
        with pytest.raises(EditScriptError):
            edit_from_json({"op": "insert", "path": [0], "node": "<broken"})
        with pytest.raises(EditScriptError):
            edit_from_json({"op": "insert", "path": ["a"], "node": "<x/>"})
        with pytest.raises(EditScriptError):
            script_from_json([])
        with pytest.raises(EditScriptError):
            edit_from_json({"op": "update-call", "path": [0], "params": "x"})


class TestSessionEquivalence:
    def test_initial_pass_matches_full_enforcement(self):
        invoker = newspaper_invoker()
        session = fresh_enforcer().session(newspaper.document(), invoker)
        outcome = session.enforce()
        fresh = fresh_enforcer().enforce_document(
            newspaper.document(), newspaper_invoker()
        )
        assert outcome.receipt() == full_receipt(fresh)
        assert outcome.ok and not outcome.already_conformant

    def test_edited_passes_match_full_enforcement(self):
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        session.enforce()
        outcome = session.apply([replace((0,), el("title", "The Moon"))])
        fresh = fresh_enforcer().enforce_document(
            session.document, newspaper_invoker()
        )
        assert outcome.receipt() == full_receipt(fresh)
        assert outcome.edits_applied == 1

    def test_enforce_incremental_entry_point(self):
        enforcer = fresh_enforcer()
        session, outcomes = enforcer.enforce_incremental(
            newspaper.document(), newspaper_invoker(),
            edit_scripts=[
                [replace((0,), el("title", "A"))],
                [replace((1,), el("date", "05/10/2002"))],
            ],
        )
        assert len(outcomes) == 3  # initial + one per script
        assert all(o.ok for o in outcomes)
        assert session.passes == 3

    def test_unchanged_repass_reuses_everything(self):
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        first = session.enforce()
        assert first.nodes_reanalyzed > 0
        again = session.enforce()
        assert again.nodes_reanalyzed == 0
        assert again.nodes_reused > 0
        assert again.receipt() == first.receipt()

    def test_locality_of_reanalysis(self):
        # Touching one subtree re-analyzes the spine, not the document.
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        baseline = session.enforce().nodes_reanalyzed
        outcome = session.apply([replace((0,), el("title", "B"))])
        assert 0 < outcome.nodes_reanalyzed < baseline
        assert outcome.invocations_performed == 0  # calls untouched
        assert outcome.invocations_reused >= 1

    def test_session_error_paths_match_full(self):
        # An edit that breaks the schema beyond rewriting must produce
        # the byte-identical error a full enforcement reports.
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        session.enforce()
        outcome = session.apply([delete((0,))])  # no title: unfixable
        fresh = fresh_enforcer().enforce_document(
            session.document, newspaper_invoker()
        )
        assert not outcome.ok
        assert outcome.receipt() == full_receipt(fresh)
        # ... and the session recovers when the edit is undone
        assert session.undo().ok

    def test_rejected_script_leaves_session_untouched(self):
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        before = session.enforce()
        snapshot = session.cache_snapshot()
        with pytest.raises(EditError):
            session.apply([
                replace((0,), el("title", "ok")),
                delete((42,)),
            ])
        assert session.document == normalize_document(newspaper.document())
        assert session.cache_snapshot() == snapshot
        assert session.last_outcome.receipt() == before.receipt()


class TestInvalidationProperties:
    """The ISSUE's two session-invalidation properties, over fuzzed
    documents (seeded — deterministic in CI)."""

    SEEDS = (3, 7, 11, 19)

    def _session_for(self, seed):
        scenario = fuzz_edit_scenario(seed)
        base = scenario.base
        enforcer = SchemaEnforcer(
            target_schema=base.exchange_schema,
            sender_schema=base.sender_schema,
            k=base.k,
            mode="safe",
            compile_cache=CompilationCache(),
        )
        invoker = sampling_invoker(base.sender_schema, base.invoker_seed)
        document = normalize_document(base.document)
        return enforcer.session(document, invoker), scenario

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edit_plus_inverse_restores_cached_state(self, seed):
        session, scenario = self._session_for(seed)
        before = session.enforce()
        snapshot = session.cache_snapshot()
        document = session.document
        for script in scenario.scripts:
            try:
                session.apply(script)
            except EditError:
                continue  # rejected scripts are no-ops by the atomicity test
            restored = session.undo()
            assert session.document == document
            assert restored.receipt() == before.receipt()
            # The exact prior cached state is back: every prior
            # reachable subtree entry digests identically.  (When the
            # base pass short-circuited — already conformant, no
            # rewrite — the intermediate pass may leave *extra* warm
            # entries on shared subtrees; never different ones.)
            after = session.cache_snapshot()
            assert all(
                after.get(path) == digest
                for path, digest in snapshot.items()
            )
            if not before.already_conformant:
                assert after == snapshot
            # ... so the next pass replays without re-analyzing a node.
            assert session.enforce().nodes_reanalyzed == 0

    @pytest.mark.parametrize("pair", [(0, 3), (1, 5), (2, 4)])
    def test_disjoint_subtree_edits_commute(self, pair):
        from repro.workloads import magazine

        sender, receiver = magazine.schemas()
        first, second = pair
        # One structural edit and one call edit, under different
        # articles of a 6-article magazine (guaranteed disjoint spines).
        a = replace((first, 0), el("title", "retitled"))
        b = update_call((second, 2), (el("city", "Lyon"),))

        def run(order):
            enforcer = SchemaEnforcer(
                target_schema=receiver, sender_schema=sender, k=1,
                mode="safe", compile_cache=CompilationCache(),
            )
            s = enforcer.session(magazine.document(6), magazine.invoker)
            s.enforce()
            outcomes = [s.apply([edit]) for edit in order]
            accounting = [
                (o.nodes_reanalyzed, o.nodes_reused,
                 o.invocations_performed) for o in outcomes
            ]
            return s.document, outcomes[-1].receipt(), sorted(accounting)

        doc_ab, receipt_ab, acct_ab = run((a, b))
        doc_ba, receipt_ba, acct_ba = run((b, a))
        assert doc_ab == doc_ba
        assert receipt_ab == receipt_ba
        # Same cache accounting in either order: the edits touch
        # disjoint spines, so neither invalidates the other's work.
        assert acct_ab == acct_ba


class TestReuseIntrospection:
    def test_reuse_totals_accumulate(self):
        session = fresh_enforcer().session(
            newspaper.document(), newspaper_invoker()
        )
        session.enforce()
        session.apply([replace((0,), el("title", "C"))])
        totals = session.reuse_totals()
        assert totals["passes"] == 2
        assert totals["edits_applied"] == 1
        assert totals["invocations_performed"] >= 1
        assert totals["invocations_reused"] >= 1

    def test_metrics_counters_emitted(self):
        from repro.obs.context import observing
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        registry = MetricsRegistry()
        with observing(Tracer(), registry):
            session = fresh_enforcer().session(
                newspaper.document(), newspaper_invoker()
            )
            session.enforce()
            session.apply([replace((0,), el("title", "D"))])
        text = registry.to_prometheus()
        assert 'repro_incremental_nodes_total{outcome="reanalyzed"}' in text
        assert 'repro_incremental_nodes_total{outcome="reused"}' in text
        assert 'repro_incremental_passes_total{outcome="ok"}' in text
        assert "repro_incremental_edits_total 1" in text


def _pass_counters(outcome):
    return (
        outcome.receipt(), outcome.nodes_reanalyzed, outcome.nodes_reused,
        outcome.subtree_nodes_reused, outcome.verify_checked,
        outcome.verify_reused, outcome.invocations_performed,
        outcome.invocations_reused,
    )


def _magazine_session(articles):
    from repro.incremental import bench as storm_bench
    from repro.workloads import magazine

    sender, receiver = magazine.schemas()
    enforcer = SchemaEnforcer(
        target_schema=receiver, sender_schema=sender, k=1, mode="safe",
        compile_cache=CompilationCache(),
    )
    session = enforcer.session(magazine.document(articles), magazine.invoker)
    return session, storm_bench


class TestSessionCache:
    def test_second_session_does_no_game_work(self):
        """A cache-less enforcer's sessions share the ambient compile
        cache: the second session's first pass solves no game."""

        def game_nodes(run):
            registry = MetricsRegistry()
            with observing(metrics=registry):
                outcome = run()
            assert outcome.ok
            return sum(
                amount for sample, amount in work_snapshot(registry).items()
                if 'stage="game"' in sample
                and 'counter="product_nodes"' in sample
            )

        enforcer = fresh_enforcer()
        with compiling(CompilationCache()):
            passes = [
                game_nodes(
                    lambda: enforcer.session(
                        newspaper.document(), newspaper_invoker()
                    ).enforce()
                )
                for _ in range(2)
            ]
        assert passes[0] > 0
        assert passes[1] == 0


class TestMemoSweep:
    """Session memos are swept down to the live trees' nodes."""

    def test_memos_stay_bounded_over_a_storm(self):
        import random

        session, storm_bench = _magazine_session(8)
        session.enforce()
        storm = storm_bench._storm(random.Random("sweep-storm"), 8, 5000)
        # One edit rebuilds one spine in the source and one in the
        # enforced document.
        spine = session.document.depth() + session.enforced.depth()
        swept = 0
        for index, edit in enumerate(storm):
            session.apply([edit])
            if index % 7 == 6:
                session.undo()
            live = len(session.live_ids())
            for memo in (session._engine._memo, session._verify._memo):
                assert len(memo) <= 2 * live + spine, (index, len(memo), live)
            swept += session.live_nodes == live
        assert swept > 10

    def test_sweeping_every_pass_changes_no_counter(self):
        import random

        from repro.conformance.fuzzer import fuzz_edit_scenario

        def run(sweep_each_pass, make_session, steps):
            session = make_session()
            sequence = [_pass_counters(session.enforce())]
            for step in steps:
                sequence.append(_pass_counters(step(session)))
                if sweep_each_pass:
                    session._sweep()
            return sequence

        storm = _magazine_session(6)[1]._storm(
            random.Random("sweep-exact"), 6, 60
        )
        steps = []
        for index, edit in enumerate(storm):
            steps.append(lambda session, edit=edit: session.apply([edit]))
            if index % 5 == 4:
                steps.append(lambda session: session.undo())
        kept = run(False, lambda: _magazine_session(6)[0], steps)
        assert run(True, lambda: _magazine_session(6)[0], steps) == kept

        for seed in range(12):
            scenario = fuzz_edit_scenario(seed)
            base = scenario.base

            def make_session(base=base):
                enforcer = SchemaEnforcer(
                    target_schema=base.exchange_schema,
                    sender_schema=base.sender_schema,
                    k=base.k, mode=base.mode,
                    compile_cache=CompilationCache(),
                )
                return enforcer.session(
                    base.document,
                    sampling_invoker(base.sender_schema, base.invoker_seed),
                )

            steps = [
                lambda session, script=script: session.apply(script)
                for script in scenario.scripts
            ] + [lambda session: session.undo()]
            kept = run(False, make_session, steps)
            assert run(True, make_session, steps) == kept, seed


class TestSubtreeSizes:
    """``subtree_nodes_reused`` costs no walk of the document."""

    def test_an_edit_never_walks_the_root(self, monkeypatch):
        import random

        from repro.incremental import session as session_module

        session, storm_bench = _magazine_session(200)
        session.enforce()
        walked = []
        tree_size = session_module.tree_size

        def recording_tree_size(node):
            walked.append(node)
            return tree_size(node)

        monkeypatch.setattr(session_module, "tree_size", recording_tree_size)
        storm = storm_bench._storm(random.Random("size-storm"), 200, 20)
        for edit in storm:
            outcome = session.apply([edit])
            assert outcome.ok and outcome.subtree_nodes_reused > 0
            root = session.document.root
            assert all(node is not root for node in walked)
        # Only entries being reused for the first time are counted, and
        # an edit reuses whole articles, never the magazine.
        assert sum(map(tree_size, walked)) < 20 * tree_size(root) // 10


def deep_chain(depth):
    """``<a><a>…</a></a>``, ``depth`` elements deep."""
    node = el("a")
    for _ in range(depth - 1):
        node = el("a", node)
    return Document(node)


class TestDeepDocuments:
    def test_session_verifies_a_deep_conformant_document(self):
        # Normalization and the conformance memo walk iteratively, so a
        # session accepts what enforce_document and enforce_stream do.
        from repro.schema import SchemaBuilder

        schema = SchemaBuilder().element("a", "a?").root("a").build()
        enforcer = SchemaEnforcer(schema, compile_cache=CompilationCache())
        document = deep_chain(1500)
        session = enforcer.session(document, lambda fc: ())
        outcome = session.enforce()
        full = enforcer.enforce_document(document, lambda fc: ())
        assert outcome.ok and outcome.already_conformant
        assert outcome.receipt() == full_receipt(full)
        assert (outcome.verify_checked, outcome.verify_reused) == (1500, 0)
        again = session.enforce()
        assert (again.verify_checked, again.verify_reused) == (0, 1)

    def test_a_deep_document_needing_a_call_enforces_on_every_path(self):
        # 2,000 levels above one call: the driver keeps its own stack, so
        # the DOM pass, the session and the stream all enforce it, with
        # the same bytes and receipt.
        from repro.rewriting.engine import RewriteEngine
        from repro.schema import SchemaBuilder

        depth = 2000
        sender = (
            SchemaBuilder().element("a", "a | F").element("x", "data")
            .function("F", "data", "x").root("a").build()
        )
        receiver = (
            SchemaBuilder().element("a", "a | x").element("x", "data")
            .root("a").build()
        )
        node = el("a", call("F", text("v")))
        for _ in range(depth - 1):
            node = el("a", node)
        document = Document(node)

        def invoker(fc):
            return (el("x", "1"),)

        cache = CompilationCache()
        result = RewriteEngine(receiver, sender, compile_cache=cache).rewrite(
            document, invoker
        )
        assert result.calls_made == 1
        enforcer = SchemaEnforcer(receiver, sender, compile_cache=cache)
        full = enforcer.enforce_document(document, invoker)
        assert full.ok and full.calls_made == 1
        assert full.document.to_xml() == result.document.to_xml()
        outcome = enforcer.session(document, invoker).enforce()
        assert outcome.receipt() == full_receipt(full)

        parts = []
        streamed = enforcer.enforce_stream(
            document.to_xml(), invoker, parts.append
        )
        assert streamed.ok and streamed.calls_made == 1
        assert "".join(parts) == full.document.to_xml()
        leaf = full.document.root
        for _ in range(depth - 1):
            (leaf,) = leaf.children
        assert leaf == el("a", el("x", "1"))
