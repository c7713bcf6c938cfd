"""Command-line interface: validate, rewrite and compare on files.

A thin, scriptable front end over the library, mirroring how the paper's
Schema Enforcement module would be driven operationally:

- ``validate`` — is a document (``int:`` XML) an instance of a schema
  (XML Schema_int)?
- ``rewrite`` — materialize a document into an exchange schema; since
  the CLI has no live services, calls are served by a *sampling*
  responder seeded from ``--seed`` (deterministic), drawing outputs from
  the declared signatures;
- ``compat`` — the Section 6 check between two schema files;
- ``inspect`` — document statistics (size, depth, embedded calls);
- ``figures`` — regenerate the paper's automata figures as Graphviz DOT;
- ``stats`` — render a trace captured with ``rewrite --trace`` as a span
  tree;
- ``profile`` — aggregate such a trace into a deterministic call-tree
  profile with per-phase (compile/determinize/product/game/materialize)
  attribution;
- ``bench`` — run the named benchmark suite, emit ``BENCH_<name>.json``
  trajectory files, and fail on deterministic work-counter regressions;
- ``fuzz`` — the differential conformance harness: fuzz seeded
  scenarios through the engine configuration matrix and the reference
  interpreter, freeze shrunk failures as corpus entries, replay them.

Usage::

    python -m repro.cli validate doc.xml schema.xsd
    python -m repro.cli rewrite doc.xml sender.xsd exchange.xsd -o out.xml
    python -m repro.cli rewrite doc.xml s.xsd e.xsd --trace t.jsonl --metrics -
    python -m repro.cli compat sender.xsd exchange.xsd --k 2
    python -m repro.cli inspect doc.xml
    python -m repro.cli figures out/
    python -m repro.cli stats t.jsonl
    python -m repro.cli profile t.jsonl --json profile.json
    python -m repro.cli bench --smoke --out bench-out
    python -m repro.cli fuzz --seeds 200
    python -m repro.cli fuzz --replay tests/corpus
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
from typing import List, Optional

from repro.axml.enforcement import SchemaEnforcer
from repro.doc.document import Document
from repro.errors import ReproError, TransientFault
from repro.schema.generator import InstanceGenerator
from repro.schema.model import Schema
from repro.schema.validate import validate
from repro.schemarewrite.compat import schema_safely_rewrites
from repro.services.resilience import ResiliencePolicy, ResilientInvoker
from repro.services.responders import sampling_invoker
from repro.xschema.compile import compile_xschema
from repro.xschema.parser import parse_xschema


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_schema(path: str, root: Optional[str] = None) -> Schema:
    return compile_xschema(parse_xschema(_read(path), root=root))


def _effective_workers(args) -> int:
    """The worker count the engine will resolve (flag, else env, else 1)."""
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def _sampling_invoker(schema: Schema, seed: int, per_call: bool = False):
    """Serve calls by sampling output instances of declared signatures.

    The default draws from one sequential RNG stream — byte-compatible
    with earlier releases, but dependent on invocation *order*.  With
    ``per_call`` each call's output is drawn from an RNG derived from
    ``(seed, call fingerprint)`` instead, so results do not depend on
    scheduling — which is what makes ``rewrite --workers N``
    deterministic and output-identical at any worker count.
    """
    if per_call:
        return sampling_invoker(schema, seed)
    generator = InstanceGenerator(schema, random.Random(seed), max_depth=4)

    def invoker(fc):
        if schema.output_type(fc.name) is None:
            raise ReproError(
                "no signature for %r in the sender schema" % fc.name
            )
        return generator.output_forest(fc.name)

    return invoker


def cmd_validate(args) -> int:
    document = Document.from_xml(_read(args.document))
    schema = _load_schema(args.schema)
    report = validate(document, schema, strict=not args.lenient)
    if report.ok:
        print("valid")
        return 0
    print("INVALID:")
    for violation in report.violations:
        print("  " + str(violation))
    return 1


def _resilient_invoker(args, invoker):
    """Wrap the sampling invoker per the CLI's resilience knobs.

    ``--flaky N`` injects a transient fault on every Nth call; any of the
    other knobs (or an injection) enables the resilient layer.
    """
    if args.flaky:
        inner, counter = invoker, {"calls": 0}
        counter_lock = threading.Lock()  # workers share the injection count

        def invoker(fc):
            with counter_lock:
                counter["calls"] += 1
                calls = counter["calls"]
            if calls % args.flaky == 0:
                raise TransientFault("injected outage (call #%d)" % calls)
            return inner(fc)

    wanted = (
        args.flaky
        or args.retries is not None
        or args.call_budget is not None
        or args.call_timeout is not None
        or args.document_deadline is not None
    )
    if not wanted:
        return invoker, None
    retries = 3 if args.retries is None else args.retries
    policy = ResiliencePolicy(
        max_attempts=retries + 1,
        jitter_seed=args.jitter_seed,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        call_budget=args.call_budget,
        call_timeout=args.call_timeout,
        document_deadline=args.document_deadline,
    )
    resilient = ResilientInvoker(invoker, policy)
    return resilient, resilient


def _compile_cache_option(args):
    """Resolve ``--compile-cache``: None = ambient, off-ish = disabled,
    anything else = a persistence directory for compiled artifacts."""
    from repro.compile import DISABLED, CompilationCache

    value = getattr(args, "compile_cache", None)
    if value is None:
        return None
    if value.strip().lower() in ("off", "0", "false", "no", "disabled"):
        return DISABLED
    return CompilationCache(persist_dir=value)


def _file_chunks(path: str, size: int = 1 << 16):
    """Yield a document's bytes in bounded chunks (streaming input)."""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(size)
            if not chunk:
                return
            yield chunk


def _cmd_rewrite_stream(args) -> int:
    """``rewrite --stream``: bounded-memory single-pass enforcement.

    The document is never fully materialized: the file is read in
    chunks, children words are rewritten as their elements close, and
    the enforced serialization is written out while the tail is still
    being parsed.  Output bytes match the DOM path exactly; on error a
    partial prefix may already be out, so a ``--output`` file is removed.
    """
    if args.mode == "possible":
        print("FAILED: --stream supports safe/auto modes only",
              file=sys.stderr)
        return 2
    sender = _load_schema(args.sender_schema)
    exchange = _load_schema(args.exchange_schema)
    enforcer = SchemaEnforcer(
        exchange, sender, k=args.k, mode=args.mode,
        workers=args.workers, dedup=args.dedup,
        compile_cache=_compile_cache_option(args),
    )
    invoker, resilient = _resilient_invoker(
        args, _sampling_invoker(sender, args.seed, per_call=True)
    )
    source = _file_chunks(args.document)
    if args.output:
        sink = open(args.output, "w", encoding="utf-8")
        write = sink.write
    else:
        sink = None
        write = sys.stdout.write
    try:
        outcome = enforcer.enforce_stream(source, invoker, write)
    except BaseException:
        if sink is not None:
            sink.close()
            os.remove(args.output)  # discard the partial prefix
        raise
    finally:
        if sink is not None:
            sink.close()
    if resilient is not None:
        print("resilience: %s" % resilient.report.summary(), file=sys.stderr)
    if not outcome.ok:
        if args.output:
            os.remove(args.output)  # discard the partial prefix
        print("FAILED: %s" % outcome.error, file=sys.stderr)
        return 1
    if not args.output:
        sys.stdout.write("\n")
    print(
        "rewritten with %d call(s): %s"
        % (outcome.calls_made, ", ".join(outcome.log.invoked) or "none"),
        file=sys.stderr,
    )
    print(
        "analysis cache: %d hit(s), %d miss(es)"
        % (outcome.cache_hits, outcome.cache_misses),
        file=sys.stderr,
    )
    if outcome.degraded_functions:
        print(
            "degraded around unavailable function(s): %s"
            % ", ".join(outcome.degraded_functions),
            file=sys.stderr,
        )
    return 0


def cmd_rewrite(args) -> int:
    from repro.compile import context as compile_context
    from repro.obs import MetricsRegistry, Tracer, observing

    if args.stream:
        return _cmd_rewrite_stream(args)
    document = Document.from_xml(_read(args.document))
    sender = _load_schema(args.sender_schema)
    exchange = _load_schema(args.exchange_schema)
    workers = _effective_workers(args)
    compile_cache = _compile_cache_option(args)
    enforcer = SchemaEnforcer(
        exchange, sender, k=args.k, mode=args.mode,
        workers=args.workers, dedup=args.dedup,
        compile_cache=compile_cache,
    )
    effective_cache = (
        compile_cache if compile_cache is not None else compile_context.cache()
    )
    compile_before = effective_cache.stats()
    invoker, resilient = _resilient_invoker(
        args, _sampling_invoker(sender, args.seed, per_call=workers > 1)
    )
    observe = args.trace or args.metrics
    tracer, registry = Tracer(), MetricsRegistry()
    if observe:
        with observing(tracer, registry):
            outcome = enforcer.enforce_document(document, invoker)
    else:
        outcome = enforcer.enforce_document(document, invoker)
    if args.trace:
        tracer.export_jsonl(args.trace)
        print("trace: %d span(s) -> %s" % (len(tracer.finished()), args.trace),
              file=sys.stderr)
    if args.metrics:
        text = registry.to_prometheus()
        if args.metrics == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(text)
            print("metrics -> %s" % args.metrics, file=sys.stderr)
    if resilient is not None:
        print("resilience: %s" % resilient.report.summary(), file=sys.stderr)
    if not outcome.ok:
        print("FAILED: %s" % outcome.error, file=sys.stderr)
        return 1
    xml = outcome.document.to_xml()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(xml)
    else:
        print(xml)
    print(
        "rewritten with %d call(s): %s"
        % (outcome.calls_made, ", ".join(outcome.log.invoked) or "none"),
        file=sys.stderr,
    )
    print(
        "analysis cache: %d hit(s), %d miss(es)"
        % (outcome.cache_hits, outcome.cache_misses),
        file=sys.stderr,
    )
    if effective_cache.enabled:
        print(
            "compile cache: %s" % _compile_delta(
                compile_before, effective_cache.stats()
            ),
            file=sys.stderr,
        )
    else:
        print("compile cache: off", file=sys.stderr)
    if outcome.exec_report is not None:
        print(outcome.exec_report.summary(), file=sys.stderr)
    if outcome.degraded_functions:
        print(
            "degraded around unavailable function(s): %s"
            % ", ".join(outcome.degraded_functions),
            file=sys.stderr,
        )
    return 0


def _compile_delta(before, after) -> str:
    """This run's share of the compilation-cache accounting."""
    from repro.compile import CacheStats

    delta = CacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        evictions=after.evictions - before.evictions,
        entries=after.entries,
        interned=after.interned,
        persist_hits=after.persist_hits - before.persist_hits,
        persist_misses=after.persist_misses - before.persist_misses,
        persist_errors=after.persist_errors - before.persist_errors,
    )
    return delta.summary()


def cmd_compat(args) -> int:
    sender = _load_schema(args.sender_schema, root=args.root)
    receiver = _load_schema(args.exchange_schema)
    report = schema_safely_rewrites(
        sender, receiver, root=args.root, k=args.k
    )
    print(report)
    return 0 if report.compatible else 1


def cmd_figures(args) -> int:
    """Regenerate the paper's automata figures as Graphviz DOT files."""
    import os

    from repro.automata.dfa import complete, determinize
    from repro.automata.dot import dfa_to_dot, expansion_to_dot, product_to_dot
    from repro.automata.glushkov import glushkov_nfa
    from repro.regex.parser import parse_regex
    from repro.rewriting.expansion import build_expansion
    from repro.rewriting.lazy import analyze_safe_lazy
    from repro.rewriting.safe import (
        analyze_safe,
        problem_alphabet,
        target_complement,
    )

    word = ("title", "date", "Get_Temp", "TimeOut")
    outputs = {
        "Get_Temp": parse_regex("temp"),
        "TimeOut": parse_regex("(exhibit | performance)*"),
    }
    target2 = parse_regex("title.date.temp.(TimeOut | exhibit*)")
    target3 = parse_regex("title.date.temp.exhibit*")

    os.makedirs(args.output_dir, exist_ok=True)
    alphabet2 = problem_alphabet(word, outputs, target2)
    alphabet3 = problem_alphabet(word, outputs, target3)
    figures = {
        "fig4_awk.dot": expansion_to_dot(
            build_expansion(word, outputs, k=1),
            "Figure 4: A_w^1 for title.date.Get_Temp.TimeOut",
        ),
        "fig5_complement_star2.dot": dfa_to_dot(
            target_complement(target2, alphabet2),
            "Figure 5: complement of (**)",
        ),
        "fig6_product_star2.dot": product_to_dot(
            analyze_safe(word, outputs, target2, k=1),
            "Figure 6: marked product for (**) — safe",
        ),
        "fig7_complement_star3.dot": dfa_to_dot(
            target_complement(target3, alphabet3),
            "Figure 7: complement of (***)",
        ),
        "fig8_product_star3.dot": product_to_dot(
            analyze_safe(word, outputs, target3, k=1),
            "Figure 8: marked product for (***) — unsafe",
        ),
        "fig10_target_star3.dot": dfa_to_dot(
            complete(determinize(glushkov_nfa(target3), alphabet3)),
            "Figure 10: automaton A for (***)",
        ),
        "fig12_lazy_star2.dot": product_to_dot(
            analyze_safe_lazy(word, outputs, target2, k=1),
            "Figure 12: lazily explored product (pruned regions absent)",
        ),
    }
    for name, dot in figures.items():
        path = os.path.join(args.output_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        print("wrote %s" % path)
    return 0


def cmd_stats(args) -> int:
    """Render a JSONL trace (from ``rewrite --trace``) as a span tree."""
    from repro.obs import render_span_dicts, spans_from_jsonl

    spans = spans_from_jsonl(_read(args.trace))
    if not spans:
        print("no spans in %s" % args.trace, file=sys.stderr)
        return 1
    print(render_span_dicts(spans))
    print("%d span(s), %.3fs total in root span(s)" % (
        len(spans),
        sum(
            span.get("duration") or 0.0
            for span in spans
            if span.get("parent_id") is None
        ),
    ), file=sys.stderr)
    compile_spans = [
        span for span in spans
        if str(span.get("name", "")).startswith("compile.")
    ]
    if compile_spans:
        print("compile: %d artifact build(s), %.3fs" % (
            len(compile_spans),
            sum(span.get("duration") or 0.0 for span in compile_spans),
        ), file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    """Aggregate a JSONL trace into a flame-style call-tree profile."""
    from repro.obs import profile_spans, spans_from_jsonl

    spans = spans_from_jsonl(_read(args.trace))
    if not spans:
        print("no spans in %s" % args.trace, file=sys.stderr)
        return 1
    profile = profile_spans(spans)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(profile.to_json())
        print("profile -> %s" % args.json, file=sys.stderr)
    print(profile.render(max_depth=args.max_depth))
    return 0


def cmd_bench(args) -> int:
    """Run named benchmarks; diff work counters against the trajectory.

    Exit codes: 0 — no counter regressions (or nothing to compare);
    1 — at least one deterministic counter regressed beyond the
    threshold; 2 — operational error.
    """
    from repro.obs import bench as bench_mod

    if args.list:
        for name, bench in bench_mod.BENCHES.items():
            summary = (bench.__doc__ or "").strip().splitlines()
            print("%-16s %s" % (name, summary[0] if summary else ""))
        return 0
    names = args.names or list(bench_mod.BENCHES)
    unknown = [name for name in names if name not in bench_mod.BENCHES]
    if unknown:
        print("error: unknown bench(es): %s (have: %s)"
              % (", ".join(unknown), ", ".join(bench_mod.BENCHES)),
              file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get("REPRO_BENCH_DIR", ".")
    failures = 0
    for name in names:
        payload = bench_mod.run_bench(name, smoke=args.smoke)
        baseline_dir = args.baseline or out_dir
        baseline_path = os.path.join(
            baseline_dir, bench_mod.bench_filename(name)
        )
        # Read the baseline before the write below replaces it.
        regressions = bench_mod.compare_against(
            payload, baseline_path, threshold=args.threshold
        )
        path = bench_mod.write_payload(payload, out_dir)
        wall = ", ".join(
            "%s=%.3fs" % (key, value)
            for key, value in sorted(payload.items())
            if key.endswith("_seconds") and isinstance(value, float)
        )
        print("%s -> %s%s" % (name, path, " (%s)" % wall if wall else ""))
        if regressions is None:
            print("  no comparable baseline (first run, or smoke flag "
                  "differs)")
            continue
        if not regressions:
            print("  no counter regressions vs %s" % baseline_path)
            continue
        failures += 1
        print("  REGRESSIONS vs %s:" % baseline_path)
        for line in regressions:
            print("    " + line)
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Run the exchange gateway until interrupted (SIGINT/SIGTERM).

    Exits 0 after a graceful drain; 2 on startup failure (port in use,
    unreadable registry or snapshot).
    """
    import asyncio
    import signal

    from repro.gateway import Gateway, GatewayConfig

    config = GatewayConfig(
        host=args.host,
        port=args.port,
        registry_path=args.registry,
        queue_limit=args.queue_limit,
        per_peer_limit=args.per_peer,
        pool_size=args.pool,
        engine_workers=args.workers,
        max_body_bytes=args.max_body,
        default_deadline=args.deadline,
        k=args.k,
        mode=args.mode,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        compile_cache_dir=args.compile_cache,
    )
    gateway = Gateway(config=config)
    if args.snapshot:
        with open(args.snapshot, "rb") as handle:
            blob = handle.read()
        try:
            imported = gateway.compile_cache.import_snapshot(blob)
        except ValueError as error:
            print("error: bad snapshot %s: %s" % (args.snapshot, error),
                  file=sys.stderr)
            return 2
        print("warm-start: %d compiled artifact(s) from %s"
              % (imported, args.snapshot), file=sys.stderr)
    if gateway.registry.load_errors:
        for note in gateway.registry.load_errors:
            print("registry warning: %s" % note, file=sys.stderr)

    async def run() -> int:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop; ctrl-C still raises KeyboardInterrupt
        try:
            await gateway.start()
        except OSError as error:
            print("error: cannot bind %s:%d: %s"
                  % (config.host, config.port, error), file=sys.stderr)
            return 2
        print("gateway listening on http://%s:%d (%d peer(s) registered)"
              % (config.host, gateway.port, len(gateway.registry.names())))
        sys.stdout.flush()
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        print("draining...", file=sys.stderr)
        await gateway.stop(drain=True)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_fuzz(args) -> int:
    """Differential conformance fuzzing (and corpus replay).

    Exit codes: 0 — every scenario agreed across the configuration
    matrix and with the reference interpreter; 1 — at least one
    disagreement (each is shrunk and frozen under ``--corpus-dir``
    unless ``--self-test``); 2 — operational error.
    """
    from repro.conformance import corpus as corpus_mod
    from repro.conformance import differential, fuzzer

    if args.replay:
        failures = 0
        entries = 0
        for target in args.replay:
            for path in corpus_mod.corpus_paths(target):
                entries += 1
                found = corpus_mod.replay_entry(corpus_mod.load_entry(path))
                if found:
                    failures += 1
                    print("REPLAY FAILED: %s" % path)
                    for disagreement in found:
                        print("  " + str(disagreement))
        print("replayed %d corpus entr%s, %d failure(s)"
              % (entries, "y" if entries == 1 else "ies", failures))
        return 1 if failures else 0

    if getattr(args, "edits", False):
        args.kind = "edits"
    matrix = (
        differential.SELF_TEST_MATRIX if args.self_test
        else differential.DEFAULT_MATRIX
    )
    report = differential.DifferentialReport()
    failures = 0
    for seed in range(args.start, args.start + args.seeds):
        before = len(report.disagreements)
        differential.run_seed(
            seed, kind=args.kind, matrix=matrix,
            invert_reference=args.self_test, report=report,
        )
        fresh = report.disagreements[before:]
        if not fresh:
            continue
        failures += 1
        for disagreement in fresh:
            print("DISAGREEMENT: %s" % disagreement)
        if not args.self_test:
            for path in _freeze_failures(args, seed, fresh, matrix):
                print("  corpus entry -> %s" % path)
        if failures >= args.max_failures:
            print("stopping after %d failing seed(s)" % failures,
                  file=sys.stderr)
            break
    print(report.summary())
    if args.self_test:
        detected = not report.ok
        print("self-test: harness %s the injected divergence"
              % ("DETECTED" if detected else "MISSED"))
        return 1 if detected else 2
    return 0 if report.ok else 1


def _freeze_failures(args, seed: int, fresh, matrix) -> List[str]:
    """Shrink each failing scenario of one seed and write corpus entries."""
    from repro.conformance import corpus as corpus_mod
    from repro.conformance import differential, fuzzer

    paths: List[str] = []
    kinds = {disagreement.kind for disagreement in fresh}
    note = "; ".join(str(d) for d in fresh[:3])
    if "word" in kinds:
        scenario = fuzzer.fuzz_word_scenario(seed)

        def word_fails(candidate) -> bool:
            return bool(differential.run_word_scenario(candidate)[0])

        scenario = corpus_mod.shrink_word_scenario(scenario, word_fails)
        paths.append(corpus_mod.save_entry(
            args.corpus_dir, corpus_mod.word_entry(scenario, note=note)
        ))
    if "document" in kinds:
        scenario = fuzzer.fuzz_document_scenario(seed)

        def document_fails(candidate) -> bool:
            return bool(
                differential.run_document_scenario(candidate, matrix)
            )

        scenario = corpus_mod.shrink_document_scenario(
            scenario, document_fails
        )
        paths.append(corpus_mod.save_entry(
            args.corpus_dir, corpus_mod.document_entry(scenario, note=note)
        ))
    if "edits" in kinds:
        scenario = fuzzer.fuzz_edit_scenario(seed)

        def edits_fail(candidate) -> bool:
            return bool(differential.run_edit_scenario(candidate))

        scenario = corpus_mod.shrink_edit_scenario(scenario, edits_fail)
        paths.append(corpus_mod.save_entry(
            args.corpus_dir, corpus_mod.edit_entry(scenario, note=note)
        ))
    return paths


def cmd_inspect(args) -> int:
    document = Document.from_xml(_read(args.document))
    calls = [fc.name for _path, fc in document.function_nodes()]
    print("root      : %s" % document.root_symbol)
    print("nodes     : %d" % document.size())
    print("depth     : %d" % document.depth())
    print("calls     : %d%s" % (
        len(calls), " (%s)" % ", ".join(calls) if calls else ""))
    print("extensional: %s" % document.is_extensional())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exchange intensional XML data (SIGMOD 2003 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document against a schema")
    p.add_argument("document")
    p.add_argument("schema")
    p.add_argument("--lenient", action="store_true",
                   help="allow undeclared labels (Definition 3 literally)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rewrite", help="materialize into an exchange schema")
    p.add_argument("document")
    p.add_argument("sender_schema")
    p.add_argument("exchange_schema")
    p.add_argument("-o", "--output", help="write result here (default stdout)")
    p.add_argument("--k", type=int, default=1, help="depth bound (Def. 7)")
    p.add_argument("--mode", choices=["safe", "possible", "auto"],
                   default="safe")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the simulated service outputs")
    p.add_argument("--flaky", type=int, default=0, metavar="N",
                   help="inject a transient fault on every Nth call")
    p.add_argument("--retries", type=int, default=None,
                   help="retries per call on transient faults "
                        "(default 3 once the resilient layer is enabled)")
    p.add_argument("--jitter-seed", type=int, default=0,
                   help="seed for deterministic backoff jitter")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive faults before a breaker opens")
    p.add_argument("--breaker-cooldown", type=float, default=1.0,
                   help="seconds an open breaker waits before half-open")
    p.add_argument("--call-budget", type=int, default=None,
                   help="max invocation attempts for the whole document")
    p.add_argument("--call-timeout", type=float, default=None,
                   help="per-attempt timeout (simulated clock)")
    p.add_argument("--document-deadline", type=float, default=None,
                   help="deadline for the whole document (simulated clock)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker threads for concurrent call "
                        "materialization (default: $REPRO_WORKERS or 1; "
                        "parallel runs sample service outputs per call, "
                        "so output is identical at any worker count)")
    p.add_argument("--dedup", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="deduplicate identical in-flight calls while "
                        "prefetching (default: $REPRO_DEDUP or on)")
    p.add_argument("--trace", metavar="PATH",
                   help="export a JSONL span trace of the rewrite here")
    p.add_argument("--metrics", metavar="PATH",
                   help="export Prometheus-format metrics here ('-' = stdout)")
    p.add_argument("--compile-cache", metavar="DIR|off", default=None,
                   help="automata compilation cache: 'off' disables it, a "
                        "directory persists compiled artifacts across runs "
                        "(default: in-memory process cache, or "
                        "$REPRO_COMPILE_CACHE)")
    p.add_argument("--stream", action="store_true",
                   help="single-pass streaming enforcement: parse, rewrite "
                        "and emit incrementally with memory bounded by "
                        "document depth (safe/auto modes; simulated service "
                        "outputs are sampled per call as with --workers N, "
                        "and the output is byte-identical to such a run)")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("compat", help="Section 6 schema compatibility")
    p.add_argument("sender_schema")
    p.add_argument("exchange_schema")
    p.add_argument("--root", help="root label (default: schema's own)")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser(
        "figures", help="regenerate the paper's automata figures (DOT)"
    )
    p.add_argument("output_dir", nargs="?", default="figures")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing and corpus replay",
    )
    p.add_argument("--seeds", type=int, default=25, metavar="N",
                   help="number of seeds to fuzz (default 25)")
    p.add_argument("--start", type=int, default=0, metavar="S",
                   help="first seed (default 0)")
    p.add_argument("--kind", choices=["word", "document", "edits", "all"],
                   default="all",
                   help="scenario family to generate (default all; "
                        "'edits' runs the incremental-vs-full edit "
                        "oracle over the edit matrix)")
    p.add_argument("--edits", action="store_true",
                   help="shorthand for --kind edits")
    p.add_argument("--replay", nargs="+", metavar="PATH",
                   help="replay corpus entries (files or directories) "
                        "instead of fuzzing")
    p.add_argument("--corpus-dir", default="tests/corpus",
                   help="where shrunk failures are frozen "
                        "(default tests/corpus)")
    p.add_argument("--max-failures", type=int, default=5,
                   help="stop after this many failing seeds (default 5)")
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one configuration and invert the reference "
                        "verdicts; exits 1 when the harness catches it "
                        "(proving divergences cannot slip through)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the exchange gateway (schema enforcement as a service)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8374,
                   help="TCP port (0 = ephemeral; default 8374)")
    p.add_argument("--registry", metavar="PATH", default=None,
                   help="JSON peer-registry file, persisted atomically "
                        "(default: in-memory only)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="admitted (queued + running) request cap "
                        "(default 256; beyond it requests shed with 503)")
    p.add_argument("--per-peer", type=int, default=8,
                   help="default per-peer inflight cap (default 8; "
                        "registration may override per peer)")
    p.add_argument("--pool", type=int, default=4,
                   help="enforcement thread-pool size (default 4)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="wave-scheduler workers inside each enforcement "
                        "(default: $REPRO_WORKERS or 1)")
    p.add_argument("--max-body", type=int, default=4 * 1024 * 1024,
                   help="request-body byte cap, 413 beyond it "
                        "(default 4 MiB)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="default per-request deadline when the request "
                        "carries none (504 on expiry)")
    p.add_argument("--k", type=int, default=1, help="depth bound (Def. 7)")
    p.add_argument("--mode", choices=["safe", "possible", "auto"],
                   default="safe")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive enforcement failures before a peer's "
                        "breaker opens (default 5)")
    p.add_argument("--breaker-cooldown", type=float, default=1.0,
                   help="seconds an open breaker waits before half-open")
    p.add_argument("--compile-cache", metavar="DIR", default=None,
                   help="persist compiled automata here across restarts "
                        "(default: in-memory)")
    p.add_argument("--snapshot", metavar="PATH", default=None,
                   help="pre-seed the compilation cache from a snapshot "
                        "blob (as served by GET /snapshot)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("inspect", help="document statistics")
    p.add_argument("document")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("stats", help="render a JSONL trace as a span tree")
    p.add_argument("trace")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "profile",
        help="aggregate a JSONL trace into a call-tree profile",
    )
    p.add_argument("trace")
    p.add_argument("--json", metavar="PATH",
                   help="also export the profile tree as JSON here")
    p.add_argument("--max-depth", type=int, default=None, metavar="N",
                   help="truncate the rendered tree below depth N")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "bench",
        help="run named benchmarks; fail on work-counter regressions",
    )
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="benches to run (default: all; see --list)")
    p.add_argument("--list", action="store_true",
                   help="list available benches and exit")
    p.add_argument("--smoke", action="store_true",
                   help="reduced scenario sets (CI-sized)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="where BENCH_<name>.json lands "
                        "(default: $REPRO_BENCH_DIR or .)")
    p.add_argument("--baseline", metavar="DIR", default=None,
                   help="diff against this directory's BENCH files "
                        "(default: the output directory's prior files)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="allowed relative counter growth (default 0.10)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
