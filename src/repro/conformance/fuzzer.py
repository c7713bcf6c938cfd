"""Seeded scenario generation for the differential conformance harness.

Two families of scenarios, both fully determined by an integer seed:

- :func:`fuzz_word_scenario` — word-level rewriting problems (children
  word, output types, target, k).  Output types are kept star-free so
  the reference interpreter's enumeration is exhaustive and agreement
  with the automata solvers is a hard requirement; targets range over
  the full regex language (stars included).  Calls may return other
  calls (and themselves), exercising ``k = 2`` nesting.
- :func:`fuzz_document_scenario` — whole exchange scenarios: a random
  sender schema with intensional content, an exchange schema derived
  from it by re-deciding per function atom whether the call must be
  materialized, may stay, or both; a seeded instance document; a fault
  schedule; and the depth/mode knobs.  These feed the engine
  configuration matrix in :mod:`repro.conformance.differential`.

Generation reuses :mod:`repro.workloads.generators`'s philosophy (one
``random.Random`` in, deterministic problem out) and the schema
instance generator for documents and simulated service outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.doc.document import Document
from repro.regex.ast import Regex, alt, atom, opt, seq, star
from repro.schema.generator import InstanceGenerator
from repro.schema.model import Schema, SchemaBuilder
from repro.workloads.generators import WordProblem

#: Plain (non-call) symbols of word-level problems.
WORD_ALPHABET = ("a", "b", "c")


# ---------------------------------------------------------------------------
# Word-level scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordScenario:
    """One word-level differential test case, reconstructible from JSON."""

    seed: int
    k: int
    word: Tuple[str, ...]
    output_types: Dict[str, Regex] = field(hash=False)
    target: Regex = None

    @property
    def problem(self) -> WordProblem:
        return WordProblem(self.word, dict(self.output_types), self.target)


def _random_finite_regex(
    rng: random.Random, symbols: Tuple[str, ...], budget: int = 4
) -> Regex:
    """A random star-free expression: finite, exhaustively enumerable."""
    if budget <= 1 or rng.random() < 0.4:
        return atom(rng.choice(symbols))
    shape = rng.random()
    left = _random_finite_regex(rng, symbols, budget // 2)
    if shape < 0.2:
        return opt(left)
    right = _random_finite_regex(rng, symbols, budget - budget // 2)
    if shape < 0.6:
        return seq(left, right)
    return alt(left, right)


def _random_target(
    rng: random.Random, symbols: Tuple[str, ...], budget: int = 6
) -> Regex:
    """A random target expression; stars allowed (matching stays exact)."""
    if budget <= 1 or rng.random() < 0.35:
        leaf = atom(rng.choice(symbols))
        return star(leaf) if rng.random() < 0.25 else leaf
    shape = rng.random()
    left = _random_target(rng, symbols, budget // 2)
    if shape < 0.15:
        return opt(left)
    if shape < 0.25:
        return star(left)
    right = _random_target(rng, symbols, budget - budget // 2)
    if shape < 0.65:
        return seq(left, right)
    return alt(left, right)


def fuzz_word_scenario(seed: int) -> WordScenario:
    """The word-level scenario fully determined by ``seed``."""
    rng = random.Random("word-%d" % seed)
    k = rng.choice((1, 1, 2))
    n_calls = rng.randint(0, 2)
    call_names = tuple("q%d" % (i + 1) for i in range(max(n_calls, 1)))

    output_types: Dict[str, Regex] = {}
    for index in range(n_calls):
        name = call_names[index]
        # Outputs draw from the plain alphabet, plus other call names with
        # some probability — nested calls are what k=2 is about.
        symbols: Tuple[str, ...] = WORD_ALPHABET
        if rng.random() < 0.45:
            symbols = symbols + call_names[: n_calls or 1]
        output_types[name] = _random_finite_regex(rng, symbols)

    length = rng.randint(1, 4)
    word: List[str] = []
    for _ in range(length):
        if n_calls and rng.random() < 0.45:
            word.append(rng.choice(call_names[:n_calls]))
        else:
            word.append(rng.choice(WORD_ALPHABET))

    target_symbols = WORD_ALPHABET + tuple(output_types)
    target = _random_target(rng, target_symbols)
    return WordScenario(
        seed=seed, k=k, word=tuple(word), output_types=output_types,
        target=target,
    )


# ---------------------------------------------------------------------------
# Document-level scenarios
# ---------------------------------------------------------------------------


@dataclass
class DocumentScenario:
    """One end-to-end exchange scenario for the configuration matrix.

    The scenario is self-contained — schemas and the document travel
    with it (serialized in corpus entries), never regenerated from the
    seed — so corpus replays stay stable even when the generator
    evolves.  ``flaky_period``/``retries`` describe the fault schedule
    the resilient configuration injects; ``invoker_seed`` drives the
    per-call-seeded sampling services.
    """

    seed: int
    k: int
    mode: str
    sender_schema: Schema
    exchange_schema: Schema
    document: Document
    invoker_seed: int = 0
    flaky_period: int = 0
    retries: int = 2

    def with_document(self, document: Document) -> "DocumentScenario":
        return replace(self, document=document)


def _random_output_type(rng: random.Random, leaves: List[str],
                        calls: List[str]) -> Tuple[str, bool]:
    """A content-model source string for one function's output type.

    Returns ``(source, nested)`` — ``nested`` flags outputs that may
    contain another call, which need ``k >= 2`` to flatten.
    """
    first = rng.choice(leaves)
    roll = rng.random()
    if roll < 0.25:
        return first, False
    if roll < 0.40:
        return "%s?" % first, False
    if roll < 0.55:
        second = rng.choice([leaf for leaf in leaves if leaf != first])
        return "%s.%s" % (first, second), False
    if roll < 0.70:
        second = rng.choice([leaf for leaf in leaves if leaf != first])
        return "(%s | %s)" % (first, second), False
    if roll < 0.80 and calls:
        return "%s.%s?" % (first, rng.choice(calls)), True
    return "%s*" % first, False


def _text_output_type(rng: random.Random,
                      leaves: List[str]) -> Optional[str]:
    """Now and then a text-bearing output type (else ``None``).

    Such an answer puts text among its caller's siblings once spliced
    in — mixed content or adjacent text nodes, the shapes the XML
    serialization does not carry faithfully.  Drawn from a stream of its
    own, so the rest of a seed's scenario is the same with or without.
    """
    if rng.random() >= 0.3:
        return None
    leaf = rng.choice(leaves)
    return rng.choice(
        ["data", "data?", "data.%s" % leaf, "%s.data" % leaf, "data.data"]
    )


def _exchange_part(rng: random.Random, name: str, output_source: str) -> str:
    """How the exchange schema re-declares one function atom.

    Materialized (the receiver wants values), intensional (the call
    itself is fine), or either — the three stances Section 3 motivates.
    """
    roll = rng.random()
    if roll < 0.4:
        return "(%s)" % output_source
    if roll < 0.6:
        return name
    return "(%s | (%s))" % (name, output_source)


def fuzz_document_scenario(seed: int) -> DocumentScenario:
    """The document-exchange scenario fully determined by ``seed``."""
    rng = random.Random("doc-%d" % seed)
    n_leaves = rng.randint(3, 5)
    leaves = ["l%d" % (i + 1) for i in range(n_leaves)]
    n_functions = rng.randint(1, 3)
    functions = ["s%d" % (i + 1) for i in range(n_functions)]

    output_sources = {}
    nested_calls = False
    rng_text = random.Random("doc-text-%d" % seed)
    for index, name in enumerate(functions):
        peers = functions[:index]  # only earlier names: no output cycles
        output_sources[name], nested = _random_output_type(rng, leaves, peers)
        text = _text_output_type(rng_text, leaves)
        if text is not None:
            output_sources[name], nested = text, False
        nested_calls = nested_calls or nested

    input_sources = {
        name: rng.choice(["data", rng.choice(leaves)]) for name in functions
    }

    # The root's content interleaves leaf labels and function atoms, each
    # symbol used once (one-unambiguous by construction, like the paper's
    # content models).
    parts: List[Tuple[str, str]] = []  # (symbol, occurrence suffix)
    for name in functions:
        parts.append((name, rng.choice(["", "", "?"])))
    for leaf in rng.sample(leaves, rng.randint(1, min(3, n_leaves))):
        parts.append((leaf, rng.choice(["", "*", "?"])))
    rng.shuffle(parts)
    rng_exchange = random.Random("doc-exchange-%d" % seed)

    def build(schema_kind: str) -> Schema:
        builder = SchemaBuilder()
        for leaf in leaves:
            builder.element(leaf, "data")
        for name in functions:
            builder.function(name, input_sources[name], output_sources[name])
        words = []
        for symbol, suffix in parts:
            if schema_kind == "exchange" and symbol in output_sources:
                stance = _exchange_part(rng_exchange, symbol,
                                        output_sources[symbol])
                words.append(stance + suffix)
            else:
                words.append(symbol + suffix)
        builder.element("root", ".".join(words))
        builder.root("root")
        return builder.build()

    sender = build("sender")
    exchange = build("exchange")

    document = InstanceGenerator(
        sender, random.Random("doc-instance-%d" % seed), max_depth=5,
        call_bias=2.0,
    ).document()

    k = 2 if nested_calls else 1
    mode = rng.choice(["safe", "auto", "auto", "possible"])
    flaky_period = rng.choice([0, 0, 0, 2, 3])
    return DocumentScenario(
        seed=seed,
        k=k,
        mode=mode,
        sender_schema=sender,
        exchange_schema=exchange,
        document=document,
        invoker_seed=seed,
        flaky_period=flaky_period,
    )


# ---------------------------------------------------------------------------
# Edit-script scenarios (incremental enforcement differential)
# ---------------------------------------------------------------------------


@dataclass
class EditScenario:
    """A mutating-document scenario: a base exchange plus edit scripts.

    ``base.document`` is wire-normalized (edit paths must survive the
    XML round-trip); each script in ``scripts`` applies against the
    document produced by the previous one.  The differential edit oracle
    (:func:`repro.conformance.differential.run_edit_scenario`) drives an
    incremental session through the scripts and checks every pass
    against a fresh full enforcement of the same source.
    """

    seed: int
    base: DocumentScenario
    scripts: Tuple[tuple, ...] = ()

    def with_scripts(self, scripts) -> "EditScenario":
        return replace(self, scripts=tuple(tuple(s) for s in scripts))


def _random_edit(rng: random.Random, root, gen: "InstanceGenerator",
                 labels: Tuple[str, ...]):
    """One random edit against the current tree (may be None: no site)."""
    from repro.doc.nodes import Element, FunctionCall, Text, children_of
    from repro.doc.paths import iter_nodes
    from repro.incremental.edits import (
        delete, insert, replace as replace_edit, update_call,
    )

    nodes = list(iter_nodes(root))
    kind = rng.choice(
        ["dup", "del", "replace-sibling", "replace-fresh",
         "insert-fresh", "update-call"]
    )
    if kind == "update-call":
        calls = [(p, n) for p, n in nodes if isinstance(n, FunctionCall)]
        if not calls:
            return None
        path, node = rng.choice(calls)
        roll = rng.random()
        if roll < 0.4:
            params = (Text(str(rng.randint(0, 99))),)
        elif roll < 0.7 and labels:
            params = (gen.element(rng.choice(labels), depth=2),)
        else:
            params = tuple(reversed(node.params)) or (
                Text(str(rng.randint(0, 99))),
            )
        return update_call(path, params)
    parents = [
        (p, n) for p, n in nodes
        if not isinstance(n, Text) and children_of(n)
    ]
    if kind == "insert-fresh":
        sites = [(p, n) for p, n in nodes if isinstance(n, Element)]
        if not (sites and labels):
            return None
        path, node = rng.choice(sites)
        index = rng.randint(0, len(children_of(node)))
        return insert(
            path + (index,), gen.element(rng.choice(labels), depth=2)
        )
    if not parents:
        return None
    path, parent = rng.choice(parents)
    kids = children_of(parent)
    index = rng.randrange(len(kids))
    if kind == "dup":
        return insert(path + (index,), kids[index])
    if kind == "del":
        return delete(path + (index,))
    if kind == "replace-sibling":
        return replace_edit(path + (index,), kids[rng.randrange(len(kids))])
    # replace-fresh
    if not labels:
        return None
    return replace_edit(
        path + (index,), gen.element(rng.choice(labels), depth=2)
    )


def fuzz_edit_scenario(seed: int) -> EditScenario:
    """The edit-script scenario fully determined by ``seed``.

    The base exchange comes from :func:`fuzz_document_scenario` (same
    seed space), wire-normalized; 1–3 scripts of 1–3 edits each are
    generated against a preview of the evolving source, so every script
    is applicable in sequence.  Edits the wire-normal-form guard rejects
    during generation are simply re-drawn.
    """
    from repro.doc.normalize import normalize_document
    from repro.incremental.edits import EditError, apply_edit

    base = fuzz_document_scenario(seed)
    base = base.with_document(normalize_document(base.document))
    rng = random.Random("edits-%d" % seed)
    gen = InstanceGenerator(
        base.sender_schema, random.Random("edits-gen-%d" % seed),
        max_depth=3, call_bias=1.0,
    )
    labels = tuple(sorted(base.sender_schema.labels()))
    preview = base.document.root
    scripts: List[tuple] = []
    for _ in range(rng.randint(1, 3)):
        batch: List = []
        wanted = rng.randint(1, 3)
        attempts = 0
        while len(batch) < wanted and attempts < 25:
            attempts += 1
            edit = _random_edit(rng, preview, gen, labels)
            if edit is None:
                continue
            try:
                preview, _ = apply_edit(preview, edit)
            except EditError:
                continue
            batch.append(edit)
        if batch:
            scripts.append(tuple(batch))
    return EditScenario(seed=seed, base=base, scripts=tuple(scripts))
