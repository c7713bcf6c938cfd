"""The shared compilation cache: hash-consed automata artifacts.

Every word analysis in the rewriting stack needs compiled automata — the
Glushkov NFA of each output type, the complete (minimized)
:class:`~repro.automata.bitset.BitDFA` of the target, its complement
``Ā``, the k-depth expansion ``A_w^k`` — and until this module existed
each analysis recompiled them from scratch, per engine, per document,
per peer.  The cached ``BitDFA`` is the only automaton the run time
reads: the solver, the executors, the instance checker, the word
sampler and the Section 6 signature and subsumption checks all take it
from here.  The solved analyses are artifacts
too: a children word's game depends on the word, the output types,
the target, ``k`` and the invocable set, never on the document, so it
is solved once per cache.  The game state space, not the
document, dominates cost ("Games for Active XML Revisited"), so the two
levers pulled here are:

- **sharing**: artifacts are interned process-wide by canonical content
  digest (:mod:`repro.compile.digest`), so structurally equal types
  compile once no matter which engine, document, or peer asks — and,
  with a persistence directory, once per *content* across process
  restarts (:mod:`repro.compile.persist`);
- **shrinking**: Hopcroft minimization is part of the cached pipeline
  (``regex → NFA → determinize → complete → minimize → complement``),
  so every product construction and marking game downstream runs on the
  Myhill–Nerode-minimal automaton.  Minimization preserves the language,
  and the game verdict and strategy depend on the complement only
  through its language residuals, so results are bit-identical — a
  contract the differential harness fuzzes continuously (the
  ``shared-cache`` configuration in
  :mod:`repro.conformance.differential`).

The cache is thread-safe (one lock around the LRU store and counters;
builds run outside it, racing duplicates are discarded) and LRU-bounded.
Hit/miss/eviction counts surface through :func:`stats` and, when
observability is installed, through ``compile.*`` spans and the
``repro_compile_*`` metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.automata.bitset import (
    BitDFA,
    antichain_language_subset,
    bit_complement as bit_complement_of,
    bit_determinize,
    bit_minimize,
)
from repro.automata.glushkov import glushkov_nfa
from repro.automata.nfa import NFA
from repro.automata.symbols import Alphabet
from repro.compile.digest import (
    key_digest,
    mapping_digest,
    regex_digest,
    symbols_digest,
    word_digest,
)
from repro.compile.persist import PersistentStore
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.regex.ast import Regex

#: Default LRU bound, overridable via ``REPRO_COMPILE_CACHE_SIZE``.
DEFAULT_MAXSIZE = 1024

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A monotonic snapshot of one cache's accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    interned: int = 0
    persist_hits: int = 0
    persist_misses: int = 0
    persist_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        text = "%d hit(s), %d miss(es), %d eviction(s), %d entr%s" % (
            self.hits, self.misses, self.evictions,
            self.entries, "y" if self.entries == 1 else "ies",
        )
        if self.persist_hits or self.persist_misses or self.persist_errors:
            text += ", disk %d/%d (%d corrupt)" % (
                self.persist_hits,
                self.persist_hits + self.persist_misses,
                self.persist_errors,
            )
        return text


class CompilationCache:
    """Process-wide, thread-safe, LRU-bounded automata compilation cache.

    Args:
        maxsize: LRU bound on compiled artifacts (the intern tables for
            digests are unbounded — they hold strings for schema-level
            types, which are few and small).
        persist_dir: optional directory for the on-disk artifact store;
            compiled DFAs, NFAs, expansions and solved analyses are
            written there keyed by content digest so later processes
            warm-start.
    """

    enabled = True

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE,
                 persist_dir: Optional[str] = None):
        self.maxsize = max(1, int(maxsize))
        self._lock = threading.Lock()
        self._store: "OrderedDict[Tuple, object]" = OrderedDict()
        self._digests: Dict[Regex, str] = {}
        self._by_id: Dict[int, Tuple[Regex, str]] = {}
        self._interned: Dict[str, Regex] = {}
        self._alphabet_digests: Dict[frozenset, str] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._persist_hits = 0
        self._persist_misses = 0
        self._persist_errors = 0
        self._persist = (
            PersistentStore(persist_dir) if persist_dir else None
        )

    # -- interning / digests ------------------------------------------------

    def digest(self, r: Regex) -> str:
        """Content digest of a regex, memoized by identity then structure.

        The identity fast path makes repeated lookups O(1) regardless of
        the expression's size: engines key their per-document analysis
        caches on these digests instead of hashing deep ASTs every time.
        """
        with self._lock:
            entry = self._by_id.get(id(r))
            if entry is not None and entry[0] is r:
                return entry[1]
            digest = self._digests.get(r)
            if digest is not None:
                self._by_id[id(r)] = (r, digest)
                return digest
        digest = regex_digest(r)
        with self._lock:
            self._digests.setdefault(r, digest)
            self._by_id[id(r)] = (r, digest)
            self._interned.setdefault(digest, r)
        return digest

    def intern(self, r: Regex) -> Regex:
        """The canonical instance for this regex's structure (hash-consing).

        Equal regexes intern to one shared object, so downstream
        identity-keyed memoization (including :meth:`digest` itself)
        collapses across engines and documents.
        """
        digest = self.digest(r)
        with self._lock:
            return self._interned.setdefault(digest, r)

    def regex_key(self, r: Regex) -> str:
        """A cheap, exact dictionary key standing for a regex."""
        return self.digest(r)

    def alphabet_key(self, alphabet: Alphabet) -> str:
        with self._lock:
            digest = self._alphabet_digests.get(alphabet.symbols)
        if digest is None:
            digest = symbols_digest(alphabet.symbols)
            with self._lock:
                self._alphabet_digests.setdefault(alphabet.symbols, digest)
        return digest

    # -- the compiled pipeline ----------------------------------------------

    def nfa(self, r: Regex) -> NFA:
        """The Glushkov NFA of a regex, shared by digest."""
        key = ("nfa", self.digest(r))
        return self._get_or_build(key, "nfa", lambda: glushkov_nfa(r))

    def bit_target_dfa(self, target: Regex, alphabet: Alphabet) -> BitDFA:
        """The complete, minimized :class:`BitDFA` of ``target``.

        This is the automaton ``A`` of Figure 9 — and the front half of
        the complement pipeline of Figure 3 step 4.
        """
        key = ("bitdfa", self.digest(target), self.alphabet_key(alphabet))
        return self._get_or_build(
            key, "bitdfa",
            lambda: bit_minimize(bit_determinize(self.nfa(target), alphabet)),
        )

    def bit_complement(self, target: Regex, alphabet: Alphabet) -> BitDFA:
        """The complete minimized complement ``Ā`` (Figure 3 step 4)."""
        key = ("bitcomp", self.digest(target), self.alphabet_key(alphabet))
        return self._get_or_build(
            key, "bitcomp",
            lambda: bit_complement_of(self.bit_target_dfa(target, alphabet)),
        )

    def antichain_subset(
        self, left: Regex, right: Regex, alphabet: Alphabet
    ) -> bool:
        """``lang(left) ⊆ lang(right)`` by the antichain method, memoized.

        The right-hand side stays a Glushkov NFA — no determinization,
        no complement — which is the Section 6 extensional fast path.
        """
        key = (
            "subset",
            self.digest(left),
            self.digest(right),
            self.alphabet_key(alphabet),
        )
        return self._get_or_build(
            key, "subset",
            lambda: antichain_language_subset(
                self.bit_target_dfa(left, alphabet),
                self.nfa(right),
                alphabet,
            ),
        )

    def expansion_key(
        self,
        word: Tuple[str, ...],
        output_types: Dict[str, Regex],
        k: int,
        invocable_names: Iterable[str],
    ) -> Tuple:
        """The exact content key of one ``A_w^k`` construction.

        For the schema-compatibility reduction the word is a single
        virtual function, so this key *is* the paper's "k-depth expansion
        template per (output-type digest, k)".
        """
        outputs = {
            name: self.digest(expr) for name, expr in output_types.items()
        }
        return (
            "expansion",
            word_digest(word),
            mapping_digest(outputs),
            int(k),
            symbols_digest(invocable_names),
        )

    def expansion(self, key: Tuple, build: Callable[[], object]):
        """Memoize one expansion build under a key from :meth:`expansion_key`.

        The builder stays in :mod:`repro.rewriting.expansion` (this
        module never imports the rewriting layer); expansions are
        immutable after construction, so sharing them across engines and
        threads is safe.
        """
        return self._get_or_build(key, "expansion", build)

    def analysis_key(
        self,
        word: Tuple[str, ...],
        output_types: Dict[str, Regex],
        k: int,
        invocable_names: Iterable[str],
        target: Regex,
        algorithm: str,
    ) -> Tuple:
        """The exact content key of one solved word analysis.

        Everything a solve reads: the ``A_w^k`` expansion key (word,
        output-type digests of every candidate function, ``k``, the
        invocable names left after the policy and the dead set), the
        target's digest and the algorithm (``safe-lazy``, ``safe-eager``
        or ``possible``).  The document is not among them, so a
        children word's game is solved once however many documents,
        engines or requests it occurs in.
        """
        expansion = self.expansion_key(word, output_types, k, invocable_names)
        return ("analysis",) + expansion[1:] + (self.digest(target), algorithm)

    def analysis(self, key: Tuple, build: Callable[[], object]):
        """Memoize one solved analysis under a key from :meth:`analysis_key`.

        Like expansions, analyses are immutable after construction, and
        they are stored, persisted and snapshotted like every artifact.
        The caller traces the solve under its own ``analysis`` span, with
        the ``product`` and ``game`` spans beneath it, so no
        ``compile.analysis`` span is opened here.
        """
        return self._get_or_build(key, "analysis", build, traced=False)

    # -- snapshots (peer warm-start) ------------------------------------------

    def export_snapshot(self) -> bytes:
        """The whole in-memory artifact store as one transferable blob.

        A gateway serves this from its snapshot endpoint so a restarted
        or newly joined peer can pre-seed its cache instead of paying
        the cold ``regex → … → complement`` pipeline per content.  The
        store is copied under the lock; pickling runs outside it.
        """
        from repro.compile.persist import dump_snapshot

        with self._lock:
            entries = list(self._store.items())
        return dump_snapshot(entries)

    def import_snapshot(self, blob: bytes) -> int:
        """Merge a snapshot blob into this cache; returns entries added.

        Existing entries win (the local artifact is as good and already
        hot); malformed blobs raise ``ValueError`` without touching the
        store.  Imported artifacts count as neither hits nor misses —
        they change future lookups, not past accounting.
        """
        from repro.compile.persist import load_snapshot

        entries = load_snapshot(blob)
        for key, _value in entries:
            if not isinstance(key, tuple) or not key:
                raise ValueError("snapshot entry has a malformed key")
        added = 0
        with self._lock:
            for key, value in entries:
                if key in self._store:
                    continue
                self._store[key] = value
                added += 1
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self._evictions += 1
        return added

    # -- bookkeeping ----------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._store),
                interned=len(self._interned),
                persist_hits=self._persist_hits,
                persist_misses=self._persist_misses,
                persist_errors=self._persist_errors,
            )

    def clear(self) -> None:
        """Drop every compiled artifact (intern tables included)."""
        with self._lock:
            self._store.clear()
            self._digests.clear()
            self._by_id.clear()
            self._interned.clear()
            self._alphabet_digests.clear()

    # -- the memoization core -------------------------------------------------

    def _note(self, kind: str, outcome: str) -> None:
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_compile_cache_total", "Compilation cache lookups"
            ).inc(kind=kind, outcome=outcome)

    def _get_or_build(self, key: Tuple, kind: str, build: Callable[[], object],
                      traced: bool = True):
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                self._store.move_to_end(key)
                self._hits += 1
        if value is not _MISSING:
            self._note(kind, "hit")
            return value
        with self._lock:
            self._misses += 1
        self._note(kind, "miss")

        file_digest = None
        loaded = None
        if self._persist is not None:
            file_digest = key_digest(key)
            loaded, corrupted = self._persist.load(file_digest, kind)
            with self._lock:
                if corrupted:
                    self._persist_errors += 1
                elif loaded is not None:
                    self._persist_hits += 1
                else:
                    self._persist_misses += 1
        value = loaded
        if value is None:
            # Built outside the lock: compilation can be expensive and
            # must not serialize concurrent engines; a racing duplicate
            # build is simply discarded below.
            if traced:
                with obs.tracer().span("compile." + kind, key=key[1][:12]):
                    value = build()
            else:
                value = build()
            record_work(obs.metrics(), "compile", {"builds": 1}, kind=kind)

        evicted = 0
        with self._lock:
            existing = self._store.get(key, _MISSING)
            if existing is not _MISSING:
                self._store.move_to_end(key)
                return existing
            self._store[key] = value
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            metrics = obs.metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_compile_cache_evictions_total",
                    "Artifacts dropped by the compile-cache LRU",
                ).inc(evicted)
        if self._persist is not None and loaded is None:
            if not self._persist.store(file_digest, kind, value):
                with self._lock:
                    self._persist_errors += 1
        return value


class NullCompilationCache:
    """The disabled cache: same pipeline, no sharing.

    Every request compiles fresh — including Hopcroft minimization, so
    the *artifacts* are identical to the shared cache's; only the
    reuse is gone, and every game is solved again.  This is what the differential harness runs its
    baseline configurations on.
    """

    enabled = False

    def digest(self, r: Regex) -> str:
        return regex_digest(r)

    def intern(self, r: Regex) -> Regex:
        return r

    def regex_key(self, r: Regex):
        return r

    def nfa(self, r: Regex) -> NFA:
        return glushkov_nfa(r)

    def bit_target_dfa(self, target: Regex, alphabet: Alphabet) -> BitDFA:
        return bit_minimize(bit_determinize(glushkov_nfa(target), alphabet))

    def bit_complement(self, target: Regex, alphabet: Alphabet) -> BitDFA:
        return bit_complement_of(self.bit_target_dfa(target, alphabet))

    def antichain_subset(
        self, left: Regex, right: Regex, alphabet: Alphabet
    ) -> bool:
        return antichain_language_subset(
            self.bit_target_dfa(left, alphabet), glushkov_nfa(right), alphabet
        )

    def expansion_key(self, word, output_types, k, invocable_names) -> Tuple:
        return ()

    def expansion(self, key: Tuple, build: Callable[[], object]):
        return build()

    def analysis_key(self, word, output_types, k, invocable_names, target,
                     algorithm) -> Tuple:
        return ()

    def analysis(self, key: Tuple, build: Callable[[], object]):
        return build()

    def export_snapshot(self) -> bytes:
        from repro.compile.persist import dump_snapshot

        return dump_snapshot([])

    def import_snapshot(self, blob: bytes) -> int:
        from repro.compile.persist import load_snapshot

        load_snapshot(blob)  # still validates — bad blobs raise
        return 0

    def stats(self) -> CacheStats:
        return CacheStats()

    def clear(self) -> None:
        pass


#: The shared singleton standing for "compile caching off".
DISABLED = NullCompilationCache()
