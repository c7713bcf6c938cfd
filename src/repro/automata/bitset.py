"""Flat, integer-indexed automata with bitset state sets.

This is the encoding the Figure 3 pipeline runs on: alphabet symbols
interned to dense ints, transition tables as per-symbol flat tuples,
and every state *set* — subset-construction subsets, Hopcroft
splitters, reachability frontiers, marking regions — a single Python
``int`` used as a bitmask.  Set union/intersection/difference become
``|``/``&``/``&~`` on machine words, which is where the ≥10x over
dict-of-dicts automata comes from: the dominant loops run in C.

This is also the only automaton the run time reads: the compile cache
hands out minimized ``BitDFA`` artifacts, and the games, the executors
(:meth:`BitDFA.step` on the solved complement or target), the instance
checker, the word sampler and the Section 6 signature and subsumption
checks all run on them.  The dict :class:`~repro.automata.dfa.DFA`
remains the figure renderer's input and the test suite's oracle.

The encoding is *canonical*: :func:`bit_determinize` numbers subsets in
BFS order over the sorted alphabet and :func:`bit_minimize` renumbers
blocks the same way, so

    ``bit_minimize(bit_determinize(nfa, Σ)).to_dfa()``

is byte-identical to ``minimize_hopcroft(determinize(nfa, Σ))`` — a
property the test suite pins on fuzzed regexes.  It also makes two
minimized automata over one alphabet equal (``==``) exactly when their
languages are, which is how the Section 6 signature check compares
types.

:func:`antichain_language_subset` decides ``L(A) ⊆ L(N)`` directly
against the *nondeterministic* right-hand automaton (De Wulf et al.'s
antichain method), skipping the determinize → complete → complement →
product detour entirely — the fast path for the extensional
schema-compatibility checks of Section 6.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.automata.dfa import DFA, complete
from repro.automata.nfa import NFA
from repro.automata.symbols import Alphabet, concretize_class
from repro.obs import context as obs
from repro.obs.metrics import record_work


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitDFA:
    """A complete DFA on flat per-symbol transition tuples.

    Attributes:
        alphabet: the closed alphabet (symbol order is ``sorted``).
        symbols: the dense symbol table, ``symbols[a]`` for symbol id ``a``.
        initial: the initial state id.
        n: number of states (ids are ``0 .. n-1``).
        accepting: bitmask of accepting states.
        delta: ``delta[a][q]`` — successor of ``q`` on symbol id ``a``.

    Instances are always complete (every ``delta[a][q]`` defined) and
    immutable after construction; the predecessor index is built lazily
    and dropped on pickling.
    """

    __slots__ = (
        "alphabet", "symbols", "initial", "n", "accepting", "delta",
        "_sym_id", "_pred", "_img_tables", "_pre_tables", "_img_singles",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        initial: int,
        n: int,
        accepting: int,
        delta: Tuple[Tuple[int, ...], ...],
    ):
        self.alphabet = alphabet
        self.symbols: Tuple[str, ...] = tuple(alphabet)
        self.initial = initial
        self.n = n
        self.accepting = accepting
        self.delta = delta
        self._sym_id: Dict[str, int] = {
            symbol: index for index, symbol in enumerate(self.symbols)
        }
        self._pred: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._img_tables: Dict[int, List[List[int]]] = {}
        self._pre_tables: Dict[int, List[List[int]]] = {}
        self._img_singles: Optional[List[List[int]]] = None

    # -- pickling (the persistent artifact store) -------------------------

    def __getstate__(self):
        return (self.alphabet, self.initial, self.n, self.accepting, self.delta)

    def __setstate__(self, state):
        self.__init__(*state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitDFA):
            return NotImplemented
        return (
            self.alphabet.symbols == other.alphabet.symbols
            and self.initial == other.initial
            and self.n == other.n
            and self.accepting == other.accepting
            and self.delta == other.delta
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.symbols, self.initial, self.n,
                     self.accepting, self.delta))

    # -- running ----------------------------------------------------------

    def sym(self, symbol: str) -> int:
        """The dense id of a concrete symbol (folded into the alphabet)."""
        index = self._sym_id.get(symbol)
        if index is None:
            index = self._sym_id[self.alphabet.canon(symbol)]
        return index

    def step(self, state: int, symbol: str) -> int:
        """One move (total: the automaton is complete)."""
        return self.delta[self.sym(symbol)][state]

    def accepts(self, word) -> bool:
        state = self.initial
        for symbol in word:
            state = self.delta[self.sym(symbol)][state]
        return bool((self.accepting >> state) & 1)

    # -- mask arithmetic ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def pred(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-symbol predecessor masks: ``pred[a][q']`` = sources of ``q'``."""
        if self._pred is None:
            pred: List[List[int]] = [[0] * self.n for _ in self.symbols]
            for a, row in enumerate(self.delta):
                pred_a = pred[a]
                for q, target in enumerate(row):
                    pred_a[target] |= 1 << q
            self._pred = tuple(tuple(row) for row in pred)
        return self._pred

    @staticmethod
    def _chunk_tables(singles: List[int]) -> List[List[int]]:
        """Byte-indexed lookup tables for OR-folding per-state masks.

        ``tables[c][b]`` is the union of ``singles[8c + i]`` over the set
        bits ``i`` of the byte ``b`` — so folding an ``n``-bit mask costs
        ``n/8`` list lookups instead of a Python loop per set bit.  Each
        chunk's entries double once per state: the bytes with bit ``i``
        set are the bytes below ``1 << i`` OR-ed with ``singles[8c + i]``
        (a short last chunk is padded with zeros to 256).
        """
        tables: List[List[int]] = []
        for base in range(0, len(singles), 8):
            entries = [0]
            for single in singles[base:base + 8]:
                entries += [entry | single for entry in entries]
            entries += [0] * (256 - len(entries))
            tables.append(entries)
        return tables

    @staticmethod
    def _fold(tables: List[List[int]], mask: int) -> int:
        result = 0
        chunk = 0
        while mask:
            byte = mask & 0xFF
            if byte:
                result |= tables[chunk][byte]
            mask >>= 8
            chunk += 1
        return result

    def preimage(self, a: int, mask: int) -> int:
        """States whose ``a``-successor lies in ``mask``."""
        tables = self._pre_tables.get(a)
        if tables is None:
            tables = self._chunk_tables(list(self.pred()[a]))
            self._pre_tables[a] = tables
        return self._fold(tables, mask)

    def image(self, a: int, mask: int) -> int:
        """The ``a``-successors of every state in ``mask``."""
        tables = self._img_tables.get(a)
        if tables is None:
            row = self.delta[a]
            tables = self._chunk_tables([1 << row[q] for q in range(self.n)])
            self._img_tables[a] = tables
        return self._fold(tables, mask)

    def image_singles(self) -> List[List[int]]:
        """Per-symbol single-state image bits: ``singles[a][q] = 1 << δ(q,a)``.

        The sparse companion to :meth:`image_tables` — when a frontier
        mask carries only a couple of bits, folding it bit by bit through
        this table beats scanning the chunk tables past their zero bytes.
        """
        if self._img_singles is None:
            self._img_singles = [
                [1 << target for target in row] for row in self.delta
            ]
            record_work(obs.metrics(), "tables", {"image_singles": 1})
        return self._img_singles

    def preimage_tables(self) -> List[List[List[int]]]:
        """All per-symbol preimage chunk tables, indexed by symbol id."""
        pred = self.pred()
        built = 0
        for a in range(len(self.symbols)):
            if a not in self._pre_tables:
                self._pre_tables[a] = self._chunk_tables(list(pred[a]))
                built += 1
        if built:
            record_work(obs.metrics(), "tables", {"preimage_tables": built})
        return [self._pre_tables[a] for a in range(len(self.symbols))]

    def image_tables(self) -> List[List[List[int]]]:
        """All per-symbol image chunk tables, indexed by symbol id.

        For callers whose inner loop folds masks edge by edge (the game
        reachability passes) and wants the lookup inline, without a
        method call per edge.
        """
        built = 0
        for a in range(len(self.symbols)):
            if a not in self._img_tables:
                row = self.delta[a]
                self._img_tables[a] = self._chunk_tables(
                    [1 << row[q] for q in range(self.n)]
                )
                built += 1
        if built:
            record_work(obs.metrics(), "tables", {"image_tables": built})
        return [self._img_tables[a] for a in range(len(self.symbols))]

    def reachable_mask(self) -> int:
        """States reachable from the initial state."""
        reach = 1 << self.initial
        frontier = reach
        while frontier:
            new = 0
            for row in self.delta:
                for q in iter_bits(frontier):
                    new |= 1 << row[q]
            frontier = new & ~reach
            reach |= new
        return reach

    def sink_mask(self) -> int:
        """States whose every transition loops back onto themselves."""
        mask = 0
        for q in range(self.n):
            if all(row[q] == q for row in self.delta):
                mask |= 1 << q
        return mask

    # -- views -------------------------------------------------------------

    def to_dfa(self) -> DFA:
        """The dict-of-dicts view (state numbering preserved exactly)."""
        transitions: Dict[int, Dict[str, int]] = {
            q: {
                self.symbols[a]: self.delta[a][q]
                for a in range(len(self.symbols))
            }
            for q in range(self.n)
        }
        return DFA(
            self.alphabet,
            self.initial,
            frozenset(iter_bits(self.accepting)),
            transitions,
        )


def from_dfa(dfa: DFA) -> BitDFA:
    """Re-encode a dict DFA (completed first, dense ids in sorted order)."""
    completed = complete(dfa)
    states = sorted(completed.states())
    ids = {state: index for index, state in enumerate(states)}
    symbols = tuple(completed.alphabet)
    delta = tuple(
        tuple(ids[completed.transitions[state][symbol]] for state in states)
        for symbol in symbols
    )
    accepting = 0
    for state in completed.accepting:
        accepting |= 1 << ids[state]
    return BitDFA(
        completed.alphabet, ids[completed.initial], len(states), accepting, delta
    )


def bit_determinize(nfa: NFA, alphabet: Alphabet) -> BitDFA:
    """Subset construction straight onto flat tables, then complete.

    Subsets are numbered in BFS discovery order over the sorted alphabet
    — exactly like :func:`repro.automata.dfa.determinize` — with the
    rejecting sink (when one is needed) appended last, matching what
    ``complete()`` does to the dict DFA's numbering.
    """
    symbols = tuple(alphabet)
    sym_id = {symbol: index for index, symbol in enumerate(symbols)}
    start = nfa.epsilon_closure((nfa.initial,))
    ids: Dict[frozenset, int] = {start: 0}
    worklist: deque = deque((start,))
    rows: List[Dict[int, int]] = []
    accepting = 1 if (start & nfa.accepting) else 0

    while worklist:
        subset = worklist.popleft()
        row: Dict[int, int] = {}
        rows.append(row)
        per_symbol: Dict[str, set] = {}
        for state in subset:
            for guard, target in nfa.edges_from(state):
                for symbol in concretize_class(guard, alphabet):
                    per_symbol.setdefault(symbol, set()).add(target)
        for symbol in sorted(per_symbol):
            closure = nfa.epsilon_closure(per_symbol[symbol])
            if closure not in ids:
                ids[closure] = len(ids)
                worklist.append(closure)
                if closure & nfa.accepting:
                    accepting |= 1 << ids[closure]
            row[sym_id[symbol]] = ids[closure]

    n = len(rows)
    width = len(symbols)
    needs_sink = any(len(row) < width for row in rows)
    if needs_sink:
        sink = n
        n += 1
        rows.append({a: sink for a in range(width)})
    else:
        sink = -1  # unused
    delta = tuple(
        tuple(rows[q].get(a, sink) for q in range(n)) for a in range(width)
    )
    return BitDFA(alphabet, 0, n, accepting, delta)


def bit_minimize(bd: BitDFA) -> BitDFA:
    """Hopcroft's minimization with splitter sets as bitmasks.

    The partition-refinement loop mirrors
    :func:`repro.automata.dfa.minimize_hopcroft` (including the queued
    worklist-entry bookkeeping rule); the final blocks are renumbered by
    BFS over the sorted alphabet, so the result is the *same* canonical
    automaton the dict pipeline produces.
    """
    width = len(bd.symbols)
    reach = bd.reachable_mask()
    pred = bd.pred()

    acc = bd.accepting & reach
    rej = reach & ~acc
    partition: List[int] = [block for block in (acc, rej) if block]
    block_of: Dict[int, int] = {}
    for index, block in enumerate(partition):
        for q in iter_bits(block):
            block_of[q] = index

    worklist: deque = deque()
    queued = set()

    def push(a: int, index: int) -> None:
        if (a, index) not in queued:
            queued.add((a, index))
            worklist.append((a, index))

    if len(partition) == 2:
        smaller = min(range(2), key=lambda i: partition[i].bit_count())
        for a in range(width):
            push(a, smaller)
    else:
        for a in range(width):
            push(a, 0)

    while worklist:
        a, splitter_index = worklist.popleft()
        queued.discard((a, splitter_index))
        splitter = partition[splitter_index]
        pred_a = pred[a]
        movers = 0
        for target in iter_bits(splitter):
            movers |= pred_a[target]
        movers &= reach
        if not movers:
            continue
        touched: Dict[int, int] = {}
        for q in iter_bits(movers):
            index = block_of[q]
            touched[index] = touched.get(index, 0) | (1 << q)
        for index, inside in touched.items():
            block = partition[index]
            if inside == block:
                continue  # not split
            outside = block & ~inside
            partition[index] = inside
            new_index = len(partition)
            partition.append(outside)
            for q in iter_bits(outside):
                block_of[q] = new_index
            smaller_index = (
                index if inside.bit_count() <= outside.bit_count() else new_index
            )
            for sym in range(width):
                if (sym, index) in queued:
                    # The queued entry now denotes ``inside``; the other
                    # half must be processed too (Hopcroft's rule).
                    push(sym, new_index)
                else:
                    push(sym, smaller_index)

    # Block-level transitions via one representative state per block.
    n_blocks = len(partition)
    block_delta: List[List[int]] = [[0] * n_blocks for _ in range(width)]
    block_accepting = 0
    for index, block in enumerate(partition):
        rep = (block & -block).bit_length() - 1
        for a in range(width):
            block_delta[a][index] = block_of[bd.delta[a][rep]]
        if (bd.accepting >> rep) & 1:
            block_accepting |= 1 << index

    # Canonical numbering: BFS from the initial block over sorted symbols.
    order: Dict[int, int] = {block_of[bd.initial]: 0}
    queue = deque((block_of[bd.initial],))
    while queue:
        block = queue.popleft()
        for a in range(width):
            target = block_delta[a][block]
            if target not in order:
                order[target] = len(order)
                queue.append(target)

    n = len(order)
    delta = tuple(
        tuple(
            order[block_delta[a][block]]
            for block, _new in sorted(order.items(), key=lambda item: item[1])
        )
        for a in range(width)
    )
    accepting = 0
    for block in iter_bits(block_accepting):
        new = order.get(block)
        if new is not None:
            accepting |= 1 << new
    return BitDFA(bd.alphabet, 0, n, accepting, delta)


def bit_complement(bd: BitDFA) -> BitDFA:
    """Flip acceptance (the automaton is already complete)."""
    return BitDFA(
        bd.alphabet, bd.initial, bd.n, bd.full_mask & ~bd.accepting, bd.delta
    )


def _merge(left: BitDFA, right: BitDFA) -> Tuple[BitDFA, BitDFA]:
    """Put two BitDFAs over one merged alphabet (language-preserving)."""
    if left.alphabet.symbols == right.alphabet.symbols:
        return left, right
    from repro.automata.dfa import widen_alphabet

    merged = Alphabet.closure(left.alphabet.symbols, right.alphabet.symbols)
    return (
        from_dfa(widen_alphabet(left.to_dfa(), merged)),
        from_dfa(widen_alphabet(right.to_dfa(), merged)),
    )


def bit_intersects(left: BitDFA, right: BitDFA) -> bool:
    """True iff the languages share a word — pair search, early exit."""
    left, right = _merge(left, right)
    width = len(left.symbols)
    start = (left.initial, right.initial)
    seen = {start}
    stack = [start]
    while stack:
        l, r = stack.pop()
        if (left.accepting >> l) & 1 and (right.accepting >> r) & 1:
            return True
        for a in range(width):
            pair = (left.delta[a][l], right.delta[a][r])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return False


def bit_subset(left: BitDFA, right: BitDFA) -> bool:
    """``L(left) ⊆ L(right)`` without materializing the complement.

    Walks the reachable pair graph and fails on the first pair that
    accepts on the left but not on the right — equivalent to
    ``not intersects(left, complement(right))`` with early exit and no
    complement construction.
    """
    left, right = _merge(left, right)
    width = len(left.symbols)
    start = (left.initial, right.initial)
    seen = {start}
    stack = [start]
    while stack:
        l, r = stack.pop()
        if (left.accepting >> l) & 1 and not ((right.accepting >> r) & 1):
            return False
        for a in range(width):
            pair = (left.delta[a][l], right.delta[a][r])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def antichain_language_subset(
    left: BitDFA, right: NFA, alphabet: Alphabet
) -> bool:
    """``L(left) ⊆ L(right)`` by antichain search — no determinization.

    Explores pairs ``(l, S)`` of a left state and a bitmask of right
    states simultaneously reachable on some word; the word is a
    counterexample when ``l`` accepts and ``S`` misses every accepting
    right state.  Since a pair with a *smaller* ``S`` dominates (fewer
    right states to escape from), only ⊆-minimal masks are kept per left
    state — the antichain that bounds the search far below the 2^n
    subset construction in practice.
    """
    symbols = tuple(alphabet)
    sym_id = {symbol: index for index, symbol in enumerate(symbols)}
    width = len(symbols)
    nr = right.n_states

    closure_mask: List[int] = []
    for r in range(nr):
        mask = 0
        for state in right.epsilon_closure((r,)):
            mask |= 1 << state
        closure_mask.append(mask)
    succ: List[List[int]] = [[0] * width for _ in range(nr)]
    for r in range(nr):
        for guard, target in right.edges_from(r):
            tmask = closure_mask[target]
            for symbol in concretize_class(guard, alphabet):
                succ[r][sym_id[symbol]] |= tmask
    acc_right = 0
    for state in right.accepting:
        acc_right |= 1 << state

    start_mask = closure_mask[right.initial]
    frontier: List[Tuple[int, int]] = [(left.initial, start_mask)]
    antichain: Dict[int, List[int]] = {left.initial: [start_mask]}
    pairs = 0
    result = True
    while frontier:
        l, mask = frontier.pop()
        pairs += 1
        if (left.accepting >> l) & 1 and not (mask & acc_right):
            result = False
            break
        for a in range(width):
            l2 = left.delta[a][l]
            mask2 = 0
            for r in iter_bits(mask):
                mask2 |= succ[r][a]
            kept = antichain.setdefault(l2, [])
            # Skip if a dominated (⊆) mask was already explored; drop
            # entries the new mask dominates.
            if any(existing & mask2 == existing for existing in kept):
                continue
            kept[:] = [e for e in kept if e & mask2 != mask2]
            kept.append(mask2)
            frontier.append((l2, mask2))
    metrics = obs.metrics()
    if metrics.enabled:
        record_work(
            metrics, "subset",
            {"antichain_pairs": pairs,
             "antichain_size": sum(len(v) for v in antichain.values())},
        )
    return result
