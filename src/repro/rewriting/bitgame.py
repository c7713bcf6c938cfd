"""The marking game and possible-rewriting reachability, on bitmasks.

This is the one solver behind :func:`repro.rewriting.safe.analyze_safe`,
:func:`repro.rewriting.lazy.analyze_safe_lazy` and
:func:`repro.rewriting.possible.analyze_possible`.  The complement side
is a :class:`repro.automata.bitset.BitDFA` and the product
``A_w^k × Ā`` is never materialized as nodes at all: for each expansion
state ``q`` we keep one integer mask over complement states, and the
whole marking fixpoint becomes mask arithmetic —

- a *return* edge ``q -> t`` (adversary ends an output) contributes
  ``M[t]`` to ``M[q]`` unchanged (epsilon: the complement stays put);
- a *fork* edge (our keep/invoke choice on symbol ``f``) contributes
  ``pre_f(M[keep]) & M[invoke]`` — the adversary wins only where *both*
  options lose;
- a plain symbol edge with guard ``g`` contributes
  ``∪_{a ∈ g} pre_a(M[t])`` — the adversary picks the letter.

Seeds are ``accepting(Ā)`` at the expansion's final state; the lazy
variant additionally seeds every accepting *sink* of ``Ā`` (Figure 12's
pruning) and absorbs forward exploration there.  The fixpoint is the
least fixpoint of Figure 3's marking, so verdicts agree with the
reference interpreter (:mod:`repro.conformance.reference`), which the
conformance fuzzer checks on every seed.

The solved analyses are returned as the ordinary
:class:`~repro.rewriting.safe.SafeAnalysis` /
:class:`~repro.rewriting.possible.PossibleAnalysis` objects, which keep
what the solve computed: the cached complement / target
:class:`~repro.automata.bitset.BitDFA` and the per-expansion-state
masks ``marked`` / ``explored`` / ``alive``.  The executors, the
strategy helpers and the dot renderer read those directly, so no other
automaton representation exists at run time.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.bitset import BitDFA
from repro.automata.symbols import Alphabet, concretize_class
from repro.compile import context as compile_context
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.regex.ast import Regex
from repro.rewriting.expansion import Expansion, build_expansion

#: A product node, as elsewhere: (expansion state, automaton state).
PNode = Tuple[int, int]


class _ExpansionView:
    """An expansion's edges re-indexed for mask arithmetic.

    Built once per (expansion, alphabet) and cached on the expansion
    object — expansions are immutable and shared via the compile cache,
    so the view is shared exactly as widely, and lives as long.  Each
    per-state row is a tuple, and every empty row is the one shared
    ``()``: most states have no edge of most kinds, so lists per state
    and kind would dominate the view's size.
    """

    __slots__ = ("n_states", "plain_out", "fork_out", "ret_out", "eps_out",
                 "sym_out", "eps_in", "sym_in", "reads")

    def __init__(self, expansion: Expansion, alphabet: Alphabet):
        sym_id = {symbol: index for index, symbol in enumerate(alphabet)}
        n = expansion.n_states
        self.n_states = n
        ids_of: Dict[object, Tuple[int, ...]] = {}
        # Game alternatives (invoke edges ride along their fork), and the
        # plain graph possible-rewriting reachability walks.
        plain, fork, ret, eps, sym = ([None] * n for _ in range(5))
        for edge in expansion.edges:
            source = edge.source
            if edge.kind == "invoke":
                _append(eps, source, edge.target)
                continue
            if edge.kind == "return":
                _append(ret, source, edge.target)
                _append(eps, source, edge.target)
                continue
            ids = ids_of.get(edge.guard)
            if ids is None:
                ids = ids_of[edge.guard] = tuple(
                    sym_id[symbol]
                    for symbol in sorted(concretize_class(edge.guard, alphabet))
                )
            entry = (edge.target, ids)
            _append(sym, source, entry)
            if edge.invoke_edge is not None:
                invoke = expansion.edge(edge.invoke_edge)
                # Fork guards are function names — always in the alphabet.
                _append(fork, source, (edge.target, ids[0], invoke.target))
            else:
                _append(plain, source, entry)
        self.plain_out = _freeze(plain)
        self.fork_out = _freeze(fork)
        self.ret_out = _freeze(ret)
        self.eps_out = _freeze(eps)
        self.sym_out = _freeze(sym)
        # Reverse adjacency: the possible pass propagates backward along
        # sym_in/eps_in; reads[t] lists the sources whose mask reads M[t].
        sym_in, eps_in, reads = ([None] * n for _ in range(3))
        for q in range(n):
            for target, ids in self.sym_out[q]:
                _append(sym_in, target, (q, ids))
            for target in self.eps_out[q]:
                _append(eps_in, target, q)
            for target, _ids in self.plain_out[q]:
                _append(reads, target, q)
            for keep_target, _a, invoke_target in self.fork_out[q]:
                _append(reads, keep_target, q)
                _append(reads, invoke_target, q)
            for target in self.ret_out[q]:
                _append(reads, target, q)
        self.sym_in = _freeze(sym_in)
        self.eps_in = _freeze(eps_in)
        self.reads = _freeze(reads)


def _append(rows: List[Optional[list]], q: int, item) -> None:
    """Append to row ``q``, allocating its list on first use."""
    row = rows[q]
    if row is None:
        rows[q] = [item]
    else:
        row.append(item)


def _freeze(rows: List[Optional[list]]) -> Tuple[tuple, ...]:
    """The rows as tuples, every empty one the shared ``()``.

    Consumes ``rows``: the build lists are freed as soon as their
    tuples exist, which keeps the build's peak near the view's size.
    """
    frozen = tuple(tuple(row) if row else () for row in rows)
    rows.clear()
    return frozen


def expansion_view(expansion: Expansion, alphabet: Alphabet) -> _ExpansionView:
    """The cached mask-arithmetic view of an expansion."""
    cache = expansion.__dict__.setdefault("_bit_views", {})
    view = cache.get(alphabet.symbols)
    if view is None:
        view = _ExpansionView(expansion, alphabet)
        cache[alphabet.symbols] = view
    return view


def _solve_marking(
    view: _ExpansionView, comp: BitDFA, final: int, lazy: bool,
    work: Optional[Dict[str, int]] = None,
) -> List[int]:
    """The least-fixpoint marking, one mask per expansion state.

    ``work`` (when given) accumulates deterministic counters:
    ``mark_pops`` (worklist pops) and ``mark_updates`` (masks grown).
    """
    n = view.n_states
    base = [0] * n
    base[final] = comp.accepting
    if lazy:
        sinks = comp.sink_mask() & comp.accepting
        if sinks:
            for q in range(n):
                base[q] |= sinks
    marked = list(base)
    plain_out, fork_out, ret_out = view.plain_out, view.fork_out, view.ret_out
    pre_tables = comp.preimage_tables()
    pops = updates = 0

    # Contributions read successor masks and expansion ids mostly ascend,
    # so seeding the worklist in reverse order settles the deep states
    # first and the fixpoint converges in near-one pass.
    queue = deque(range(n - 1, -1, -1))
    queued = bytearray(b"\x01") * n
    push = queue.append
    while queue:
        q = queue.popleft()
        queued[q] = 0
        pops += 1
        mask = base[q]
        for target, ids in plain_out[q]:
            bad = marked[target]
            if bad:
                for a in ids:
                    chunks = pre_tables[a]
                    rest = bad
                    chunk = 0
                    while rest:
                        byte = rest & 0xFF
                        if byte:
                            mask |= chunks[chunk][byte]
                        rest >>= 8
                        chunk += 1
        for keep_target, a, invoke_target in fork_out[q]:
            keep_bad = marked[keep_target]
            invoke_bad = marked[invoke_target]
            if keep_bad and invoke_bad:
                folded = 0
                chunks = pre_tables[a]
                rest = keep_bad
                chunk = 0
                while rest:
                    byte = rest & 0xFF
                    if byte:
                        folded |= chunks[chunk][byte]
                    rest >>= 8
                    chunk += 1
                mask |= folded & invoke_bad
        for target in ret_out[q]:
            mask |= marked[target]
        if mask != marked[q]:
            marked[q] = mask
            updates += 1
            for source in view.reads[q]:
                if not queued[source]:
                    queued[source] = 1
                    push(source)
    if work is not None:
        work["mark_pops"] = work.get("mark_pops", 0) + pops
        work["mark_updates"] = work.get("mark_updates", 0) + updates
    return marked


def _reach_game(
    view: _ExpansionView, comp: BitDFA, initial: PNode, final: int,
    absorb: int, work: Optional[Dict[str, int]] = None,
) -> List[int]:
    """Forward reachability along game alternatives, masks per state.

    ``absorb`` is a complement-state mask whose nodes are discovered but
    never expanded (the lazy variant's accepting sinks; 0 = expand all).
    ``work`` (when given) accumulates ``reach_pops`` (worklist pops) and
    ``frontier_bits`` (total fresh bits expanded).
    """
    n = view.n_states
    reach = [0] * n
    q0, p0 = initial
    reach[q0] = 1 << p0
    plain_out, fork_out, ret_out = view.plain_out, view.fork_out, view.ret_out
    singles = comp.image_singles()
    pops = frontier_bits = 0

    # FIFO worklist with bytearray dirty flags and ``done`` masks:
    # every (state, bit) pair is expanded exactly once, with the image
    # folded inline bit by bit — the product walk is nearly sequential
    # (frontier masks carry only a couple of fresh bits), so per-edge
    # overhead, not mask width, is what this loop is bound by.
    done = [0] * n
    dirty = bytearray(n)
    dirty[q0] = 1
    queue = deque((q0,))
    push = queue.append
    while queue:
        q = queue.popleft()
        dirty[q] = 0
        pops += 1
        if q == final:
            continue  # the final state has no outgoing alternatives
        fresh = (reach[q] & ~absorb) & ~done[q]
        if not fresh:
            continue
        done[q] |= fresh
        frontier_bits += fresh.bit_count()
        for target, ids in plain_out[q]:
            mask = 0
            for a in ids:
                bits = singles[a]
                rest = fresh
                while rest:
                    low = rest & -rest
                    mask |= bits[low.bit_length() - 1]
                    rest ^= low
            if mask & ~reach[target]:
                reach[target] |= mask
                if not dirty[target]:
                    dirty[target] = 1
                    push(target)
        for keep_target, a, invoke_target in fork_out[q]:
            mask = 0
            bits = singles[a]
            rest = fresh
            while rest:
                low = rest & -rest
                mask |= bits[low.bit_length() - 1]
                rest ^= low
            if mask & ~reach[keep_target]:
                reach[keep_target] |= mask
                if not dirty[keep_target]:
                    dirty[keep_target] = 1
                    push(keep_target)
            if fresh & ~reach[invoke_target]:
                reach[invoke_target] |= fresh
                if not dirty[invoke_target]:
                    dirty[invoke_target] = 1
                    push(invoke_target)
        for target in ret_out[q]:
            if fresh & ~reach[target]:
                reach[target] |= fresh
                if not dirty[target]:
                    dirty[target] = 1
                    push(target)
    if work is not None:
        work["reach_pops"] = work.get("reach_pops", 0) + pops
        work["frontier_bits"] = work.get("frontier_bits", 0) + frontier_bits
    return reach


def solve_safe(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    target: Regex,
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    lazy: bool = False,
    compile_cache=None,
):
    """Solve the safe-rewriting game; returns a ``SafeAnalysis``.

    ``lazy=False`` is Figure 3's eager game, ``lazy=True`` adds Figure
    12's sink pruning — same answers, same strategy; the lazy pass
    explores no more than the eager one, and strictly fewer nodes
    whenever a sink is reachable.  The marking always runs to the
    fixpoint: on masks that is cheaper than stopping early.
    """
    from repro.rewriting.safe import GameStats, SafeAnalysis, problem_alphabet

    tracer = obs.tracer()
    cc = compile_cache if compile_cache is not None else compile_context.cache()
    algorithm = "safe-lazy" if lazy else "safe-eager"
    with tracer.span("product", algorithm=algorithm, k=k) as span:
        alphabet = problem_alphabet(word, output_types, target)
        expansion = build_expansion(
            word, output_types, k, invocable, compile_cache=cc
        )
        comp = cc.bit_complement(target, alphabet)
        view = expansion_view(expansion, alphabet)
        span.set(
            expansion_states=expansion.n_states,
            complement_states=comp.n,
        )

    with tracer.span("game", algorithm=algorithm) as span:
        work: Dict[str, int] = {}
        marked = _solve_marking(view, comp, expansion.final, lazy, work)
        absorb = (comp.sink_mask() & comp.accepting) if lazy else 0
        reach = _reach_game(
            view, comp, (expansion.initial, comp.initial), expansion.final,
            absorb, work,
        )
        q0, p0 = expansion.initial, comp.initial
        exists = not ((marked[q0] >> p0) & 1)

        explored = sum(mask.bit_count() for mask in reach)
        if lazy:
            # Discovered-but-not-expanded: absorbed sink nodes, plus the
            # final state's seed nodes (marked on sight, never expanded).
            skipped = sum((mask & absorb).bit_count() for mask in reach)
            skipped += (
                reach[expansion.final] & comp.accepting & ~absorb
            ).bit_count()
            expanded = explored - skipped
        else:
            expanded = explored
        marked_reached = [m & r for m, r in zip(marked, reach)]
        marked_count = sum(mask.bit_count() for mask in marked_reached)
        span.set(
            product_nodes=explored, explored=expanded,
            marked=marked_count, exists=exists, **work,
        )
        work["product_nodes"] = explored
        work["marked_nodes"] = marked_count
        record_work(obs.metrics(), "game", work, algorithm=algorithm)

    return SafeAnalysis(
        word=tuple(word),
        k=k,
        target=target,
        expansion=expansion,
        comp=comp,
        alphabet=alphabet,
        marked=marked_reached,
        explored=reach,
        exists=exists,
        stats=GameStats(
            expansion_states=expansion.n_states,
            expansion_edges=len(expansion.edges),
            complement_states=comp.n,
            product_nodes=explored,
            product_explored=expanded,
            marked_nodes=marked_count,
        ),
    )


def solve_possible(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    target: Regex,
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    compile_cache=None,
):
    """Possible rewriting (Figure 9); returns a ``PossibleAnalysis``.

    Forward reachability then backward co-reachability, both as mask
    fixpoints over ``A_w^k × A``.
    """
    from repro.rewriting.possible import PossibleAnalysis
    from repro.rewriting.safe import GameStats, problem_alphabet

    tracer = obs.tracer()
    cc = compile_cache if compile_cache is not None else compile_context.cache()
    with tracer.span("product", algorithm="possible", k=k) as span:
        alphabet = problem_alphabet(word, output_types, target)
        expansion = build_expansion(
            word, output_types, k, invocable, compile_cache=cc
        )
        target_bit = cc.bit_target_dfa(target, alphabet)
        view = expansion_view(expansion, alphabet)
        span.set(
            expansion_states=expansion.n_states,
            target_states=target_bit.n,
        )

    n = view.n_states
    sym_out, eps_out = view.sym_out, view.eps_out

    with tracer.span("game", algorithm="possible") as span:
        work: Dict[str, int] = {"reach_pops": 0, "frontier_bits": 0,
                                "back_pops": 0, "back_bits": 0}
        # Forward reachability (every fork option is a plain edge here) —
        # the same inline bit-by-bit fold worklist as :func:`_reach_game`.
        singles = target_bit.image_singles()
        reach = [0] * n
        q0, p0 = expansion.initial, target_bit.initial
        reach[q0] = 1 << p0
        done = [0] * n
        dirty = bytearray(n)
        dirty[q0] = 1
        queue = deque((q0,))
        push = queue.append
        while queue:
            q = queue.popleft()
            dirty[q] = 0
            work["reach_pops"] += 1
            fresh = reach[q] & ~done[q]
            if not fresh:
                continue
            done[q] |= fresh
            work["frontier_bits"] += fresh.bit_count()
            for target_state, ids in sym_out[q]:
                mask = 0
                for a in ids:
                    bits = singles[a]
                    rest = fresh
                    while rest:
                        low = rest & -rest
                        mask |= bits[low.bit_length() - 1]
                        rest ^= low
                if mask & ~reach[target_state]:
                    reach[target_state] |= mask
                    if not dirty[target_state]:
                        dirty[target_state] = 1
                        push(target_state)
            for target_state in eps_out[q]:
                if fresh & ~reach[target_state]:
                    reach[target_state] |= fresh
                    if not dirty[target_state]:
                        dirty[target_state] = 1
                        push(target_state)

        # Backward co-reachability from the accepting nodes (step 5) —
        # delta propagation along the reverse adjacency: a node's alive
        # bits flow to its predecessors exactly once (preimage is a
        # union-fold, so propagating only the growth is sound).
        pred = target_bit.pred()
        sym_in, eps_in = view.sym_in, view.eps_in
        alive = [0] * n
        pending = [0] * n
        seed = reach[expansion.final] & target_bit.accepting
        alive[expansion.final] = pending[expansion.final] = seed
        queue = deque((expansion.final,) if seed else ())
        push = queue.append
        dirty = bytearray(n)
        dirty[expansion.final] = 1
        while queue:
            t = queue.popleft()
            dirty[t] = 0
            work["back_pops"] += 1
            delta = pending[t]
            pending[t] = 0
            if not delta:
                continue
            work["back_bits"] += delta.bit_count()
            for src, ids in sym_in[t]:
                mask = 0
                for a in ids:
                    bits = pred[a]
                    rest = delta
                    while rest:
                        low = rest & -rest
                        mask |= bits[low.bit_length() - 1]
                        rest ^= low
                add = mask & reach[src] & ~alive[src]
                if add:
                    alive[src] |= add
                    pending[src] |= add
                    if not dirty[src]:
                        dirty[src] = 1
                        push(src)
            for src in eps_in[t]:
                add = delta & reach[src] & ~alive[src]
                if add:
                    alive[src] |= add
                    pending[src] |= add
                    if not dirty[src]:
                        dirty[src] = 1
                        push(src)

        exists = bool((alive[q0] >> p0) & 1)
        product_nodes = sum(mask.bit_count() for mask in reach)
        alive_count = sum(mask.bit_count() for mask in alive)
        span.set(
            product_nodes=product_nodes, alive=alive_count, exists=exists,
            **work,
        )
        work["product_nodes"] = product_nodes
        work["alive_nodes"] = alive_count
        record_work(obs.metrics(), "game", work, algorithm="possible")

    return PossibleAnalysis(
        word=tuple(word),
        k=k,
        target=target,
        expansion=expansion,
        target_dfa=target_bit,
        alphabet=alphabet,
        alive=alive,
        exists=exists,
        stats=GameStats(
            expansion_states=expansion.n_states,
            expansion_edges=len(expansion.edges),
            complement_states=target_bit.n,
            product_nodes=product_nodes,
            product_explored=product_nodes,
            marked_nodes=alive_count,
        ),
    )
