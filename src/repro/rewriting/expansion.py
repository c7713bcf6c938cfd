"""The k-depth expansion automaton ``A_w^k`` (Figure 3, steps 5-10).

``A_w^k`` accepts exactly the words that can be produced from ``w`` by a
k-depth left-to-right rewriting.  It starts as the linear automaton for
``w``; then, for k rounds, every *untreated* edge labeled by an invocable
function ``f`` gets a fresh copy of the automaton for ``tau_out(f)``
attached in parallel (linked with epsilon moves), and its source becomes
a **fork node**: the two *fork options* — follow the function edge (do
not invoke) or the new epsilon edge (invoke) — are the choice the
rewriter controls in the marking game of :mod:`repro.rewriting.safe`.

Compared to a plain NFA, edges carry structured metadata:

- ``kind``: ``"symbol"`` (a letter), ``"invoke"`` (the epsilon into a
  copy) or ``"return"`` (the epsilon from a copy's accepting state back
  to the continuation);
- ``invoke_edge``: set on expanded function edges, pairing the edge with
  its invoke alternative;
- ``copy``: which attached signature copy the edge belongs to — the plan
  executor uses it to find the right return edge after consuming a
  call's actual output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.symbols import SymbolClass
from repro.compile import context as compile_context
from repro.regex.ast import Regex


@dataclass(slots=True)
class Edge:
    """One transition of ``A_w^k`` (slotted: expansions hold many)."""

    eid: int
    source: int
    target: int
    guard: Optional[SymbolClass]  # None for epsilon edges
    kind: str  # "symbol" | "invoke" | "return"
    depth: int  # expansion round that created the edge (0 = base word)
    copy: Optional[int] = None  # id of the signature copy the edge lives in
    invoke_edge: Optional[int] = None  # for expanded function edges

    @property
    def is_epsilon(self) -> bool:
        return self.guard is None


@dataclass
class CopyInfo:
    """One attached copy of a function's output-type automaton."""

    cid: int
    function: str
    depth: int
    entry: int  # state the invoke edge leads to
    accepting: Tuple[int, ...]  # copy states with a return edge
    return_edges: Dict[int, int]  # accepting copy state -> return edge id
    call_edge: int  # the function edge this copy expands


@dataclass
class Expansion:
    """The automaton ``A_w^k`` with fork bookkeeping."""

    word: Tuple[str, ...]
    k: int
    n_states: int
    initial: int
    final: int  # the single accepting state (end of the base word)
    edges: List[Edge] = field(default_factory=list)
    out: Dict[int, List[int]] = field(default_factory=dict)  # state -> edge ids
    copies: Dict[int, CopyInfo] = field(default_factory=dict)

    def edges_from(self, state: int) -> List[Edge]:
        """Outgoing edges of a state."""
        return [self.edges[eid] for eid in self.out.get(state, ())]

    def edge(self, eid: int) -> Edge:
        """Edge by id."""
        return self.edges[eid]

    def fork_edges(self) -> List[Edge]:
        """All expanded function edges (each defines a fork)."""
        return [e for e in self.edges if e.invoke_edge is not None]

    def size(self) -> Tuple[int, int]:
        """(number of states, number of edges) — benchmark E9 reads this."""
        return (self.n_states, len(self.edges))


def build_expansion(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    compile_cache=None,
) -> Expansion:
    """Build ``A_w^k`` for a children word.

    The whole construction is memoized in the shared compilation cache
    by exact content key — ``(word, output-type digests, k, invocable
    partition)`` — and each attached signature copy draws its Glushkov
    NFA from the same cache, so a function's output type is compiled
    once per process however many times it is expanded.  Expansions are
    immutable after construction, which is what makes the sharing safe.

    Args:
        word: the children word ``w`` (labels, function names, ``#data``).
        output_types: ``tau_out`` for every function that *may* be
            invoked; symbols without an entry are plain letters.
        k: the depth bound of Definition 7.
        invocable: the legality filter of Section 2.1 — functions failing
            it keep their edges unexpanded even when a signature is known.
        compile_cache: explicit compilation cache; None uses the ambient
            one (:func:`repro.compile.context.cache`).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    can_invoke = invocable or (lambda _name: True)
    cc = compile_cache if compile_cache is not None else compile_context.cache()
    # The filter is only ever consulted for names with a known signature,
    # so the frozen partition below is an exact stand-in for the callable.
    invocable_names = frozenset(
        name for name in output_types if can_invoke(name)
    )
    if not cc.enabled:
        return _build_expansion(word, output_types, k, invocable_names, cc)
    key = cc.expansion_key(tuple(word), output_types, k, invocable_names)
    return cc.expansion(
        key,
        lambda: _build_expansion(word, output_types, k, invocable_names, cc),
    )


def _build_expansion(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    k: int,
    invocable_names: frozenset,
    cc,
) -> Expansion:
    expansion = Expansion(
        word=tuple(word),
        k=k,
        n_states=len(word) + 1,
        initial=0,
        final=len(word),
    )

    def add_edge(
        source: int,
        target: int,
        guard: Optional[SymbolClass],
        kind: str,
        depth: int,
        copy: Optional[int] = None,
    ) -> Edge:
        edge = Edge(len(expansion.edges), source, target, guard, kind, depth, copy)
        expansion.edges.append(edge)
        expansion.out.setdefault(source, []).append(edge.eid)
        return edge

    # Base: the linear automaton accepting w as a single word (step 2).
    untreated: List[Edge] = []
    for index, symbol in enumerate(word):
        edge = add_edge(index, index + 1, symbol, "symbol", 0)
        untreated.append(edge)

    # k expansion rounds (steps 6-10).
    for round_number in range(1, k + 1):
        current, untreated = untreated, []
        for edge in current:
            name = edge.guard
            if not isinstance(name, str):
                continue
            output_type = output_types.get(name)
            if output_type is None or name not in invocable_names:
                continue
            new_edges = _attach_copy(
                expansion, add_edge, edge, output_type, round_number, cc
            )
            untreated.extend(new_edges)
        if not untreated:
            break

    return expansion


def _attach_copy(
    expansion: Expansion,
    add_edge,
    call_edge: Edge,
    output_type: Regex,
    depth: int,
    cc,
) -> List[Edge]:
    """Attach a copy of ``A_f`` in parallel with a function edge (step 8).

    Returns the copy's freshly created symbol edges, which become the
    next round's untreated edges.
    """
    nfa = cc.nfa(output_type)
    offset = expansion.n_states
    expansion.n_states += nfa.n_states
    cid = len(expansion.copies)

    # The invoke option: an epsilon edge from the fork node into the copy.
    invoke = add_edge(
        call_edge.source, nfa.initial + offset, None, "invoke", depth, cid
    )
    call_edge.invoke_edge = invoke.eid

    new_symbol_edges: List[Edge] = []
    for state in range(nfa.n_states):
        for guard, target in nfa.edges_from(state):
            edge = add_edge(
                state + offset, target + offset, guard, "symbol", depth, cid
            )
            new_symbol_edges.append(edge)

    # Return edges: from the copy's accepting states back to the
    # continuation of the original word.
    return_edges: Dict[int, int] = {}
    accepting = tuple(sorted(s + offset for s in nfa.accepting))
    for state in accepting:
        edge = add_edge(state, call_edge.target, None, "return", depth, cid)
        return_edges[state] = edge.eid

    expansion.copies[cid] = CopyInfo(
        cid=cid,
        function=str(call_edge.guard),
        depth=depth,
        entry=nfa.initial + offset,
        accepting=accepting,
        return_edges=return_edges,
        call_edge=call_edge.eid,
    )
    return new_symbol_edges
