"""Possible rewriting (Figure 9): reachability instead of a game.

Where safe rewriting demands success for *every* type-conforming output,
possible rewriting asks whether *some* sequence of calls with some lucky
outputs makes the word match.  On automata this is plain language
intersection: build ``A_w^k × A`` (the target itself, not its complement)
and test whether an accepting state is reachable (steps 4-6).

Execution (steps 7-10) follows an accepting path, invoking as the fork
options on it dictate — and **backtracks** when a call returns a value
that does not allow continuing (step 9).  Side effects of backtracked
calls have already happened; the invocation log keeps them, flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.bitset import BitDFA
from repro.automata.symbols import Alphabet, class_matches, concretize_class
from repro.doc.nodes import FunctionCall, Node, symbol_of
from repro.errors import (
    FunctionUnavailableError,
    NoPossibleRewritingError,
    RewriteExecutionError,
    ServiceFault,
)
from repro.regex.ast import Regex
from repro.rewriting.bitgame import solve_possible
from repro.rewriting.expansion import Edge, Expansion
from repro.rewriting.plan import InvocationLog, timed_invoke
from repro.rewriting.safe import GameStats, Invoker, PNode


@dataclass
class PossibleAnalysis:
    """The solved reachability problem for one children word.

    ``alive[q]`` is a bitmask over the states of ``target_dfa`` (the
    cached minimized target automaton): the reachable product nodes
    ``(q, p)`` from which an accepting node is still reachable.  A
    rewriting may exist iff the initial node is alive (step 6).
    """

    word: Tuple[str, ...]
    k: int
    target: Regex
    expansion: Expansion
    target_dfa: BitDFA
    alphabet: Alphabet
    alive: List[int]
    exists: bool
    stats: GameStats

    @property
    def initial(self) -> PNode:
        return (self.expansion.initial, self.target_dfa.initial)

    def is_alive(self, node: PNode) -> bool:
        q, p = node
        return bool((self.alive[q] >> p) & 1)

    def is_accepting(self, node: PNode) -> bool:
        q, p = node
        return q == self.expansion.final and bool(
            (self.target_dfa.accepting >> p) & 1
        )

    def witness(self) -> Tuple[str, ...]:
        """Some word of ``lang(A_w^k) ∩ lang(R)`` — the hoped-for result.

        Raises :class:`NoPossibleRewritingError` when none exists.
        """
        if not self.exists:
            raise NoPossibleRewritingError(
                "%s cannot rewrite into %s" % (".".join(self.word), self.target)
            )
        # BFS over alive nodes, collecting emitted symbols.
        from collections import deque

        queue = deque([(self.initial, ())])
        seen = {self.initial}
        while queue:
            node, emitted = queue.popleft()
            if self.is_accepting(node):
                return emitted
            for edge, symbol, succ in _successors(self, node):
                if self.is_alive(succ) and succ not in seen:
                    seen.add(succ)
                    extended = emitted + ((symbol,) if symbol else ())
                    queue.append((succ, extended))
        raise AssertionError("alive initial node but no accepting path")


def _successors(
    analysis: PossibleAnalysis, node: PNode
) -> List[Tuple[Edge, Optional[str], PNode]]:
    """All product moves — fork options are plain edges here (no game)."""
    q, p = node
    step = analysis.target_dfa.step
    result: List[Tuple[Edge, Optional[str], PNode]] = []
    for edge in analysis.expansion.edges_from(q):
        if edge.is_epsilon:
            result.append((edge, None, (edge.target, p)))
            continue
        for symbol in concretize_class(edge.guard, analysis.alphabet):
            result.append((edge, symbol, (edge.target, step(p, symbol))))
    return result


def analyze_possible(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    target: Regex,
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    compile_cache=None,
) -> PossibleAnalysis:
    """Solve possible rewriting: co-reachability on ``A_w^k × A``.

    Polynomial in the schemas (no complementation), as Section 5 notes.
    Both reachability passes run as mask fixpoints in
    :func:`repro.rewriting.bitgame.solve_possible`.  The target DFA
    comes minimized from the compilation cache; the reachability answer
    and the witness depend only on its language.
    """
    return solve_possible(
        word, output_types, target, k=k, invocable=invocable,
        compile_cache=compile_cache,
    )


# ---------------------------------------------------------------------------
# Backtracking execution (steps 7-10)
# ---------------------------------------------------------------------------

#: Work items for the executor: actual nodes to consume, or copy exits.
_Item = Tuple[str, object]


def execute_possible(
    analysis: PossibleAnalysis,
    children: Sequence[Node],
    invoker: Invoker,
    log: Optional[InvocationLog] = None,
    cost_of: Optional[Callable[[str], float]] = None,
    max_invocations: int = 10_000,
) -> Tuple[Tuple[Node, ...], InvocationLog]:
    """Execute with backtracking; returns the rewritten children.

    Fork options are tried cheapest-first (keep costs nothing).  When an
    invocation's actual output leaves the alive region the branch is
    abandoned — the call is flagged as backtracked in the log, because
    its side effects are not undone — and the next option is tried.

    Invocations that *fault* are treated the same way: the branch fails
    and the search backtracks to other options instead of aborting, so a
    flaky provider only costs the plans that needed it.  If every branch
    fails and the resilient layer declared some function unavailable,
    that :class:`FunctionUnavailableError` is re-raised so the engine
    can degrade gracefully (re-plan without the dead function).

    Raises :class:`NoPossibleRewritingError` when the analysis already
    ruled a rewriting out, :class:`RewriteExecutionError` when every
    branch fails at run time.
    """
    if not analysis.exists:
        raise NoPossibleRewritingError(
            "%s cannot rewrite into %s (no word of the expansion is in the "
            "target language)" % (".".join(analysis.word) or "eps", analysis.target)
        )
    log = log if log is not None else InvocationLog()
    cost_of = cost_of or (lambda _name: 1.0)
    budget = [max_invocations]
    faults: List[ServiceFault] = []

    items: Tuple[_Item, ...] = tuple(("node", child, 1) for child in children)
    result = _search(
        analysis, analysis.initial, items, invoker, log, cost_of, budget, faults
    )
    if result is None:
        for fault in faults:
            if isinstance(fault, FunctionUnavailableError):
                raise fault
        if faults:
            raise RewriteExecutionError(
                "every backtracking branch failed; %d branch(es) died on "
                "service faults (first: %s)" % (len(faults), faults[0])
            )
        raise RewriteExecutionError(
            "every backtracking branch failed: the services never returned "
            "outputs matching the target"
        )
    return tuple(result), log


def _search(
    analysis: PossibleAnalysis,
    node: PNode,
    items: Tuple[_Item, ...],
    invoker: Invoker,
    log: InvocationLog,
    cost_of: Callable[[str], float],
    budget: List[int],
    faults: List[ServiceFault],
) -> Optional[List[Node]]:
    if not analysis.is_alive(node):
        return None
    if not items:
        return [] if analysis.is_accepting(node) else None

    kind, payload, depth = items[0]
    rest = items[1:]
    expansion = analysis.expansion

    if kind == "exit":
        copy_id = payload  # type: ignore[assignment]
        copy = expansion.copies[copy_id]
        return_edge_id = copy.return_edges.get(node[0])
        if return_edge_id is None:
            return None  # output did not complete the copy's language
        edge = expansion.edge(return_edge_id)
        return _search(
            analysis, (edge.target, node[1]), rest, invoker, log, cost_of,
            budget, faults,
        )

    child: Node = payload  # type: ignore[assignment]
    symbol = symbol_of(child)
    q, p = node
    candidates = [
        edge
        for edge in expansion.edges_from(q)
        if edge.kind == "symbol" and class_matches(edge.guard, symbol)
    ]
    for edge in candidates:
        # Option 1 (free): keep the node as is.
        succ = (edge.target, analysis.target_dfa.step(p, symbol))
        sub = _search(
            analysis, succ, rest, invoker, log, cost_of, budget, faults
        )
        if sub is not None:
            return [child] + sub
        # Option 2: invoke, when this edge is a fork and the child a call.
        if edge.invoke_edge is None or not isinstance(child, FunctionCall):
            continue
        invoke_edge = expansion.edge(edge.invoke_edge)
        entry = (invoke_edge.target, p)
        if not analysis.is_alive(entry):
            continue
        if budget[0] <= 0:
            raise RewriteExecutionError("invocation budget exhausted")
        budget[0] -= 1
        try:
            forest, elapsed = timed_invoke(invoker, child)
        except ServiceFault as fault:
            # A faulted invocation fails only this branch: keep searching
            # other options (step 9's backtracking extended to faults).
            if getattr(fault, "function", None) is None:
                fault.function = child.name
            faults.append(fault)
            continue
        record_index = len(log.records)
        log.add(
            child.name, depth, tuple(symbol_of(t) for t in forest),
            cost_of(child.name), elapsed=elapsed,
        )
        new_items = (
            tuple(("node", tree, depth + 1) for tree in forest)
            + (("exit", invoke_edge.copy, depth),)
            + rest
        )
        sub = _search(
            analysis, entry, new_items, invoker, log, cost_of, budget, faults
        )
        if sub is not None:
            return sub
        log.mark_backtracked(record_index)
    return None
