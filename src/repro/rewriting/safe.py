"""Safe rewriting: the marking game on ``A_w^k × Ā`` (Figure 3).

Construction (steps 1-14): build ``A_w^k`` (see
:mod:`repro.rewriting.expansion`), the complete deterministic complement
``Ā`` of the target language, and their cartesian product restricted to
reachable states.

Marking (steps 15-17) is a two-player reachability game:

- *our* moves are the fork options — at every expanded function edge we
  choose to keep the call (follow the function edge) or invoke it
  (follow the epsilon edge into the signature copy);
- the *adversary's* moves are everything else — which word an invoked
  call actually returns (the branching inside signature copies, and
  where the output stops).

A product node is **marked** (bad: the adversary can force a word outside
the target language) iff it is accepting — the base word was consumed and
``Ā`` accepts, i.e. the produced word is *not* in ``R`` — or some
adversarial alternative has *all* of our options marked.  A safe
rewriting exists iff the initial state is unmarked (step 18); the
unmarked region is then a winning strategy that
:func:`execute_safe` follows while performing real calls (steps 19-23).

The fixpoint itself runs as mask arithmetic in
:mod:`repro.rewriting.bitgame`; this module holds the solved analysis,
the per-node strategy helpers and the strategy walk that read it — on
the solver's own cached ``Ā`` and marking masks.  The walk serves both
executors: :func:`execute_safe` keeps a call whenever that is safe, and
:func:`repro.rewriting.optimal.execute_safe_optimal` passes in its
cost-optimal fork decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.automata.bitset import BitDFA
from repro.automata.symbols import Alphabet, class_matches, concretize_class, regex_symbols
from repro.doc.nodes import FunctionCall, Node, symbol_of
from repro.errors import NoSafeRewritingError, RewriteExecutionError, ServiceFault
from repro.regex.ast import Regex
from repro.rewriting.bitgame import solve_safe
from repro.rewriting.expansion import CopyInfo, Edge, Expansion
from repro.rewriting.plan import (
    DEPENDS,
    INVOKE,
    KEEP,
    Decision,
    InvocationLog,
    timed_invoke,
)

if TYPE_CHECKING:
    from repro.automata.dfa import DFA

#: A product node: (expansion state, complement state).
PNode = Tuple[int, int]


def problem_alphabet(
    word: Sequence[str], output_types: Dict[str, Regex], target: Regex
) -> Alphabet:
    """The closed alphabet of one rewriting problem.

    Every symbol of the word, of any reachable output type, and of the
    target, plus the ``OTHER`` catch-all — the finite universe over which
    the complement automaton is made complete.
    """
    sets = [set(word), regex_symbols(target), set(output_types)]
    sets.extend(regex_symbols(expr) for expr in output_types.values())
    return Alphabet.closure(*sets)


def target_complement(target: Regex, alphabet: Alphabet) -> "DFA":
    """The complete deterministic complement ``Ā`` (step 4 of Figure 3).

    The unminimized dict automaton the figures draw (Figures 5 and 7);
    the solver runs on ``CompilationCache.bit_complement``.
    """
    from repro.automata.dfa import complement, determinize
    from repro.automata.glushkov import glushkov_nfa

    return complement(determinize(glushkov_nfa(target), alphabet))


@dataclass
class GameStats:
    """Size accounting, consumed by benchmarks E7-E9."""

    expansion_states: int = 0
    expansion_edges: int = 0
    complement_states: int = 0
    product_nodes: int = 0
    product_explored: int = 0  # nodes actually expanded (lazy < eager)
    marked_nodes: int = 0


@dataclass
class SafeAnalysis:
    """The solved marking game for one children word.

    ``exists`` answers step 18 (is the initial state unmarked?); the rest
    is the winning strategy the executor follows.  ``comp`` is the
    cached minimized complement ``Ā``; ``marked[q]`` and ``explored[q]``
    are bitmasks over its states, one per expansion state ``q``.
    """

    word: Tuple[str, ...]
    k: int
    target: Regex
    expansion: Expansion
    comp: BitDFA
    alphabet: Alphabet
    marked: List[int]
    explored: List[int]
    exists: bool
    stats: GameStats

    # -- strategy helpers -------------------------------------------------

    def is_marked(self, node: PNode) -> bool:
        """Is a product node bad?

        Nodes never explored can only be reached through pruned (already
        bad) regions, so the lazy variant treats them as bad too.
        """
        q, p = node
        return not ((self.explored[q] & ~self.marked[q]) >> p) & 1

    @property
    def initial(self) -> PNode:
        return (self.expansion.initial, self.comp.initial)

    def decision(self, node: PNode, edge: Edge) -> str:
        """The strategy's choice at a fork: keep if safe, else invoke."""
        q, p = node
        keep_succ = (edge.target, self.comp.step(p, str(edge.guard)))
        if not self.is_marked(keep_succ):
            return KEEP
        return INVOKE

    def preview_decisions(self) -> List[Decision]:
        """What the strategy does with the base word's function calls.

        Choices downstream of an invocation may depend on the actual
        output; those are reported as ``"depends"``.  For the paper's
        newspaper example against schema (**) this yields exactly
        "invoke Get_Temp@2, keep TimeOut@3".
        """
        if not self.exists:
            raise NoSafeRewritingError(
                "no safe %d-depth rewriting of %s" % (self.k, ".".join(self.word))
            )
        decisions: List[Decision] = []
        current: Set[PNode] = {self.initial}
        for position, symbol in enumerate(self.word):
            edge = self._base_edge(position)
            if edge.invoke_edge is not None:
                actions = set()
                followers: Set[PNode] = set()
                for node in current:
                    action = self.decision(node, edge)
                    actions.add(action)
                    if action == KEEP:
                        _q, p = node
                        followers.add(
                            (edge.target, self.comp.step(p, str(edge.guard)))
                        )
                    else:
                        invoke = self.expansion.edge(edge.invoke_edge)
                        entry = (invoke.target, node[1])
                        followers |= self._copy_exits(entry, edge.target)
                action = actions.pop() if len(actions) == 1 else DEPENDS
                decisions.append(Decision(position, str(edge.guard), action))
                current = followers
            else:
                current = {
                    (edge.target, self.comp.step(p, symbol)) for _q, p in current
                }
            current = {node for node in current if not self.is_marked(node)}
        return decisions

    def _base_edge(self, position: int) -> Edge:
        for edge in self.expansion.edges_from(position):
            if edge.depth == 0 and edge.kind == "symbol":
                return edge
        raise AssertionError("missing base edge at position %d" % position)

    def _copy_exits(self, entry: PNode, exit_state: int) -> Set[PNode]:
        """Unmarked product nodes where an invocation can come back out."""
        exits: Set[PNode] = set()
        seen = {entry}
        stack = [entry]
        while stack:
            node = stack.pop()
            if self.is_marked(node):
                continue
            if node[0] == exit_state:
                exits.add(node)
                continue
            for _alt in alternatives(self.expansion, self, node):
                for succ in _alt.options:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
        return exits


@dataclass(frozen=True)
class Alternative:
    """One adversarial alternative at a product node.

    ``options`` are *our* choices within it: two successors for a fork
    (keep, invoke), one otherwise.
    """

    edge_id: int
    options: Tuple[PNode, ...]
    symbol: Optional[str] = None  # concrete letter for wildcard edges

    @property
    def is_fork(self) -> bool:
        return len(self.options) == 2


def alternatives(expansion: Expansion, analysis, node: PNode) -> List[Alternative]:
    """Enumerate the adversarial alternatives at a product node.

    - a fork (expanded function edge) contributes one alternative with
      two options: keep (consume the function name) or invoke (epsilon
      into the copy);
    - every other symbol edge contributes one single-option alternative
      per concrete letter its guard matches (the adversary picks the
      letter of a wildcard);
    - a return edge contributes a single-option epsilon alternative (the
      adversary decides where an output word stops).
    """
    q, p = node
    result: List[Alternative] = []
    for edge in expansion.edges_from(q):
        if edge.kind == "invoke":
            continue  # reachable only as its call edge's second option
        if edge.kind == "return":
            result.append(Alternative(edge.eid, ((edge.target, p),)))
            continue
        if edge.invoke_edge is not None:
            keep = (edge.target, analysis.comp.step(p, str(edge.guard)))
            invoke_edge = expansion.edge(edge.invoke_edge)
            invoke = (invoke_edge.target, p)
            result.append(Alternative(edge.eid, (keep, invoke)))
            continue
        for symbol in concretize_class(edge.guard, analysis.alphabet):
            result.append(
                Alternative(
                    edge.eid,
                    ((edge.target, analysis.comp.step(p, symbol)),),
                    symbol,
                )
            )
    return result


def analyze_safe(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    target: Regex,
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    compile_cache=None,
) -> SafeAnalysis:
    """Solve the safe-rewriting game eagerly (the Figure 3 algorithm).

    The marking is the least fixpoint over the whole reachable product,
    computed as mask arithmetic by :func:`repro.rewriting.bitgame.solve_safe`.
    See :func:`repro.rewriting.lazy.analyze_safe_lazy` for the pruned
    variant the paper's implementation uses (Section 7).

    The expansion and the minimized complement come from the compilation
    cache (the ambient one unless ``compile_cache`` is given), so equal
    targets and output types compile once per process.  Minimization
    preserves the complement's language, which is all the marking game
    observes; only ``stats.complement_states`` shrinks.
    """
    return solve_safe(
        word, output_types, target, k=k, invocable=invocable,
        lazy=False, compile_cache=compile_cache,
    )


# ---------------------------------------------------------------------------
# Execution (steps 19-23)
# ---------------------------------------------------------------------------

#: Invokers take the function node and return the output forest.
Invoker = Callable[[FunctionCall], Sequence[Node]]

#: A fork decision: ``decide(node, fork_edge)`` is ``KEEP`` or ``INVOKE``.
Decide = Callable[[PNode, Edge], str]


def execute_safe(
    analysis: SafeAnalysis,
    children: Sequence[Node],
    invoker: Invoker,
    log: Optional[InvocationLog] = None,
    cost_of: Optional[Callable[[str], float]] = None,
) -> Tuple[Tuple[Node, ...], InvocationLog]:
    """Execute the winning strategy over actual child nodes.

    Walks the children word through the unmarked region of the product;
    at each fork the strategy keeps the call when the keep successor is
    unmarked (invocations cost, staying put is free) and invokes it
    otherwise.  Outputs of invoked calls are consumed inside the attached
    signature copy — nested calls recurse, which is exactly step 22's
    "continue the path with the new rewritten word".

    Raises :class:`NoSafeRewritingError` when ``analysis.exists`` is
    False, and :class:`RewriteExecutionError` when a service returns a
    forest outside its declared output type (the only way execution can
    fail once safety is established).
    """
    return walk_strategy(
        analysis, children, invoker, log, cost_of, analysis.decision
    )


def walk_strategy(
    analysis: SafeAnalysis,
    children: Sequence[Node],
    invoker: Invoker,
    log: Optional[InvocationLog],
    cost_of: Optional[Callable[[str], float]],
    decide: Decide,
) -> Tuple[Tuple[Node, ...], InvocationLog]:
    """The strategy walk behind both safe executors.

    ``decide`` picks keep or invoke at every fork the walk meets on an
    actual call; everything else — the edge each child takes, the timed
    and fault-annotated invocations, the answer lookahead inside
    signature copies and the checks that no step lands on a marked
    node — is the same for :func:`execute_safe` and the cost-optimal
    executor.
    """
    if not analysis.exists:
        raise NoSafeRewritingError(
            "no safe %d-depth rewriting of %s into %s"
            % (analysis.k, ".".join(analysis.word) or "eps", analysis.target)
        )
    walk = _Walk(
        analysis, invoker, log if log is not None else InvocationLog(),
        cost_of or (lambda _name: 1.0), decide,
    )
    node = analysis.initial
    for child in children:
        node = walk.consume(node, child, 1)
    if node[0] != analysis.expansion.final:
        raise RewriteExecutionError("execution stopped before the word's end")
    if analysis.is_marked(node):
        raise AssertionError("strategy walked into a marked state")
    return tuple(walk.out), walk.log


class _Walk:
    """One play of the strategy, threaded through the recursion into
    signature copies.  A plain object rather than a self-calling closure,
    so a finished walk leaves no reference cycle holding its output."""

    __slots__ = ("analysis", "invoker", "log", "cost_of", "decide", "out")

    def __init__(self, analysis: SafeAnalysis, invoker: Invoker,
                 log: InvocationLog, cost_of: Callable[[str], float],
                 decide: Decide):
        self.analysis = analysis
        self.invoker = invoker
        self.log = log
        self.cost_of = cost_of
        self.decide = decide
        self.out: List[Node] = []

    def consume(
        self, node: PNode, child: Node, depth: int,
        targets: Optional[Set[int]] = None,
    ) -> PNode:
        """Consume one actual child under the strategy; returns the new
        node.  ``targets`` (inside a signature copy) restricts the
        consumed edge to targets from which the rest of the answer can
        still reach a return edge; see :func:`_answer_lookahead`."""
        analysis = self.analysis
        expansion = analysis.expansion
        symbol = symbol_of(child)
        p = node[1]
        edge = _matching_edge(analysis, node, symbol, targets)
        if isinstance(child, FunctionCall) and edge.invoke_edge is not None:
            if self.decide(node, edge) == KEEP:
                self.out.append(child)
                return (edge.target, analysis.comp.step(p, symbol))
            # Invoke: call the service, then thread its actual output
            # through the attached signature copy.
            invoke_edge = expansion.edge(edge.invoke_edge)
            copy = expansion.copies[invoke_edge.copy]
            try:
                forest, elapsed = timed_invoke(self.invoker, child)
            except ServiceFault as fault:
                # The strategy chose to invoke because keeping was
                # unsafe or dearer, so there is no local alternative;
                # annotate the fault with the function so the engine can
                # degrade (re-plan without it).
                if getattr(fault, "function", None) is None:
                    fault.function = child.name
                raise
            self.log.add(
                child.name,
                depth,
                tuple(symbol_of(t) for t in forest),
                self.cost_of(child.name),
                elapsed=elapsed,
            )
            inner: PNode = (invoke_edge.target, p)
            if analysis.is_marked(inner):
                raise AssertionError("invoke option led to a marked state")
            lookahead = _answer_lookahead(
                expansion, copy, inner[0], [symbol_of(tree) for tree in forest]
            )
            for position, tree in enumerate(forest):
                inner = self.consume(
                    inner, tree, depth + 1,
                    None if lookahead is None else lookahead[position],
                )
            return_edge_id = copy.return_edges.get(inner[0])
            if return_edge_id is None:
                raise RewriteExecutionError(
                    "service %r returned %s, which does not complete its "
                    "declared output type"
                    % (child.name,
                       ".".join(symbol_of(t) for t in forest) or "eps")
                )
            successor = (expansion.edge(return_edge_id).target, inner[1])
            if analysis.is_marked(successor):
                raise AssertionError("return edge led to a marked state")
            return successor

        self.out.append(child)
        successor = (edge.target, analysis.comp.step(p, symbol))
        if analysis.is_marked(successor):
            raise RewriteExecutionError(
                "symbol %r drives the rewriting into a marked state "
                "(a service output violated its declared type)" % symbol
            )
        return successor


def _answer_lookahead(
    expansion: Expansion, copy: CopyInfo, entry: int, symbols: Sequence[str]
) -> Optional[List[Set[int]]]:
    """Which copy states each root symbol of an answer may lead to.

    One forward pass collects the copy's symbol edges the answer's root
    symbols can take from the copy entry; one backward pass keeps, per
    position, the targets from which the rest of the answer still
    reaches a state with a return edge.  (A nested call is consumed on
    its own call edge whether it is kept or invoked — an invocation
    comes back to that edge's target — so root symbols alone decide the
    path.)  An ambiguous output type such as ``b*.b`` has two ``b``
    edges out of a state, and only this lookahead tells which one the
    rest of the answer completes.  Returns None when the answer cannot
    complete the type at all; the walk then reports the violation.
    """
    layers: List[List[Edge]] = []
    frontier = {entry}
    for symbol in symbols:
        step = [
            edge
            for state in frontier
            for edge in expansion.edges_from(state)
            if edge.kind == "symbol" and class_matches(edge.guard, symbol)
        ]
        layers.append(step)
        frontier = {edge.target for edge in step}
    reaching = frontier & set(copy.return_edges)
    viable: List[Set[int]] = []
    for step in reversed(layers):
        viable.append(reaching)
        reaching = {edge.source for edge in step if edge.target in reaching}
    if entry not in reaching:
        return None
    viable.reverse()
    return viable


def _matching_edge(
    analysis: SafeAnalysis,
    node: PNode,
    symbol: str,
    targets: Optional[Set[int]] = None,
) -> Edge:
    """The expansion edge consuming ``symbol`` at this node.

    With one-unambiguous types there is exactly one; with ambiguous types
    any unmarked-successor candidate is safe to follow (an unmarked node
    has no all-bad alternative, and each candidate is its own
    single-option alternative), as long as the rest of the answer can
    still leave the copy: ``targets`` keeps only such edges.
    """
    expansion = analysis.expansion
    q, p = node
    candidates = [
        edge
        for edge in expansion.edges_from(q)
        if edge.kind == "symbol" and class_matches(edge.guard, symbol)
        and (targets is None or edge.target in targets)
    ]
    if not candidates:
        raise RewriteExecutionError(
            "no transition for symbol %r — the document does not match "
            "the analyzed word" % symbol
        )
    if len(candidates) == 1:
        return candidates[0]
    for edge in candidates:
        succ = (edge.target, analysis.comp.step(p, symbol))
        if not analysis.is_marked(succ) or edge.invoke_edge is not None:
            return edge
    return candidates[0]
