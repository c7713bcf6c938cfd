"""Cost-optimal safe strategies (Figure 3, step 23).

Step 23 asks for "a path with minimal number/cost of function
invocations".  The executor's default rule — keep a call whenever the
keep successor is unmarked — is locally free but *globally* suboptimal:
keeping a call now can force several invocations later.  The classic
witness (benchmark E15):

    w = f.g.h      tau_out(f)=a, tau_out(g)=b, tau_out(h)=c
    R = (f.b.c) | (a.g.h)

Keeping ``f`` (locally free) commits to the first branch and forces
invoking *both* ``g`` and ``h``; invoking ``f`` costs one call and lets
``g`` and ``h`` stay.  Greedy pays 2, the optimum pays 1.

This module computes the optimal strategy by backward induction on the
marking game: the *value* of a product node is the worst-case (over
adversarial outputs) total invocation cost the best strategy pays from
there, restricted to the unmarked (winning) region.  Values are solved
by value iteration — a least fixpoint, with cycles handled because costs
are non-negative and the winning region admits finite plays.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.doc.nodes import Node
from repro.rewriting.plan import INVOKE, KEEP, InvocationLog
from repro.rewriting.safe import (
    Invoker,
    PNode,
    SafeAnalysis,
    alternatives,
    walk_strategy,
)


def strategy_values(
    analysis: SafeAnalysis,
    cost_of: Optional[Callable[[str], float]] = None,
    max_iterations: int = 10_000,
) -> Dict[PNode, float]:
    """Worst-case invocation cost of the optimal strategy per node.

    Only unmarked (winning) nodes get finite values; marked or unexplored
    nodes are ``inf``.  The value of the initial node is the guaranteed
    cost bound of the whole rewriting.
    """
    cost_of = cost_of or (lambda _name: 1.0)
    expansion = analysis.expansion

    # Collect the winning region reachable from the initial node.
    nodes: List[PNode] = []
    alts_of: Dict[PNode, list] = {}
    seen = set()
    stack = [analysis.initial]
    while stack:
        node = stack.pop()
        if node in seen or analysis.is_marked(node):
            continue
        seen.add(node)
        nodes.append(node)
        alts = alternatives(expansion, analysis, node)
        alts_of[node] = alts
        for alt in alts:
            for succ in alt.options:
                if succ not in seen and not analysis.is_marked(succ):
                    stack.append(succ)

    values: Dict[PNode, float] = {node: 0.0 for node in nodes}

    def option_cost(node: PNode, alt, values_now) -> float:
        """min over our options of (option cost + successor value)."""
        if not alt.is_fork:
            succ = alt.options[0]
            return values_now.get(succ, math.inf)
        keep_succ, invoke_succ = alt.options
        edge = analysis.expansion.edge(alt.edge_id)
        keep = values_now.get(keep_succ, math.inf)
        invoke = cost_of(str(edge.guard)) + values_now.get(invoke_succ, math.inf)
        return min(keep, invoke)

    for _ in range(max_iterations):
        changed = False
        for node in nodes:
            alts = alts_of[node]
            if not alts:
                new_value = 0.0  # terminal: the word ended inside R
            else:
                new_value = max(
                    option_cost(node, alt, values) for alt in alts
                )
            if new_value != values[node]:
                values[node] = new_value
                changed = True
        if not changed:
            break
    return values


def optimal_decision(
    analysis: SafeAnalysis,
    values: Dict[PNode, float],
    node: PNode,
    edge,
    cost_of: Callable[[str], float],
) -> str:
    """Pick keep or invoke minimizing the guaranteed remaining cost."""
    keep_succ = (edge.target, analysis.comp.step(node[1], str(edge.guard)))
    invoke_edge = analysis.expansion.edge(edge.invoke_edge)
    invoke_succ = (invoke_edge.target, node[1])
    keep = values.get(keep_succ, math.inf)
    invoke = cost_of(str(edge.guard)) + values.get(invoke_succ, math.inf)
    return KEEP if keep <= invoke else INVOKE


def execute_safe_optimal(
    analysis: SafeAnalysis,
    children: Sequence[Node],
    invoker: Invoker,
    cost_of: Optional[Callable[[str], float]] = None,
    log: Optional[InvocationLog] = None,
) -> Tuple[Tuple[Node, ...], InvocationLog]:
    """Like :func:`repro.rewriting.safe.execute_safe`, but cost-optimal.

    Guarantees the same safety, and additionally that the total cost paid
    never exceeds ``strategy_values(analysis)[initial]`` — the optimal
    worst-case bound — whatever conforming outputs come back.  The walk
    is :func:`repro.rewriting.safe.walk_strategy`; only the fork
    decision differs.
    """
    cost_of = cost_of or (lambda _name: 1.0)
    values = strategy_values(analysis, cost_of)
    return walk_strategy(
        analysis, children, invoker, log, cost_of,
        lambda node, edge: optimal_decision(
            analysis, values, node, edge, cost_of
        ),
    )
