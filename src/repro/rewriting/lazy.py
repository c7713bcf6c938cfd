"""The optimized lazy variant of safe rewriting (Section 7, Figure 12).

The eager algorithm of Figure 3 "starts by constructing all the required
automata and only then analyzes the resulting graph.  By contrast, our
implementation builds the automaton in a lazy mode, starting from the
initial state, and constructing only the needed parts."  Two prunings
drive it:

- **Sink nodes**: some accepting states of ``Ā`` are sinks — once
  reached, the produced word can never fall back into the target
  language.  Any product node sitting on such a state is marked at once
  and its outgoing branches are never built (the left shaded area of
  Figure 12).
- **Marked nodes**: once a node is known marked there is no point
  exploring its successors any further (the right shaded area).

The variant has the same worst-case complexity but explores strictly
fewer product nodes in practice — benchmark E7 counts them.  Answers are
identical to the eager algorithm: marking is a least fixpoint and both
prunings only skip regions that cannot change it.

On bitmasks the marking always runs to that fixpoint (it costs less
than deciding when to stop early), so the pruning that remains visible
is the sink one: sinks seed the marking and absorb forward exploration.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.regex.ast import Regex
from repro.rewriting.bitgame import solve_safe
from repro.rewriting.safe import SafeAnalysis


def analyze_safe_lazy(
    word: Sequence[str],
    output_types: Dict[str, Regex],
    target: Regex,
    k: int = 1,
    invocable: Optional[Callable[[str], bool]] = None,
    compile_cache=None,
) -> SafeAnalysis:
    """Solve the safe-rewriting game with sink pruning.

    Same signature and same answers as
    :func:`repro.rewriting.safe.analyze_safe`; ``stats.product_explored``
    records how many product nodes were actually expanded, which is the
    quantity Figure 12's pruning reduces.  The prunings run as mask
    arithmetic in :func:`repro.rewriting.bitgame.solve_safe`: accepting
    sinks of the complement seed the marking at every expansion state,
    and forward exploration absorbs them without expanding them.
    """
    return solve_safe(
        word, output_types, target, k=k, invocable=invocable,
        lazy=True, compile_cache=compile_cache,
    )
