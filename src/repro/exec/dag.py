"""Dependency-DAG extraction for concurrent call materialization.

The document-level driver (Section 5) materializes embedded calls one at
a time, but the only real ordering constraints in a document are:

- **param-before-call**: every call invoked while a call's parameters
  are being rewritten must complete before that call itself can fire
  (stage 1 of the driver rewrites parameters bottom-up); and
- **analysis-ordered siblings**: within one children word, the safe
  strategy's choice for a later call can depend on what earlier invoked
  siblings actually returned — exactly the positions
  :meth:`~repro.rewriting.safe.SafeAnalysis.preview_decisions` reports
  as ``"depends"``.

Everything else is independent, and — intensional data living on many
peers — independence means overlappable round-trips.  This module walks
a document the same way the engine will, asks the engine's *planning
clone* for each word's solved safe analysis, and extracts:

- one :class:`CallTask` per call occurrence the strategy will
  *unconditionally* invoke (action ``"invoke"`` at every reachable
  product node), with ``depends_on`` edges to every task scheduled
  inside its parameter forest (transitively, elements included);
- a record of the positions left sequential (``"depends"`` decisions,
  words without a safe analysis, possible-mode words) — those calls are
  executed by the ordinary sequential pass, results merged in document
  order either way.

The planner never invokes anything and never touches the engine that
will perform the real rewrite (so the real engine's cache accounting is
bit-identical to a sequential run); it works against a disposable clone
whose analysis memo the prefetch tasks then reuse, and whose solved
games the real engine finds in the shared compilation cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.doc.nodes import Element, FunctionCall, Text, symbol_of
from repro.exec.fingerprint import call_fingerprint
from repro.rewriting.plan import DEPENDS, INVOKE

#: An upper bound on planned occurrences — a runaway-recursion backstop,
#: far above any real document (prefetching degrades to partial, never
#: wrong: unplanned calls simply run sequentially).
MAX_PLANNED = 100_000


@dataclass(frozen=True)
class CallTask:
    """One call occurrence the scheduler may prefetch."""

    task_id: int
    call: FunctionCall  # the original (pre-rewrite) node
    input_type: object  # Regex the parameters are rewritten into
    depends_on: Tuple[int, ...]  # param-before-call edges (task ids)
    fingerprint: str  # of the original node, for static dedup

    @property
    def function(self) -> str:
        return self.call.name


@dataclass
class CallDAG:
    """The extracted dependency DAG of one document."""

    tasks: List[CallTask] = field(default_factory=list)
    #: (function name, word position) pairs the analysis forced to stay
    #: sequential — decisions that depend on earlier siblings' outputs.
    sequenced: List[Tuple[str, int]] = field(default_factory=list)
    #: Call occurrences seen during planning (scheduled or not).
    planned_calls: int = 0

    def add_task(
        self, call: FunctionCall, input_type, depends_on: Tuple[int, ...]
    ) -> CallTask:
        task = CallTask(
            task_id=len(self.tasks),
            call=call,
            input_type=input_type,
            depends_on=tuple(depends_on),
            fingerprint=call_fingerprint(call),
        )
        self.tasks.append(task)
        return task

    def waves(self) -> List[List[CallTask]]:
        """Tasks grouped in topological waves (longest-path layering).

        Wave 0 holds tasks with no prerequisites (innermost parameter
        calls); wave ``i`` holds tasks whose deepest prerequisite sits in
        wave ``i - 1``.  Within a wave, tasks keep document order, so a
        run with one worker degenerates to the sequential order.
        """
        level: Dict[int, int] = {}
        for task in self.tasks:  # tasks are created children-first
            level[task.task_id] = (
                1 + max((level[dep] for dep in task.depends_on), default=-1)
            )
        if not level:
            return []
        buckets: List[List[CallTask]] = [[] for _ in range(max(level.values()) + 1)]
        for task in self.tasks:
            buckets[level[task.task_id]].append(task)
        return buckets

    @property
    def n_edges(self) -> int:
        return sum(len(task.depends_on) for task in self.tasks)


def build_call_dag(document, engine) -> CallDAG:
    """Extract the call DAG of ``document`` under ``engine``'s plan.

    ``engine`` is a :class:`repro.rewriting.RewriteEngine` (normally the
    scheduler's private planning clone); only its schemas, mode, depth
    bound and analysis helpers are consulted — nothing is invoked.
    """
    dag = CallDAG()
    root = document.root
    if isinstance(root, Text):
        return dag
    if isinstance(root, FunctionCall):
        input_type = engine._input_type(root.name)
        if input_type is not None:
            _plan_forest(dag, engine, root.params, input_type)
        return dag
    content = engine.target_schema.type_of(root.label)
    if content is not None:
        _plan_forest(dag, engine, root.children, content)
    return dag


def _plan_forest(dag: CallDAG, engine, forest, target) -> None:
    """Plan one children word and every word below it, one node a step:
    each word is previewed before the words below it, which follow in
    document order, a call settled after its parameters.  A call's task
    depends on every task created while its parameters were planned."""
    # Frames: [forest, actions, next position, (call, position, input
    # type, first task id) when the forest is that call's parameters].
    stack = [[forest, _preview_actions(engine, forest, target), 0, None]]
    while stack:
        frame = stack[-1]
        forest, actions, position, call = frame
        if position == len(forest):
            stack.pop()
            if call is not None:
                fun, at, input_type, first_task = call
                action = stack[-1][1].get(at)
                if action == INVOKE and input_type is not None:
                    dag.add_task(fun, input_type,
                                 range(first_task, len(dag.tasks)))
                elif action == DEPENDS:
                    dag.sequenced.append((fun.name, at))
            continue
        frame[2] = position + 1
        node = forest[position]
        if isinstance(node, Element):
            content = engine.target_schema.type_of(node.label)
            if content is not None:
                stack.append([node.children, _preview_actions(
                    engine, node.children, content), 0, None])
        elif isinstance(node, FunctionCall):
            dag.planned_calls += 1
            if dag.planned_calls > MAX_PLANNED:
                frame[2] = len(forest)
                continue
            # Stage 1 rewrites this call's parameters whether the call
            # is later kept or invoked, so nested invocations prefetch
            # usefully in every case.
            input_type = engine._input_type(node.name)
            params, actions = (), {}
            if input_type is not None:
                params = node.params
                actions = _preview_actions(engine, params, input_type)
            stack.append([params, actions, 0,
                          (node, position, input_type, len(dag.tasks))])


def _preview_actions(engine, forest, target) -> Dict[int, str]:
    """position -> keep/invoke/depends, when the word has a safe plan.

    Words without one (possible-mode engines, words that will fall back
    to possible rewriting, schema errors) predict nothing: their calls
    run in the ordinary sequential pass.
    """
    word = tuple(symbol_of(node) for node in forest)
    analysis = engine.analyze_word(word, target)
    if analysis is None or not analysis.exists:
        return {}
    try:
        decisions = analysis.preview_decisions()
    except Exception:  # defensive: a preview bug must not break rewriting
        return {}
    return {decision.position: decision.action for decision in decisions}
