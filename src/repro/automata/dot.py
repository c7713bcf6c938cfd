"""Graphviz DOT rendering of the paper's automata.

The paper communicates its algorithms through automata drawings
(Figures 4-8 and 10-12).  These helpers emit the same pictures from live
objects, so the figures can be *regenerated* rather than compared by
hand:

- :func:`expansion_to_dot` — ``A_w^k`` with fork nodes double-circled
  and invoke/return epsilon edges dashed (Figure 4);
- :func:`dfa_to_dot` — the dict target and complement automata, sinks
  shaded (Figures 5, 7, 10);
- :func:`product_to_dot` — a solved safe game read off its marking
  masks, bad nodes filled (Figures 6, 8 and the pruned Figure 12).

``repro figures`` (:func:`repro.cli.cmd_figures`) writes all of them to
``.dot`` files.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.automata.bitset import iter_bits
from repro.automata.dfa import DFA

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.rewriting.expansion import Expansion


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def expansion_to_dot(expansion: "Expansion", title: str = "A_w^k") -> str:
    """Render ``A_w^k``; fork nodes are double circles (Figure 4)."""
    fork_nodes = {edge.source for edge in expansion.fork_edges()}
    lines: List[str] = [
        "digraph {",
        '  label="%s"; rankdir=LR;' % _escape(title),
        "  node [shape=circle];",
    ]
    for state in range(expansion.n_states):
        attributes = []
        if state in fork_nodes:
            attributes.append("shape=doublecircle")
        if state == expansion.final:
            attributes.append("penwidth=2")
        if state == expansion.initial:
            attributes.append('xlabel="start"')
        lines.append(
            "  q%d [label=\"q%d\"%s];"
            % (state, state, (", " + ", ".join(attributes)) if attributes else "")
        )
    for edge in expansion.edges:
        if edge.kind == "symbol":
            label, style = str(edge.guard), "solid"
        elif edge.kind == "invoke":
            label, style = "ε (invoke)", "dashed"
        else:
            label, style = "ε (return)", "dotted"
        lines.append(
            '  q%d -> q%d [label="%s", style=%s];'
            % (edge.source, edge.target, _escape(label), style)
        )
    lines.append("}")
    return "\n".join(lines)


def dfa_to_dot(dfa: DFA, title: str = "DFA", collapse_other: bool = True) -> str:
    """Render a DFA; accepting states double-circled, sinks shaded.

    With ``collapse_other`` all symbols sharing a target from the same
    state collapse into one edge labelled like the paper's ``*`` edges.
    """
    sinks = dfa.sink_states()
    lines: List[str] = [
        "digraph {",
        '  label="%s"; rankdir=LR;' % _escape(title),
        "  node [shape=circle];",
    ]
    for state in sorted(dfa.states()):
        attributes = []
        if state in dfa.accepting:
            attributes.append("shape=doublecircle")
        if state in sinks:
            attributes.append('style=filled, fillcolor="lightgray"')
        if state == dfa.initial:
            attributes.append('xlabel="start"')
        lines.append(
            "  p%d [label=\"p%d\"%s];"
            % (state, state, (", " + ", ".join(attributes)) if attributes else "")
        )
    for state in sorted(dfa.states()):
        row = dfa.transitions.get(state, {})
        if collapse_other:
            by_target = {}
            for symbol, target in sorted(row.items()):
                by_target.setdefault(target, []).append(symbol)
            for target, symbols in sorted(by_target.items()):
                label = ", ".join(s for s in symbols if not s.startswith("#"))
                if any(s.startswith("#") for s in symbols):
                    label = (label + ", *") if label else "*"
                lines.append(
                    '  p%d -> p%d [label="%s"];'
                    % (state, target, _escape(label))
                )
        else:
            for symbol, target in sorted(row.items()):
                lines.append(
                    '  p%d -> p%d [label="%s"];'
                    % (state, target, _escape(symbol))
                )
    lines.append("}")
    return "\n".join(lines)


def product_to_dot(analysis, title: Optional[str] = None) -> str:
    """Render a solved safe-rewriting product with its marking.

    Marked (bad) nodes are filled, mirroring the colored nodes of
    Figures 6 and 8; fork pairs keep the dashed invoke edges.
    """
    from repro.rewriting.safe import alternatives

    title = title or "A_w^%d x complement" % analysis.k
    lines: List[str] = [
        "digraph {",
        '  label="%s"; rankdir=LR;' % _escape(title),
        "  node [shape=circle];",
    ]
    nodes = [
        (q, p)
        for q, mask in enumerate(analysis.explored)
        for p in iter_bits(mask)
    ]
    ids = {node: index for index, node in enumerate(nodes)}
    for node in nodes:
        q, p = node
        attributes = []
        if analysis.is_marked(node):
            attributes.append('style=filled, fillcolor="salmon"')
        if node == analysis.initial:
            attributes.append('xlabel="start"')
        lines.append(
            '  n%d [label="[q%d,p%d]"%s];'
            % (ids[node], q, p,
               (", " + ", ".join(attributes)) if attributes else "")
        )
    for node in nodes:
        if analysis.is_marked(node):
            continue  # mirror the pruned look of Figure 12
        for alt in alternatives(analysis.expansion, analysis, node):
            edge = analysis.expansion.edge(alt.edge_id)
            if alt.is_fork:
                keep, invoke = alt.options
                if keep in ids:
                    lines.append(
                        '  n%d -> n%d [label="%s"];'
                        % (ids[node], ids[keep], _escape(str(edge.guard)))
                    )
                if invoke in ids:
                    lines.append(
                        '  n%d -> n%d [label="ε", style=dashed];'
                        % (ids[node], ids[invoke])
                    )
            else:
                succ = alt.options[0]
                if succ not in ids:
                    continue
                label = alt.symbol if alt.symbol else "ε"
                style = "dotted" if edge.kind == "return" else "solid"
                lines.append(
                    '  n%d -> n%d [label="%s", style=%s];'
                    % (ids[node], ids[succ], _escape(label), style)
                )
    lines.append("}")
    return "\n".join(lines)
