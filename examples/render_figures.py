"""Regenerate the paper's automata figures as Graphviz DOT files.

Writes, into ``figures/`` (created next to the working directory):

- ``fig4_awk.dot``             — the expansion automaton A_w^1;
- ``fig5_complement_star2.dot``— the complete complement of (**);
- ``fig6_product_star2.dot``   — the marked product (safe into (**));
- ``fig7_complement_star3.dot``— the complement of (***);
- ``fig8_product_star3.dot``   — the marked product (unsafe into (***));
- ``fig10_target_star3.dot``   — the target automaton of (***);
- ``fig12_lazy_star2.dot``     — the lazily explored product (pruned).

The figures are built by ``repro figures`` (``repro.cli.cmd_figures``);
this script runs that command.  Render with Graphviz, e.g.
``dot -Tpng figures/fig6_product_star2.dot``.

Run:  python examples/render_figures.py [output-dir]
"""

import sys

from repro.cli import main as repro_main


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    repro_main(["figures", out_dir])


if __name__ == "__main__":
    main()
