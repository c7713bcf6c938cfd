"""Workloads: the paper's running example plus synthetic generators.

- :mod:`repro.workloads.newspaper` — the newspaper document of Figure 2
  and the three schemas (*), (**), (***) the paper reasons about;
- :mod:`repro.workloads.magazine` — that newspaper lifted under
  ``article*``, with per-call deterministic services (E26, E27);
- :mod:`repro.workloads.generators` — random words/schemas/documents
  parameterized by size, used by the scaling benchmarks (E8-E11);
- :mod:`repro.workloads.scenarios` — the search-engine "get more results"
  handle (recursion depth k), an auction site and a service registry,
  used by the examples and the end-to-end benchmark (E14).
"""

from repro.workloads import magazine, newspaper
from repro.workloads.generators import (
    random_document,
    random_flat_schema,
    random_word_problem,
)

__all__ = [
    "magazine",
    "newspaper",
    "random_word_problem",
    "random_flat_schema",
    "random_document",
]
