"""The paper's two future-work directions (Section 7), kept beside
their only users.

Neither extension is part of the reproduced system: no ``repro``
command, workload or example runs them. Their unit tests in ``tests/``
and the two ablations in ``benchmarks/`` import them from here:

* :mod:`.multifilter`: the greedy choice of ``k`` filtering tuples by
  the union volume of their dominating regions
  (``benchmarks/test_ablation_multifilter.py``);
* :mod:`.redistribution`: periodic neighbour-to-neighbour hand-offs of
  tuples as devices move (``benchmarks/test_ablation_redistribution.py``).
"""
