"""Reference implementations that the fast paths in ``repro`` replaced.

Each oracle is the straightforward version of one concern, kept only so
the differential tests can require the production code to match it bit
for bit:

* :mod:`.skyline`: the brute-force and BNL skylines, and filter-set
  pruning, that the kernel and the Figure 4 pipeline must match;
* :mod:`.local`: the row-at-a-time Figure 4 pipeline per storage model,
  and devices whose local result cache always misses;
* :mod:`.assembly`: the legacy fold-of-merges result assembler;
* :mod:`.world`: the uncached world, per-receiver broadcast delivery,
  and a world on the reference neighbor-index build;
* :mod:`.spatial_index`: the Python-loop index build and loop BFS;
* :mod:`.mobility`: the scalar position sweep, and random waypoint
  with scalar draws and a bisection per query.
"""
