"""Version 0 of the cartesian_topk selectors, kept as the benchmark's yardstick.

``errors``, ``loh``, ``pairwise``, ``select1d``, ``selectors`` and
``soft_heap`` are verbatim copies of ``src/cartesian_topk`` at the commit
that defined the benchmark.  ``run.py`` times each selector call next to the
same call of this copy on the same input, so a change of machine speed
affects both sides of the ratio alike.  Do not edit these files: every later
result is a ratio to them.
"""

from .selectors import (fast_soft_tree_select, soft_tensor_select, soft_tree_select,
                        sort_tensor_select, sort_tree_select)

__all__ = ["fast_soft_tree_select", "soft_tensor_select", "soft_tree_select",
           "sort_tensor_select", "sort_tree_select"]
