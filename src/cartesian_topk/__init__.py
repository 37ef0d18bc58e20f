"""k-selection on the Cartesian sum X1 + X2 + ... + Xm.

Library of five selection algorithms over soft heaps and layer-ordered
heaps, a brute-force oracle, and a benchmark CLI.  All selectors are
pure functions over immutable inputs and safe to call concurrently: the
package keeps no mutable module state, so no call changes another's
values or counters.
"""

from .errors import ContractViolation, GuardError, InputParseError, ParameterError
from .loh import (LayerOrderedHeap, LayerSchedule, LeafGenerator, LohGenerator,
                  children_of, lohify, select_k_loh, verify_loh)
from .pairwise import PairSumNode, concatenation_select, soft_select_pairwise
from .select1d import select_k
from .selectors import (DEFAULT_ALPHA, SELECTORS, RunStats, SelectionResult, brute_force_select,
                        fast_soft_tree_select, soft_tensor_select,
                        soft_tree_select, sort_tensor_select, sort_tree_select,
                        theoretical_exponent)
from .soft_heap import SoftHeap

__all__ = [
    "ContractViolation", "GuardError", "InputParseError", "ParameterError",
    "LayerOrderedHeap", "LayerSchedule", "LeafGenerator", "LohGenerator",
    "children_of", "lohify", "select_k_loh", "verify_loh",
    "PairSumNode", "concatenation_select", "soft_select_pairwise",
    "select_k",
    "DEFAULT_ALPHA", "SELECTORS", "RunStats", "SelectionResult", "brute_force_select",
    "fast_soft_tree_select", "soft_tensor_select", "soft_tree_select",
    "sort_tensor_select", "sort_tree_select", "theoretical_exponent",
    "SoftHeap",
]

__version__ = "0.1.0"
