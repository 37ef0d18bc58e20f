"""Differential check: every selector against the brute-force oracle.

Stdlib ``random``, seeded per input container, draws small cases across
the inputs the API accepts: m from 1 to 9 with uneven axis lengths up to
40 (at most 300 tensor cells, so k = total stays cheap); tie-heavy
integers 0-3, wide-range floats, presorted and reversed axes; k = 1,
k = total or a random k; alpha 1.05, 1.1, 1.5 or 1.9; and axes given as
lists of float or int, or as float64, float32, int64 or bool ndarrays.
A second stream per container draws equal-length axes and adds axes
mixing ``-0.0`` and ``0.0``, whose sums may come out with either sign;
the ``2d-ndarray`` container passes them as one float64 2-D ndarray and
has only this stream.

On every case all five selectors must return the oracle's values with
``==`` in their returned order, ascending, as Python floats; the oracle's
indices must be in range, distinct, and map back to its values through
the input-order axes; sort-tensor and
sort-tree indices must be distinct and map back to their values through
the ascending axes; sort-tree's ``pops_per_level`` must equal criterion
8's NumPy reference and, where m is a power of two (every depth full),
stay within the single-path ceiling (k + 3 * (2^d - 1)) / 2^d at depth d;
fast-soft-tree's ``generated_per_level`` must have a key for every depth
0..D of the tree and sum to its ``values_generated``, and its
``pops_per_level`` must have exactly the depths 0..D-1, which hold its
pair-sum nodes; a second soft-tree and fast-soft-tree call must repeat
its values and every ``RunStats`` field; soft-tensor's corruption must
stay within eps times its inserts; and the caller's inputs must be left
as they were.  The first cases of one container also run in a child
interpreter under ``python -O``.

A third stream per container, the wide one, goes past the oracle's reach:
m up to 256 axes of 1 to 256 values and k up to 1,024, on the same value
kinds and containers.  There every selector must return, in its returned
order and with ``==``, the values of ``perfbench/reference.py``'s
``smallest_sums``, an exact reference that shares no code with the
selectors, and a second call of each must repeat its values and every
``RunStats`` field.

Three exact relations check counters where no reference gives them.  On
seeded small cases (m <= 8, n <= 16, k <= 64; tie-heavy 0-3, exponential
or negated exponential axes), and on float-list cases drawn like the wide
stream, permuting the values inside each axis, scaling every axis by the
same 2^s with |s| < 30, and, on axes rounded to integers, adding an
integer c_t to every value of axis t must each leave every selector's
``repr(RunStats)`` as it was, and must keep, scale by 2^s, or shift by
the sum of the c_t every selected value, exactly.

Run as a script, it sweeps more cases than tier-1 without pytest:

    PYTHONPATH=src python tests/test_differential.py --cases 1000 --seed 1

checks ``--cases`` cases of every container in each of the first two
streams, ``--wide-cases`` (20 by default) in the wide one, and
``--wide-cases`` wide cases of each relation; seed 0 draws tier-1's cases.
"""

import argparse
import importlib.util
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from cartesian_topk import SELECTORS, RunStats, brute_force_select
from test_acceptance import _reference_pops_per_level
from test_selectors import check_oracle_indices

CONTAINERS = ("float-list", "int-list", "float64", "float32", "int64", "bool", "2d-ndarray")
KINDS = ("ties", "wide", "sorted", "reversed")
EQUAL_LENGTH_KINDS = KINDS + ("signed-zero",)
ALPHAS = (1.05, 1.1, 1.5, 1.9)
MAX_CELLS = 300
CASES_PER_CONTAINER = 100
EQUAL_LENGTH_CASES = 50
OPTIMIZED_CASES = 50
WIDE_MAX_M, WIDE_MAX_N, WIDE_MAX_K = 256, 256, 1024
WIDE_CASES = 4  # per container in tier-1; the script's --wide-cases runs more
RELATION_CASES = 20
RELATIONS = ("permute", "scale", "shift")
WIDE_RELATION_CASES = 8  # per relation in tier-1; the script's --wide-cases runs more

# The wide stream's reference: exact, and sharing no code with the selectors.
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "perfbench", "reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _axis(rng, kind, n, container):
    if kind == "ties":
        vals = [rng.randint(0, 3) for _ in range(n)]
    elif kind == "signed-zero":
        vals = [rng.choice((-0.0, 0.0, -0.0, 0.0, 1.0, -1.5)) for _ in range(n)]
    elif kind == "wide":
        vals = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6) for _ in range(n)]
    else:
        vals = sorted(rng.uniform(-10.0, 10.0) for _ in range(n))
        if kind == "reversed":
            vals.reverse()
    if container in ("float-list", "2d-ndarray"):
        return [float(v) for v in vals]
    if container == "int-list":
        return [round(v) for v in vals]
    if container == "int64":
        return np.array([round(v) for v in vals], dtype=np.int64)
    if container == "bool":
        return np.array([round(v) % 2 == 1 for v in vals])
    return np.array(vals, dtype=np.float64 if container == "float64" else np.float32)


def make_case(rng, container, equal_length=False):
    """One (arrays, k, alpha, kind) case with at most MAX_CELLS tensor cells."""
    if equal_length:
        m = rng.randint(1, 9)
        n = rng.randint(1, max(n for n in range(1, 41) if n ** m <= MAX_CELLS))
        lengths, cells = [n] * m, n ** m
        kind = rng.choice(EQUAL_LENGTH_KINDS)
    else:
        lengths, cells = [], 1
        for _ in range(rng.randint(1, 9)):
            n = rng.randint(1, min(40, MAX_CELLS // cells))
            lengths.append(n)
            cells *= n
        rng.shuffle(lengths)
        kind = rng.choice(KINDS)
    arrays = [_axis(rng, kind, n, container) for n in lengths]
    if container == "2d-ndarray":
        arrays = np.array(arrays, dtype=np.float64)
    k = rng.choice((1, cells, rng.randint(1, cells)))
    return arrays, k, rng.choice(ALPHAS), kind


def _log_uniform(rng, top):
    # an int in [1, top], each doubling about as likely as the next
    return min(top, int(2 ** rng.uniform(0, math.log2(top + 1))))


def make_wide_case(rng, container):
    """One (arrays, k, alpha, kind) case past the oracle's reach: m up to
    WIDE_MAX_M axes of 1 to WIDE_MAX_N values (equal lengths for a 2-D
    ndarray), each count drawn log-uniformly, and k = 1, k = min(cells,
    WIDE_MAX_K) or a log-uniform k between them."""
    m = _log_uniform(rng, WIDE_MAX_M)
    n = _log_uniform(rng, WIDE_MAX_N)
    lengths = [n if container == "2d-ndarray" else _log_uniform(rng, WIDE_MAX_N)
               for _ in range(m)]
    kind = rng.choice(EQUAL_LENGTH_KINDS)
    arrays = [_axis(rng, kind, n, container) for n in lengths]
    if container == "2d-ndarray":
        arrays = np.array(arrays, dtype=np.float64)
    top = min(math.prod(lengths), WIDE_MAX_K)
    k = rng.choice((1, top, _log_uniform(rng, top)))
    return arrays, k, rng.choice(ALPHAS), kind


def _check_values(got, expected, where):
    # in returned order, ascending, as Python floats
    assert got == expected, where
    assert all(x <= y for x, y in zip(got, got[1:])), where
    assert all(type(v) is float for v in got), where


def _balanced_sum(vals):
    # the canonical grouping: left half = first ceil(m/2) axes
    if len(vals) == 1:
        return vals[0]
    mid = (len(vals) + 1) // 2
    return _balanced_sum(vals[:mid]) + _balanced_sum(vals[mid:])


def _snapshot(arrays):
    if isinstance(arrays, np.ndarray):
        return arrays.copy()
    return [a.copy() if isinstance(a, np.ndarray) else list(a) for a in arrays]


def _check_cases(container, cases, seed=0, equal_length=False):
    # seed 0 is tier-1's stream; each seed, and the equal-length stream of
    # each seed, gives every container its own
    base = CONTAINERS.index(container) + len(CONTAINERS) * seed
    rng = random.Random(base + 10**6 if equal_length else base)
    for case in range(cases):
        arrays, k, alpha, kind = make_case(rng, container, equal_length)
        where = (container, equal_length, seed, case, kind, [len(a) for a in arrays], k, alpha)
        before = _snapshot(arrays)
        oracle = brute_force_select(arrays, k)
        check_oracle_indices(arrays, oracle, where)
        expected = oracle.values
        ascending = [sorted(np.asarray(a, dtype=np.float64).tolist()) for a in arrays]

        # what the harness passes beyond each selector's defaults
        keywords = {"soft-tensor": {"debug_checks": True}, "sort-tree": {"want_indices": True},
                    "fast-soft-tree": {"alpha": alpha}}

        def call(name, stats):
            return SELECTORS[name](arrays, k, stats=stats, **keywords.get(name, {}))

        stats = {name: RunStats() for name in SELECTORS}
        results = {name: call(name, stats[name]) for name in SELECTORS}
        for name, result in results.items():
            _check_values(result.values, expected, (name, where))
        # every registered selector was checked, and every keyword reached one
        assert results.keys() == SELECTORS.keys() >= keywords.keys(), where
        for name in ("sort-tensor", "sort-tree"):
            result = results[name]
            resummed = [_balanced_sum([ax[i - 1] for ax, i in zip(ascending, idx)])
                        for idx in result.indices]
            assert resummed == result.values, (name, where)
            assert len(set(result.indices)) == len(result.indices), (name, where)
        pops = stats["sort-tree"].pops_per_level
        assert pops == _reference_pops_per_level(arrays, k), where
        m = len(arrays)
        if m & (m - 1) == 0:
            assert all(p <= (k + 3 * (2 ** d - 1)) / 2 ** d for d, p in pops.items()), where
        # the balanced tree over m leaves is ceil(log2 m) deep, and every depth
        # above the deepest holds a pair-sum node
        fast, deepest = stats["fast-soft-tree"], (m - 1).bit_length()
        assert set(fast.generated_per_level) == set(range(deepest + 1)), where
        assert sum(fast.generated_per_level.values()) == fast.values_generated, where
        assert set(fast.pops_per_level) == set(range(deepest)), where
        # soft-tree and fast-soft-tree carry a 1-D selection's output order
        # into later work, so a second call must repeat their values, in
        # order, and every counter
        for name in ("soft-tree", "fast-soft-tree"):
            again = RunStats()
            assert call(name, again).values == results[name].values, (name, where)
            assert again == stats[name], (name, where)
        soft = stats["soft-tensor"]
        assert soft.corrupted_count <= soft.values_generated / (3 * len(arrays)), where
        assert type(arrays) is type(before), where
        for a, b in zip(arrays, before):
            assert type(a) is type(b) and np.array_equal(a, b), where


def _check_wide_cases(container, cases, seed=0):
    # every selector against perfbench's reference in returned order, and a
    # second call of each must repeat its values and every RunStats field
    rng = random.Random(CONTAINERS.index(container) + len(CONTAINERS) * seed + 2 * 10**6)
    for case in range(cases):
        arrays, k, alpha, kind = make_wide_case(rng, container)
        where = (container, "wide", seed, case, kind, [len(a) for a in arrays], k, alpha)
        before = _snapshot(arrays)
        expected = reference.smallest_sums(arrays, k).tolist()
        keywords = {"soft-tensor": {"debug_checks": True}, "fast-soft-tree": {"alpha": alpha}}
        for name, select in SELECTORS.items():
            stats = [RunStats(), RunStats()]
            got = [select(arrays, k, stats=s, **keywords.get(name, {})).values for s in stats]
            _check_values(got[0], expected, (name, where))
            assert got[1] == got[0] and stats[1] == stats[0], (name, where)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b), where


def make_relation_case(rng):
    """One (arrays, k) case: m <= 8 axes of 1 to 16 values, k <= 64."""
    kind = rng.choice(("ties", "exponential", "negated-exponential"))
    draw = {"ties": lambda: float(rng.randint(0, 3)),
            "exponential": lambda: rng.expovariate(1.0),
            "negated-exponential": lambda: -rng.expovariate(1.0)}[kind]
    arrays = [[draw() for _ in range(rng.randint(1, 16))] for _ in range(rng.randint(1, 8))]
    return arrays, rng.randint(1, min(64, math.prod(len(a) for a in arrays)))


def _related(rng, relation, arrays):
    # the transformed arrays, and the exact map they make on every sum
    if relation == "permute":
        return [rng.sample(a, len(a)) for a in arrays], lambda v: v
    if relation == "scale":
        s = rng.randint(-29, 29)
        return [[math.ldexp(v, s) for v in a] for a in arrays], lambda v: math.ldexp(v, s)
    shifts = [rng.randint(-10**6, 10**6) for _ in arrays]
    return [[v + c for v in a] for a, c in zip(arrays, shifts)], lambda v: v + sum(shifts)


def make_wide_relation_case(rng):
    """One (arrays, k) case drawn like the wide stream, as lists of floats."""
    arrays, k, _, _ = make_wide_case(rng, "float-list")
    return arrays, k


def _check_relation(relation, make, cases, rng):
    # each case, moved by the relation, must keep every selector's counters
    # and map its values exactly
    for case in range(cases):
        arrays, k = make(rng)
        if relation == "shift":  # exact on integers, whose sums here stay far below 2^53
            arrays = [[float(round(4 * v)) for v in a] for a in arrays]
        moved, image = _related(rng, relation, arrays)
        for name, select in SELECTORS.items():
            where = (relation, case, name, [len(a) for a in arrays], k)
            stats, moved_stats = RunStats(), RunStats()
            values = select(arrays, k, stats=stats).values
            assert select(moved, k, stats=moved_stats).values == [image(v) for v in values], where
            assert repr(moved_stats) == repr(stats), where


def _check_wide_relation(relation, cases, seed=0):
    _check_relation(relation, make_wide_relation_case, cases,
                    random.Random(f"wide-relation-{relation}-{seed}"))


@pytest.mark.parametrize("relation", RELATIONS)
def test_metamorphic_relations(relation):
    _check_relation(relation, make_relation_case, RELATION_CASES,
                    random.Random(f"relation-{relation}"))


@pytest.mark.parametrize("relation", RELATIONS)
def test_metamorphic_relations_at_wide_sizes(relation):
    _check_wide_relation(relation, WIDE_RELATION_CASES)


@pytest.mark.parametrize("container", CONTAINERS)
def test_wide_stream_matches_reference(container):
    _check_wide_cases(container, WIDE_CASES)


@pytest.mark.parametrize("container", CONTAINERS[:-1])
def test_selectors_match_oracle(container):
    _check_cases(container, CASES_PER_CONTAINER)


@pytest.mark.parametrize("container", CONTAINERS)
def test_selectors_match_oracle_on_equal_lengths(container):
    _check_cases(container, EQUAL_LENGTH_CASES, equal_length=True)


def test_harness_under_optimize():
    # python -O strips the library's assert statements but not the ones
    # pytest rewrites in this module, so a child interpreter under -O reruns
    # the first cases of one container through this same test
    if not __debug__:
        _check_cases(CONTAINERS[0], OPTIMIZED_CASES)
        return
    import cartesian_topk
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartesian_topk.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # third-party plugins add seconds of start-up and nothing this test uses
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    # pytest warns under -O that asserts outside test modules do not run
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning",
                           f"{os.path.abspath(__file__)}::test_harness_under_optimize"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description="Check every selector against the oracle "
                                                 "on seeded cases of every input container.")
    parser.add_argument("--cases", type=int, default=CASES_PER_CONTAINER,
                        help="cases per container")
    parser.add_argument("--wide-cases", type=int, default=20,
                        help="cases per container of the wide stream")
    parser.add_argument("--seed", type=int, default=0, help="0 draws tier-1's cases")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the checks are assert statements, which python -O strips")
    if min(args.cases, args.wide_cases, args.seed) < 0:
        parser.error("--cases, --wide-cases and --seed must be non-negative")
    for container in CONTAINERS:
        start = time.perf_counter()
        uneven = 0 if container == "2d-ndarray" else args.cases
        _check_cases(container, uneven, args.seed)
        _check_cases(container, args.cases, args.seed, equal_length=True)
        _check_wide_cases(container, args.wide_cases, args.seed)
        print(f"{container}: {uneven} uneven, {args.cases} equal-length and "
              f"{args.wide_cases} wide cases passed in {time.perf_counter() - start:.1f} s")
    for relation in RELATIONS:
        start = time.perf_counter()
        _check_wide_relation(relation, args.wide_cases, args.seed)
        print(f"{relation}: {args.wide_cases} wide relation cases passed "
              f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
