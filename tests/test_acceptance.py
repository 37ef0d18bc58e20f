"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criterion 8 checks sort-tree's per-level pop counts: the
uniform half bounds the leaf-level pops; the exponential half checks the
published propagation table on inputs that propagate along one path, and
checks i.i.d. exponential inputs against an exact NumPy reference and the
single-path ceiling (see README, "Propagation depth (criterion 8)").
"""

import math
import random
from collections import Counter

import numpy as np

from cartesian_topk import (SELECTORS, LayerSchedule, LeafGenerator, RunStats, SoftHeap,
                            brute_force_select, concatenation_select, fast_soft_tree_select,
                            lohify, select_k, select_k_loh, sort_tensor_select,
                            sort_tree_select, theoretical_exponent, verify_loh)
from cartesian_topk.bench import generate_inputs

ALPHA_GRID = (1.05, 1.1, 1.3, 1.5, 1.9)

KEYWORDS = {"fast-soft-tree": {"alpha": 1.3}}  # what criterion 1 passes beyond the defaults


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def grid_cells():
    for m in range(1, 7):
        for n in range(1, 9):
            total = n ** m
            ks = sorted({k for k in (1, 2, 5, min(25, total)) if k <= total})
            yield m, n, total, ks


def test_criterion_1_oracle_equivalence_grid():
    mismatches = 0
    runs = 0
    for m, n, total, ks in grid_cells():
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed * 1009 + m * 131 + n))
            arrays = [row.tolist() for row in rng.random((m, n))]
            expected_full = brute_force_select(arrays, max(ks)).values
            for k in ks:
                expected = expected_full[:k]
                for name, select in SELECTORS.items():
                    runs += 1
                    result = select(arrays, k, **KEYWORDS.get(name, {}))
                    if (result.values if result.sorted else sorted(result.values)) != expected:
                        mismatches += 1
    report(1, mismatches == 0,
           f"all five selectors match brute force on the full grid "
           f"({runs} runs, {mismatches} mismatches)")


def test_criterion_2_sorted_output():
    rng = random.Random(2024)
    violations = 0
    for _ in range(1000):
        m = rng.randint(1, 5)
        arrays = [[rng.random() for _ in range(rng.randint(1, 6))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, min(total, 30))
        for values in (sort_tensor_select(arrays, k).values,
                       sort_tree_select(arrays, k).values):
            if any(x > y for x, y in zip(values, values[1:])):
                violations += 1
    report(2, violations == 0,
           f"sorted selectors nondecreasing on 1000 instances ({violations} violations)")


def test_criterion_3_soft_heap_corruption_bound():
    rng = random.Random(3)
    bound_violations = 0
    workloads = 0
    for eps in (0.01, 0.1, 0.25, 0.4):
        sizes = [int(50 * (2000 / 50) ** rng.random()) for _ in range(248)]
        sizes += [30_000, 100_000]
        for ops in sizes:
            workloads += 1
            h = SoftHeap(eps)
            live = 0
            for i in range(ops):
                if live == 0 or rng.random() < 0.6:
                    h.insert(rng.random())
                    live += 1
                else:
                    h.extract_min()
                    live -= 1
                if h.corrupted_count > eps * h.insert_count:
                    bound_violations += 1
        # below 1/eps insertions no corruption is possible, so extraction
        # order is exactly sorted
        n = int(1 / eps) - 1
        if n >= 1:
            h = SoftHeap(eps)
            vals = [rng.random() for _ in range(n)]
            for v in vals:
                h.insert(v)
            out = [h.extract_min()[0][0] for _ in range(n)]
            if out != sorted(vals) or h.corrupted_count != 0:
                bound_violations += 1
    report(3, bound_violations == 0,
           f"corrupted <= eps*I at every step over {workloads} workloads; "
           f"I < 1/eps extracts sorted ({bound_violations} violations)")


def test_criterion_4_loh_invariants():
    rng = random.Random(4)
    schedule_ok = True
    for alpha in ALPHA_GRID:
        sched = LayerSchedule(alpha, 10 ** 6)
        full = [sched.full_size(i) for i in range(1, sched.num_layers + 1)]
        for i, (a, b) in enumerate(zip(full, full[1:]), start=1):
            if not a <= b <= 2 * a:
                schedule_ok = False
            if sched.total(i) >= 1000 and abs(b / a - alpha) > 0.05:
                schedule_ok = False
    failures = 0
    sizes = [int(10 ** (4 * rng.random())) for _ in range(990)] + [10_000] * 10
    for n in sizes:
        vals = [rng.random() for _ in range(max(1, n))]
        for alpha in ALPHA_GRID:
            heap = lohify(vals, alpha)
            if not verify_loh(heap) or Counter(heap.values) != Counter(vals):
                failures += 1
    report(4, schedule_ok and failures == 0,
           f"verify_loh on 1000 arrays x 5 alphas ({failures} failures); "
           f"schedule bounds and ratio convergence {'hold' if schedule_ok else 'broken'}")


def test_criterion_5_sibling_source_counts():
    rng = random.Random(5)
    violations = 0
    for _ in range(1000):
        na, nb = rng.randint(1, 64), rng.randint(1, 64)
        a = sorted(rng.random() for _ in range(na))
        b = sorted(rng.random() for _ in range(nb))
        k = rng.randint(1, min(64, na * nb))
        cells = sorted((x + y, i, j)
                       for i, x in enumerate(a, 1) for j, y in enumerate(b, 1))[:k]
        a_used = max(i for _, i, _ in cells)
        b_used = max(j for _, _, j in cells)
        if a_used + b_used - 1 > k:
            violations += 1
    report(5, violations == 0,
           f"a + b - 1 <= k on 1000 pairwise instances ({violations} violations)")


def test_criterion_6_concatenation_generation_bound():
    results = []
    for alpha in (1.1, 1.3):
        for k in (1000, 10_000):
            over_budget = 0
            for seed in range(100):
                rng = np.random.Generator(np.random.PCG64(seed))
                n = int(alpha * alpha * k * 1.4) + 64
                gen_a = LeafGenerator(rng.random(n).tolist(), alpha)
                gen_b = LeafGenerator(rng.random(n).tolist(), alpha)
                concatenation_select(gen_a, gen_b, k)
                generated = gen_a.generated_count + gen_b.generated_count
                if generated > 1.2 * alpha * alpha * k + 64:
                    over_budget += 1
            results.append((alpha, k, over_budget))
    ok = all(over <= 1 for _, _, over in results)  # >= 99% of seeds
    report(6, ok, "generated <= 1.2*alpha^2*k + 64 in >=99/100 seeds per cell: "
           + ", ".join(f"alpha={a} k={k}: {o} over" for a, k, o in results))


def test_criterion_7_sublinear_growth_in_m():
    alpha, n, k = 1.1, 32, 128
    seeds = range(5)
    totals = {}
    for m in (16, 32, 64):
        agg = 0
        for seed in seeds:
            rng = np.random.Generator(np.random.PCG64(seed))
            arrays = [row.tolist() for row in rng.random((m, n))]
            stats = RunStats()
            fast_soft_tree_select(arrays, k, alpha=alpha, stats=stats)
            agg += stats.values_generated
        totals[m] = agg / len(seeds)
    limit = alpha * alpha * 1.25
    r1 = totals[32] / totals[16]
    r2 = totals[64] / totals[32]
    report(7, r1 <= limit and r2 <= limit,
           f"generated-value growth per m-doubling: {r1:.3f}, {r2:.3f} <= {limit:.4f}")


def _smallest_cells(a, b, p):
    """Row and column (0-based) of the p smallest cells a[i] + b[j], in
    (value, i, j) order, for ascending a and b.

    The (i + 1) * (j + 1) cells with row <= i and column <= j come no
    later than (i, j) in that order, so only cells with
    (i + 1) * (j + 1) <= p can be among the first p.  The candidates are
    listed row by row, so a stable sort on the sum breaks ties by (i, j).
    """
    widths = np.minimum(p // np.arange(1, len(a) + 1), len(b))
    rows = np.repeat(np.arange(len(a)), widths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(widths) - widths, widths)
    order = np.argsort(a[rows] + b[cols], kind="stable")[:p]
    return rows[order], cols[order]


def _reference_pops_per_level(arrays, k):
    """sort-tree's ``pops_per_level`` from its definition, with NumPy only.

    The root is asked for k values.  A merge node asked for p values pops
    the p smallest cells (i, j) of its children's ascending streams in
    (value, i, j) order, and realizes a child's next value when it
    enqueues the successor of a popped cell: it asks the left child for
    1 + max i and the right child for 1 + max j (1-based), capped at the
    child's number of cells.
    """
    cap = k + len(arrays)  # a child is asked for at most one value more than its parent
    smallest = {}

    def split(lo, hi):
        return lo + (hi - lo + 1) // 2  # sort-tree's balanced split

    def build(lo, hi):
        if hi - lo == 1:
            smallest[lo, hi] = np.sort(np.asarray(arrays[lo], dtype=np.float64))[:cap]
            return
        mid = split(lo, hi)
        build(lo, mid)
        build(mid, hi)
        a, b = smallest[lo, mid], smallest[mid, hi]
        rows, cols = _smallest_cells(a, b, min(cap, len(a) * len(b)))
        smallest[lo, hi] = a[rows] + b[cols]

    asked: dict[int, list[int]] = {}

    def ask(lo, hi, p, depth):
        asked.setdefault(depth, []).append(p)
        if hi - lo > 1:
            mid = split(lo, hi)
            rows, cols = _smallest_cells(smallest[lo, mid], smallest[mid, hi], p)
            ask(lo, mid, min(math.prod(map(len, arrays[lo:mid])), int(rows.max()) + 2),
                depth + 1)
            ask(mid, hi, min(math.prod(map(len, arrays[mid:hi])), int(cols.max()) + 2),
                depth + 1)

    build(0, len(arrays))
    ask(0, len(arrays), k, 0)
    return {depth: sum(ps) / len(ps) for depth, ps in asked.items()}


def test_criterion_8_propagation_depth_trends():
    # uniform half: leaf-level pops stay small at k = 2048
    leaf_means = []
    for rep in range(5):
        arrays = generate_inputs("uniform", 64, 1024, 100 + rep)
        stats = RunStats()
        sort_tree_select(arrays, 2048, stats=stats)
        leaf_means.append(stats.pops_per_level[max(stats.pops_per_level)])
    uniform_ok = all(v <= 10 for v in leaf_means)
    print(f"ACCEPTANCE  8 (uniform half) {'PASS' if uniform_ok else 'FAIL'}: "
          f"leaf-level pops at k=2048: {[round(v, 2) for v in leaf_means]} (limit 10)")

    # exponential half.  A merge node asked for p values asks its two
    # children for at most p + 3 in total (criteria 5 and 9), so the mean
    # at depth d of this complete tree is at most (k + 3 * (2^d - 1)) / 2^d:
    # 512, 257.5, 130.25, 66.625, 34.81, the published table.  The ceiling
    # is reached only when every root pop runs down one path to a leaf.
    # i.i.d. rate-1 exponential inputs stay far below it (near 0 their
    # density is that of U[0, 1)), so on them the test checks the counts
    # with == against the reference above, and checks the ceiling.  The
    # table is checked on the same draws with arrays 0-62 scaled by 1e10
    # (these runs face the reference and the ceiling too): on seeds
    # 200-219 array 63's 518 smallest values span at most 0.76, while the
    # first gap of any sum over arrays 0-62 is at least 1.6e3, so each
    # node on the rightmost path takes all its pops from its right child.
    k, reps = 512, 20
    targets = [512.0, 257.5, 130.3, 66.63, 34.75]
    iid_acc: dict[int, float] = {}
    path_acc: dict[int, float] = {}
    reference_mismatches = 0
    over_ceiling = 0
    for rep in range(reps):
        iid = generate_inputs("exponential", 64, 1024, 200 + rep)
        single_path = [[1e10 * x for x in row] for row in iid[:63]] + iid[63:]
        for arrays, acc in ((iid, iid_acc), (single_path, path_acc)):
            stats = RunStats()
            sort_tree_select(arrays, k, stats=stats)
            if stats.pops_per_level != _reference_pops_per_level(arrays, k):
                reference_mismatches += 1
            for level, pops in stats.pops_per_level.items():
                acc[level] = acc.get(level, 0.0) + pops
                if pops > (k + 3 * (2 ** level - 1)) / 2 ** level:
                    over_ceiling += 1
    iid_means = [iid_acc[level] / reps for level in sorted(iid_acc)]
    path_means = [path_acc[level] / reps for level in sorted(path_acc)]
    deviations = [abs(path_means[i] - t) / t for i, t in enumerate(targets)]
    table_ok = all(d <= 0.15 for d in deviations)
    detail = (f"single-path per-level means {[round(v, 2) for v in path_means[:5]]} vs "
              f"targets {targets} (tolerance 15%); pops_per_level == reference on "
              f"{2 * reps - reference_mismatches}/{2 * reps} runs; {over_ceiling} "
              f"per-level means over the ceiling; i.i.d. exponential means "
              f"{[round(v, 2) for v in iid_means[:5]]}")
    report(8, uniform_ok and table_ok and reference_mismatches == 0 and over_ceiling == 0,
           detail)


def test_criterion_9_single_margin_advance():
    # the merge nodes assert the invariant on every pop; sweeping the full
    # grid with sort-tree raises if any pop ever advances both margins
    runs = 0
    for m, n, total, ks in grid_cells():
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed * 733 + m * 19 + n))
            arrays = [row.tolist() for row in rng.random((m, n))]
            for k in ks:
                sort_tree_select(arrays, k, want_indices=True)
                runs += 1
    report(9, True,
           f"no pop advanced both margins across {runs} instrumented runs "
           f"(the assertion is always on, so criterion 1's grid exercises it too)")


def test_criterion_10_selection_agreement_and_exponent():
    rng = random.Random(10)
    disagreements = 0
    for i in range(1000):
        n = int(10 ** (3.3 * rng.random()))
        vals = [rng.random() for _ in range(max(1, n))]
        k = rng.randint(1, len(vals))
        alpha = ALPHA_GRID[i % len(ALPHA_GRID)]
        if Counter(select_k_loh(vals, k, alpha)) != Counter(select_k(vals, k)):
            disagreements += 1
    exponent = theoretical_exponent(1.05)
    exponent_ok = abs(exponent - 0.1407) <= 0.0001
    report(10, disagreements == 0 and exponent_ok,
           f"layered 1-D selection equals select_k on 1000 instances "
           f"({disagreements} disagreements); exponent(1.05) = {exponent:.5f}")
