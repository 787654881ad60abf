"""Acceptance criteria, one test per criterion.

Each test prints one uncaptured line

    [ACCEPTANCE NN] PASS/FAIL - detail

so the run log shows every criterion's verdict at a glance. The corpus
used by criteria 1 and 6 is built once and shared.
"""

import math
import time

import numpy as np
import pytest

from napx.baselines import brute_force, pardi_goldman
from napx.discretization import Discretization, derive_k, select_params
from napx.generators import GenSpec, gen_caterpillar, gen_yule, generate
from napx.io import parse_instance, write_instance
from napx.model import Instance, Taxon, expected_pd, normalize
from napx.solver import build_tables, solve

from oracles import (assert_frontier_of_scatter, combine_alone,
                     per_clade_greedy)
from util import fig1_instance


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ------------------------------------------------------------------------- #
#  Shared corpus: 200 instances, brute optimum, two solver runs
# ------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def corpus():
    runs = []
    t0 = time.perf_counter()
    for topo, gen in (("yule", gen_yule), ("caterpillar", gen_caterpillar)):
        for i in range(100):
            n = 4 + i % 7                    # 4..10
            budget = 2 + i % 7               # 2..8
            inst = gen(n, seed=i, budget=budget)
            best = brute_force(inst)
            sol02 = solve(inst, epsilon=0.2)
            sol05 = solve(inst, epsilon=0.5)
            runs.append({
                "topology": topo, "n": n, "budget": budget,
                "instance": inst, "opt": best.score,
                "sol02": sol02, "sol05": sol05,
            })
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def _ratio(score: float, opt: float) -> float:
    return score / opt if opt > 0 else 1.0


def test_acceptance_01_approximation_ratio(capsys, corpus):
    """Criterion 1: on 200 seeded instances (both topologies, n in 4..10,
    budgets 2..8) the solver achieves ratio >= 1 - eps against brute
    force at eps = 0.2 and 0.5, all within five minutes."""
    worst02 = min(_ratio(r["sol02"].selection.score, r["opt"])
                  for r in corpus["runs"])
    worst05 = min(_ratio(r["sol05"].selection.score, r["opt"])
                  for r in corpus["runs"])
    elapsed = corpus["elapsed"]
    ok = worst02 >= 0.8 - 1e-9 and worst05 >= 0.5 - 1e-9 and elapsed < 300
    report(capsys, 1, ok,
           f"200 instances: worst ratio {worst02:.4f} (eps=0.2, need 0.8), "
           f"{worst05:.4f} (eps=0.5, need 0.5), {elapsed:.1f}s (limit 300)")


def test_acceptance_02_pg_equals_brute(capsys):
    """Criterion 2: on 100 certain-conservation instances (a=0, b=1,
    n <= 12) the restricted exact solver matches brute force to 1e-9."""
    worst = 0.0
    for i in range(100):
        gen = gen_yule if i % 2 == 0 else gen_caterpillar
        n = 4 + i % 9                        # 4..12
        inst = gen(n, seed=1000 + i, a_range=(0.0, 0.0), b_range=(1.0, 1.0))
        got = pardi_goldman(inst)
        want = brute_force(inst)
        worst = max(worst, abs(got.score - want.score))
    ok = worst <= 1e-9
    report(capsys, 2, ok, f"100 instances n<=12: max |pg - brute| = {worst:.2e} "
                  "(tolerance 1e-9)")


def test_acceptance_03_combine_matches_scatter(capsys):
    """Criterion 3: the frontier combine's (cost, row, score) cells are
    exactly (==) the non-dominated cells of the literal scatter over all
    (j, i, k, beta) candidates, on every internal edge of 50 instances
    with n <= 8 at eps = 0.5, and every cell's backpointers rebuild it."""
    cells_seen = 0
    edges = 0
    for i in range(50):
        gen = gen_yule if i % 2 == 0 else gen_caterpillar
        inst = gen(5 + i % 4, seed=2000 + i)   # n in 5..8
        norm = normalize(inst)
        min_b = min(tx.b for tx in norm.taxa.values() if tx.b > 0)
        k = derive_k(len(norm.taxa), min_b)
        disc = select_params(len(norm.taxa), norm.tree.height, 0.5, k)
        tables, _ = build_tables(norm, disc)
        for e in norm.tree.edges:
            if len(e.children) != 2:
                continue
            l, r = (tables[c] for c in e.children)
            got = combine_alone(l, r, e.length, norm.budget, disc)
            cells_seen += assert_frontier_of_scatter(got, l, r, e.length,
                                                     norm.budget, disc)
            edges += 1
    report(capsys, 3, True, f"50 instances, {edges} combines, {cells_seen} "
                    "frontier cells identical to the scatter reference's "
                    "(exact ==), backpointers rebuild each cell")


def test_acceptance_04_grid_laws(capsys):
    """Criterion 4: grid laws on a 10^4-point sweep of [p_min, 1]:
    alpha*p <= pi(p) <= p, the depth bound alpha^t <= p_min < alpha^(t-1),
    and the same sandwich for every combined pair of grid rows (j, k):
    with q = g_j + (1 - g_j) g_k, grid[pi_index(q)] <= q, and
    alpha*q <= grid[pi_index(q)] whenever q >= p_min."""
    disc = Discretization(0.9, 0.002)
    assert disc.t == 59
    ps = np.linspace(disc.p_min, 1.0, 10_000)
    sandwich = all(
        disc.alpha * p * (1 - 1e-12) <= disc.pi(float(p)) <= p * (1 + 1e-12)
        for p in ps)
    depth = disc.alpha ** disc.t <= disc.p_min < disc.alpha ** (disc.t - 1)
    g = disc.grid
    rows = disc.t + 2
    pairs_ok = True
    for j in range(rows):
        for k in range(rows):
            q = float(g[j] + (1.0 - g[j]) * g[k])
            v = float(g[disc.pi_index(q)])
            pairs_ok &= v <= q * (1 + 1e-12)
            if q >= disc.p_min:
                pairs_ok &= disc.alpha * q * (1 - 1e-12) <= v
    ok = sandwich and depth and pairs_ok
    report(capsys, 4, ok, f"t={disc.t}: rounding sandwich on 10^4 points "
                  f"[{sandwich}], depth bracket [{depth}], "
                  f"{rows * rows} row pairs round into [alpha*q, q] [{pairs_ok}]")


def test_acceptance_05_small_survival_bound(capsys):
    """Criterion 5: with unconserved survivals below 2*p_min, the solved
    ratio at eps = 0.3 beats the per-instance bound
    1 - n^(k+1) * p_min on 50 instances."""
    worst_slack = math.inf
    for i in range(50):
        n = 5 + i % 6                        # 5..10
        spec = GenSpec(n=n, topology="yule" if i % 2 == 0 else "caterpillar",
                       seed=3000 + i, a_range=(0.0, 0.0), c_range=(1, 2))
        base = generate(spec)
        budget = max(base.budget, max(tx.c for tx in base.taxa.values()))
        k = derive_k(n, min(tx.b for tx in base.taxa.values()))
        p_min = (1.0 - math.sqrt(1.0 - 0.3)) / n ** (k + 1)
        rng = np.random.Generator(np.random.Philox(key=9000 + i))
        taxa = {tid: Taxon(id=tid, a=float(rng.uniform(0, 2 * p_min)),
                           b=tx.b, c=tx.c)
                for tid, tx in base.taxa.items()}
        inst = Instance(tree=base.tree, taxa=taxa, budget=budget)
        opt = brute_force(inst).score
        sol = solve(inst, epsilon=0.3)
        bound = 1.0 - n ** (k + 1) * p_min
        slack = _ratio(sol.selection.score, opt) - bound
        worst_slack = min(worst_slack, slack)
    ok = worst_slack >= -1e-9
    report(capsys, 5, ok, f"50 instances, a <= 2*p_min: min(ratio - bound) = "
                  f"{worst_slack:+.4f} (needs >= 0)")


def test_acceptance_06_reported_is_lower_bound(capsys, corpus):
    """Criterion 6: on the criterion-1 corpus, every solution's exact
    re-evaluation is at least the reported table score minus 1e-6, and
    its cost fits the budget."""
    worst_gap = math.inf
    max_over = 0
    for r in corpus["runs"]:
        for sol in (r["sol02"], r["sol05"]):
            worst_gap = min(worst_gap,
                            sol.selection.score - sol.reported_score)
            max_over = max(max_over,
                           sol.selection.total_cost - r["budget"])
    ok = worst_gap >= -1e-6 and max_over <= 0
    report(capsys, 6, ok, f"400 solutions: min(evaluated - reported) = "
                  f"{worst_gap:+.2e} (tolerance -1e-6), max cost excess "
                  f"{max_over}")


def test_acceptance_07_pendant_combine_identity(capsys):
    """Criterion 7: on 20 caterpillars, where every combine has a pendant
    child, each combine's cells equal (==) the non-dominated cells of the
    literal scatter reference, with backpointers that rebuild each cell.
    The root, which the build gives no table, is combined alone."""
    combines = 0
    for seed in range(20):
        inst = gen_caterpillar(12, seed)
        norm = normalize(inst)
        min_b = min(tx.b for tx in norm.taxa.values() if tx.b > 0)
        k = derive_k(len(norm.taxa), min_b)
        disc = select_params(len(norm.taxa), norm.tree.height, 0.35, k)
        tables, _ = build_tables(norm, disc)
        for e in norm.tree.edges:
            if len(e.children) != 2:
                continue
            l, r = (tables[c] for c in e.children)
            assert any(norm.tree.edges[c].taxon is not None
                       for c in e.children)
            got = (combine_alone(l, r, e.length, norm.budget, disc)
                   if e.eid == norm.tree.root else tables[e.eid])
            assert_frontier_of_scatter(got, l, r, e.length, norm.budget, disc)
            combines += 1
    report(capsys, 7, True, f"20 caterpillars, {combines} pendant-child "
                     "combines identical to the scatter reference's frontier, "
                     "backpointers rebuild each cell")


def test_acceptance_08_yule_heights(capsys):
    """Criterion 8: mean height (root edge included) of 100 Yule trees at
    n=50 stays within 4*log2(50)."""
    heights = [gen_yule(50, seed).tree.height for seed in range(100)]
    mean = float(np.mean(heights))
    limit = 4 * math.log2(50)
    ok = mean <= limit
    report(capsys, 8, ok, f"mean height {mean:.2f} over 100 seeds "
                  f"(limit {limit:.2f})")


def test_acceptance_09_local_greedy_regression(capsys):
    """Criterion 9: on the four-leaf regression instance the solver at
    eps = 0.05 returns the true optimum {w, y} = 230, which a per-clade
    greedy misses (it returns {w, z} = 190, below the guarantee)."""
    inst = fig1_instance()
    sol = solve(inst, epsilon=0.05)
    greedy = per_clade_greedy(inst)
    greedy_score = expected_pd(inst, greedy)
    opt = brute_force(inst).score
    ok = (sol.selection.selected == frozenset({"w", "y"})
          and abs(sol.selection.score - 230.0) < 1e-9
          and abs(greedy_score - 190.0) < 1e-9
          and greedy_score < 0.95 * opt)
    report(capsys, 9, ok, f"solver {sorted(sol.selection.selected)} = "
                  f"{sol.selection.score:.0f}, per-clade greedy "
                  f"{sorted(greedy)} = {greedy_score:.0f}, optimum {opt:.0f}")


def test_acceptance_10_serialization_identity(capsys):
    """Criterion 10: parse(write(x)) == x with byte-stable re-serialization
    for 100 generated instances in both formats."""
    checked = 0
    for i in range(50):
        for gen in (gen_yule, gen_caterpillar):
            inst = gen(1 + i % 30, seed=4000 + i)
            for fmt in ("json", "nwk"):
                text = write_instance(inst, fmt, name="c10", seed=4000 + i)
                back, meta = parse_instance(text, fmt)
                assert back == inst
                assert meta["name"] == "c10" and meta["seed"] == 4000 + i
                assert write_instance(back, fmt, name="c10",
                                      seed=4000 + i) == text
            checked += 1
    report(capsys, 10, True, f"{checked} instances round-tripped identically "
                     "in both formats")
