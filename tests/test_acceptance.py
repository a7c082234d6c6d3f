"""Acceptance suite: the package's exit criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 2 holds every run to the closed-form worst case
p^(n-k-d) + (k+1)p^d; the accounting that makes it hold is in the
``gsp.solvers`` docstring.
"""

import math
import random

import pytest

from gsp import (
    QCounter,
    QueryLog,
    VectorP,
    brute_force_solve,
    choose_d,
    enumerate_subgroups,
    evading_subgroup,
    find_s,
    make_instance,
    orthogonal,
    quantum_find_s,
    random_subgroup,
    t1_count,
    t2_count,
)
from gsp.bounds import det_query_bound
from conftest import add, all_vectors, elements, intersect, marginal, simon_subroutine, sub, support

GRID = [
    (p, n, k)
    for p in (2, 3, 5)
    for n in range(2, 7)
    if p**n <= 4096
    for k in range(1, n)
]
SEEDS = 20


def _label_seed(seed):
    return seed ^ 0x9E3779B9


@pytest.fixture(scope="module")
def sweep():
    """find_s at every split d, plus one brute-force run, per grid instance."""
    runs = []
    brutes = []
    for p, n, k in GRID:
        d_default = choose_d(p, n, k)
        for seed in range(SEEDS):
            for obf in (False, True):
                inst = make_instance(p, n, k, seed, _label_seed(seed), obf)
                brute = brute_force_solve(QueryLog(inst))
                brutes.append(
                    dict(p=p, n=n, k=k, queries=brute.queries,
                         ok=brute.recovered == inst.secret)
                )
                for d in range(n - k + 1):
                    res = find_s(QueryLog(inst), d)
                    runs.append(
                        dict(p=p, n=n, k=k, seed=seed, obf=obf, d=d,
                             queries=res.queries,
                             ok=res.recovered == brute.recovered,
                             default=d == d_default)
                    )
    return runs, brutes


def test_criterion_1_exact_recovery(sweep):
    runs, brutes = sweep
    mismatches = [r for r in runs if not r["ok"]]
    assert all(b["ok"] for b in brutes)
    line = (f"ACCEPTANCE 1 exact-recovery: "
            f"{'PASS' if not mismatches else 'FAIL'} "
            f"({len(runs)} runs over {len(GRID)} cells, {len(mismatches)} mismatches)")
    print("\n" + line)
    assert not mismatches


def test_criterion_2_deterministic_upper_bound(sweep):
    runs, _ = sweep
    violations = [
        r for r in runs
        if r["queries"] > det_query_bound(r["p"], r["n"], r["k"], r["d"])
    ]
    ratio = max(
        r["queries"] / max(r["k"], math.sqrt(r["k"] * r["p"] ** (r["n"] - r["k"])))
        for r in runs
        if r["default"]
    )
    ratio_ok = ratio <= 4.0
    verdict = "PASS" if (not violations and ratio_ok) else "FAIL"
    print(f"\nACCEPTANCE 2 deterministic-upper-bound: {verdict} "
          f"(per-run bound exceeded on {len(violations)}/{len(runs)} runs; "
          f"max queries/max(k,sqrt(k*p^(n-k))) at default d = {ratio:.3f}, limit 4)")
    for r in violations:
        print(f"  exceeded: p={r['p']} n={r['n']} k={r['k']} seed={r['seed']} "
              f"obf={int(r['obf'])} d={r['d']}: {r['queries']} > "
              f"{det_query_bound(r['p'], r['n'], r['k'], r['d'])}")
    assert ratio_ok
    assert not violations, (
        f"{len(violations)} runs exceed p^(n-k-d)+(k+1)p^d; every one pays a "
        "span re-query after a late collision against the first query group, "
        "a cost the closed-form expression does not include"
    )


def test_criterion_3_simon_special_case():
    ratios = {}
    for n in range(3, 11):
        worst = 0.0
        for seed in range(3):
            inst = make_instance(2, n, 1, seed, _label_seed(seed), bool(seed % 2))
            res = find_s(QueryLog(inst), choose_d(2, n, 1))
            worst = max(worst, res.queries / math.sqrt(2**n))
        ratios[n] = worst
    ok = max(ratios.values()) <= 4.0
    print(f"\nACCEPTANCE 3 simon-special-case: {'PASS' if ok else 'FAIL'} "
          f"(queries/sqrt(2^n) for n=3..10: "
          + " ".join(f"{n}:{r:.2f}" for n, r in ratios.items()) + ")")
    assert ok


def test_criterion_4_counting_formulas():
    for p in (2, 3):
        for n in range(0, 5):
            for k in range(0, n + 1):
                subs = list(enumerate_subgroups(p, n, k))
                assert len(subs) == t1_count(p, n, k)
                if k >= 1 and n >= 1:
                    e = VectorP.from_index(p, n, 1)
                    assert sum(1 for h in subs if h.contains(e)) == t2_count(p, n, k)
    checked = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert t1_count(p, n, k) * (p**k - 1) == t2_count(p, n, k) * (p**n - 1)
                checked += 1
    print(f"\nACCEPTANCE 4 counting-formulas: PASS "
          f"(enumeration grid exact; identity exact on {checked} points)")


def test_criterion_5_sparse_intersection_witness():
    p, n = 2, 4
    nonzero = [VectorP.from_index(p, n, i) for i in range(1, p**n)]
    rng = random.Random(2024)
    trials = 0
    for k in (1, 2):
        for d in (1, 2):
            limit = d * (p**n - 1) // (p**k - 1)
            for _ in range(100):
                size = rng.randrange(0, min(limit - 1, len(nonzero)) + 1)
                d_set = rng.sample(nonzero, size)
                h = evading_subgroup(p, n, d_set, k=k, d=d)
                assert h is not None
                assert sum(1 for v in d_set if h.contains(v)) < d
                trials += 1
    print(f"\nACCEPTANCE 5 sparse-intersection-witness: PASS ({trials} trials, no misses)")


CRIT6_CELLS = (
    [(2, n, k, 2) for n in (4, 5, 6) for k in range(1, n)]
    + [(2, 8, 1, 1), (2, 8, 7, 1)]
    + [(3, n, k, 2) for n in (3, 4) for k in range(1, n)]
    + [(5, 3, k, 2) for k in (1, 2)]
)


def test_criterion_6_coset_meets_secret():
    checked = 0
    for p, n, k, n_seeds in CRIT6_CELLS:
        for seed in range(n_seeds):
            secret = random_subgroup(p, n, k, seed)
            secret_elems = elements(secret)
            for v in enumerate_subgroups(p, n, n - k):
                if intersect(v, secret).rank:
                    continue
                v_elems = elements(v) if v.rank <= secret.rank else None
                for w in all_vectors(p, n):
                    if v.contains(w):
                        continue
                    if v_elems is not None:
                        hit = any(secret.contains(add(x, w)) for x in v_elems)
                    else:
                        hit = any(v.contains(sub(s, w)) for s in secret_elems)
                    assert hit, f"empty coset at p={p} n={n} k={k} seed={seed}"
                    checked += 1
    print(f"\nACCEPTANCE 6 coset-meets-secret: PASS ({checked} cosets, 0 counterexamples)")


QGRID = [(p, n, k) for p in (2, 3) for n in range(2, 6) for k in range(1, n)]
# cells past the former 512 simulation cap, at each of p = 2, 3 and 5
QGRID_LARGE = [(2, 10, 6), (3, 6, 3), (5, 4, 2), (3, 7, 5), (5, 5, 3)]
# a cell past the former 4096 simulation cap, which only the label-branch simulation reaches
QGRID_BRANCH = [(2, 14, 2)]


def test_criterion_7_orthogonal_support_law():
    for p, n, k in QGRID:
        for seed in range(5):
            inst = make_instance(p, n, k, seed, _label_seed(seed), bool(seed % 2))
            psi = simon_subroutine(inst, QCounter())
            perp = orthogonal(inst.secret)
            assert {VectorP.from_index(p, n, i) for i in support(psi, 0)} == set(elements(perp))
            expected = 1.0 / p ** (n - k)
            for prob in marginal(psi, 0).values():
                assert abs(prob - expected) < 1e-10
    print(f"\nACCEPTANCE 7 orthogonal-support-law: PASS "
          f"({len(QGRID) * 5} simulations, support exact and uniform)")


def test_criterion_8_quantum_exactness_and_calls():
    # exact amplification spends 2*iters + 1 calls per round, and iters = 1
    # because the success probability 1 - p^-(n-k-m) is at least 1/2
    per_round = set()
    for p, n, k in QGRID + QGRID_LARGE + QGRID_BRANCH:
        for seed in range(10):
            inst = make_instance(p, n, k, seed, _label_seed(seed), bool(seed % 2))
            counter = QCounter()
            res = quantum_find_s(inst, counter)  # raises if bad amplitude > 1e-9
            assert res.recovered == inst.secret
            per_round.add(counter.oracle_calls / (n - k))
    ok = per_round == {3.0}
    print(f"\nACCEPTANCE 8 quantum-exactness: {'PASS' if ok else 'FAIL'} "
          f"(oracle calls per round = {sorted(per_round)}, exactly 3)")
    assert ok


def test_criterion_9_lower_bound_consistency(sweep):
    runs, brutes = sweep
    # the asymptotic lower bounds cannot be established at desk scale; check
    # that every measured count is consistent with the adaptive lower curve
    bad = []
    for r in runs:
        lower = max(r["k"], math.sqrt(r["p"] ** (r["n"] - r["k"])))
        if r["queries"] < lower:
            bad.append(r)
    for b in brutes:
        lower = max(b["k"], math.sqrt(b["p"] ** (b["n"] - b["k"])))
        assert b["queries"] >= lower
    print(f"\nACCEPTANCE 9 lower-bound-consistency: "
          f"{'PASS' if not bad else 'FAIL'} "
          f"({len(runs) + len(brutes)} measured counts, "
          f"{len(bad)} below the adaptive lower curve)")
    assert not bad
