"""Deterministic solver, baselines, and their query accounting."""

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from gsp import (
    HiddenInstance,
    ParameterError,
    PromiseViolationError,
    QueryLog,
    ResourceCapError,
    VectorP,
    birthday_solve,
    brute_force_solve,
    canonicalize,
    choose_d,
    complement,
    enumerate_subgroups,
    find_group,
    find_s,
    make_instance,
    quantum_find_s,
    random_subgroup,
)
from gsp import solvers
from gsp.algebra import _span, lanes
from gsp.bounds import det_query_bound
from gsp.solvers import _lex_smallest_outside
from conftest import (
    all_vectors, cache_pairs, checked_find_group, consistent, elements, full_subgroup, intersect, pack, sub, unpack
)

GOLDEN_TRACES = Path(__file__).parent / "data" / "find_s_traces.txt"


def _golden_runs():
    """(p, n, k, obfuscate, d, subgroup seed, label seed) of every golden trace.

    Every run of the acceptance grid at subgroup seed 0 (label seed
    0 ^ 0x9E3779B9), both label modes and every d; then the six cells of the
    benchmark's ``scale`` workload, obfuscated, at ``choose_d``.
    """
    for p in (2, 3, 5):
        for n in range(2, 7):
            if p**n > 4096:
                continue
            for k in range(1, n):
                for obfuscate in (0, 1):
                    for d in range(n - k + 1):
                        yield p, n, k, obfuscate, d, 0, 0x9E3779B9
    for n in (14, 15, 16):
        for k in (n // 4, n // 4 + 1):
            yield 2, n, k, 1, choose_d(2, n, k), 0, 0


def _trace_line(p, n, k, obfuscate, d, subgroup_seed, label_seed):
    """``p n k obfuscate d queries sha256``, hashing what ``gsp solve --trace`` writes."""
    res = find_s(QueryLog(make_instance(p, n, k, subgroup_seed, label_seed, bool(obfuscate))), d)
    text = "".join(f"{element.digits()} {label.digits()}\n" for element, label in res.trace)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return f"{p} {n} {k} {obfuscate} {d} {res.queries} {digest}"


class TestChooseD:
    def test_examples(self):
        assert choose_d(2, 4, 2) == 0
        assert choose_d(2, 10, 2) == 3
        assert choose_d(2, 3, 2) == 0

    def test_range(self):
        for p in (2, 3, 5):
            for n in range(2, 9):
                for k in range(1, n):
                    d = choose_d(p, n, k)
                    assert 0 <= d <= n - k
                    if p ** (n - k) < k:
                        assert d == 0
                    else:
                        # largest d with p^(n-k-2d) >= k
                        assert p ** (n - k - 2 * d) >= k
                        assert d == (n - k) // 2 or p ** (n - k - 2 * (d + 1)) < k

    def test_errors(self):
        with pytest.raises(ParameterError):
            choose_d(2, 4, 0)
        with pytest.raises(ParameterError):
            choose_d(2, 4, 4)

    @pytest.mark.parametrize("args,message", [
        ((2, 5, 2.0), "k must be an int"),  # gave d = 1.0, which find_s refuses
        ((2, 5.0, 2), "n must be an int"),
        ((2, 5, True), "k must be an int"),
        ((4, 5, 2), "p must be a prime, got 4"),  # gave d = 1 for a space with no instance
    ])
    def test_refuses_what_find_s_refuses(self, args, message):
        with pytest.raises(ParameterError, match=message):
            choose_d(*args)


class TestLexSmallestOutside:
    @staticmethod
    def _scan(excluded):
        # reference: walk Z_p^n in index order
        p, n = excluded.p, excluded.n
        return next(v for v in (VectorP.from_index(p, n, i) for i in range(1, p**n))
                    if not excluded.contains(v))

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2)])
    def test_matches_index_scan(self, p, n):
        for k in range(n):
            for excluded in enumerate_subgroups(p, n, k):
                outside = _lex_smallest_outside(lanes(p, n), excluded.pivots())
                assert outside == pack(self._scan(excluded)), excluded.to_text()

    def test_full_group_raises(self):
        with pytest.raises(PromiseViolationError):
            _lex_smallest_outside(lanes(3, 3), full_subgroup(3, 3).pivots())


def _zero_label_of(log):
    """The label map of the trivial group, querying 0^n."""
    return {log.query(0): 0}


class TestFindGroup:
    def test_d_zero_no_queries(self, ref_instance):
        log = QueryLog(ref_instance)
        zero_label_of = _zero_label_of(log)
        echelon, s_rows = {}, []
        b_label_of = find_group(log, echelon, s_rows, zero_label_of, 0)
        assert b_label_of == zero_label_of and echelon == {} and s_rows == [] and log.count == 1

    def test_full_corank_build(self, ref_instance, ref_secret):
        log = QueryLog(ref_instance)
        b_label_of = checked_find_group(log, {}, [], _zero_label_of(log), 2)
        b = canonicalize(2, 4, b_label_of.values())
        assert b.rank == 2
        assert intersect(b, ref_secret).rank == 0
        assert all(x in log.cache for x in b.elements())
        assert b_label_of == {log.cache[x]: x for x in b.elements()}

    @pytest.mark.parametrize("s1_rank", [0, 1])
    @pytest.mark.parametrize("p,n,k", [(2, 5, 2), (3, 4, 1), (5, 4, 2)])
    def test_rank_guard_raises_at_collision_k_plus_one(self, p, n, k, s1_rank):
        # one label for every element: each pick u collides with 0 at one query, and the
        # collision that takes S2 past rank k raises before any further query
        class OneLabel(HiddenInstance):
            def evaluate(self, x):
                return 0

        log = QueryLog(OneLabel(p, n, k, random_subgroup(p, n, k, 0), 0, False))
        s_rows = [1 << lanes(p, n).shifts[0]] * s1_rank  # e_0, outside every pick
        echelon = {0: row for row in s_rows}
        message = rf"collected {k + 1} independent secret elements, but rank\(S\) = {k}"
        with pytest.raises(PromiseViolationError, match=message):
            find_group(log, echelon, s_rows, _zero_label_of(log), n - k)
        assert log.count == 1 + (k + 1 - s1_rank)  # 0^n, then one query per collision

    @pytest.mark.parametrize("p,n,k", [(2, 5, 2), (3, 4, 1), (2, 6, 3), (5, 3, 1)])
    def test_trivial_a_query_count_formula(self, p, n, k):
        # with A trivial the instrumented count is exactly p^d - 1 + (rank gain),
        # provided the zero label is already on the books
        for seed in range(8):
            inst = make_instance(p, n, k, subgroup_seed=seed, label_seed=seed)
            for d in range(n - k + 1):
                log = QueryLog(inst)
                zero_label_of = _zero_label_of(log)
                base, s_rows = log.count, []
                checked_find_group(log, {}, s_rows, zero_label_of, d)
                assert log.count - base == p**d - 1 + len(s_rows)

    def test_nontrivial_a_per_call_bound(self):
        # with A nontrivial, each harvested secret element may force a span
        # re-query: count <= p^d - 1 + gain * (p^d - p^(d-1)), never the
        # flat "+gain" that holds for the trivial-A case
        flat_would_fail = 0
        for p, n, k in [(2, 6, 2), (3, 5, 1), (2, 5, 2)]:
            for seed in range(10):
                inst = make_instance(p, n, k, subgroup_seed=seed, label_seed=seed)
                d_a = 1
                log = QueryLog(inst)
                echelon, s_rows = {}, []
                a_label_of = checked_find_group(log, echelon, s_rows, _zero_label_of(log), d_a)
                base, s1_rank = log.count, len(s_rows)
                d = n - k - d_a
                checked_find_group(log, echelon, s_rows, a_label_of, d)
                used = log.count - base
                gain = len(s_rows) - s1_rank
                assert used <= p**d - 1 + gain * (p**d - p ** (d - 1))
                if used > p**d - 1 + gain:
                    flat_would_fail += 1
        print(f"\nper-call formula report: nontrivial-A runs exceeding the flat "
              f"+gain count: {flat_would_fail} (re-query cost is real)")


class TestFindS:
    @pytest.mark.parametrize("d", [1.0, True])
    def test_split_that_is_no_int_refused(self, ref_instance, d):
        # refused before any query; the result would report a float bound and d_used
        log = QueryLog(ref_instance)
        with pytest.raises(ParameterError, match="d must be an int"):
            find_s(log, d)
        assert log.count == 0

    @pytest.mark.usefixtures("find_group_checked")
    def test_reference_fixture(self, ref_instance, ref_secret):
        assert choose_d(2, 4, 2) == 0
        res = find_s(QueryLog(ref_instance), 0)
        assert res.recovered == ref_secret
        assert res.recovered.to_text() == "p=2 n=4 rows=0101;0011"
        assert res.queries <= det_query_bound(2, 4, 2, 0) == 7
        assert res.d_used == 0

    @pytest.mark.usefixtures("find_group_checked")
    @pytest.mark.parametrize("obfuscate", [False, True])
    @pytest.mark.parametrize("p,n,k", [(2, 4, 2), (2, 5, 1), (3, 3, 2), (3, 4, 2), (5, 3, 1)])
    def test_matches_brute_force_every_d(self, p, n, k, obfuscate):
        for seed in range(6):
            inst = make_instance(p, n, k, seed, seed + 1, obfuscate)
            truth = brute_force_solve(QueryLog(inst)).recovered
            assert truth == inst.secret
            for d in range(n - k + 1):
                res = find_s(QueryLog(inst), d)
                assert res.recovered == truth
                assert res.queries <= det_query_bound(p, n, k, d)

    def test_query_bound_3_3_1(self):
        # twenty seeds, every split: count <= 3^(2-d) + 2*3^d
        for seed in range(20):
            inst = make_instance(3, 3, 1, subgroup_seed=seed, label_seed=seed)
            for d in (0, 1, 2):
                res = find_s(QueryLog(inst), d)
                assert res.queries <= 3 ** (2 - d) + 2 * 3**d

    def test_deterministic_trace(self):
        inst = make_instance(3, 4, 2, subgroup_seed=3, label_seed=4, obfuscate=True)
        first = find_s(QueryLog(inst), 1)
        second = find_s(QueryLog(inst), 1)
        assert first == second
        assert first.trace == second.trace and len(first.trace) == first.queries

    def test_trace_is_a_snapshot(self):
        # the trace reads the log, not a copy, yet a later solve on that log
        # does not reach into it
        inst = make_instance(3, 4, 2, subgroup_seed=3, label_seed=4, obfuscate=True)
        log = QueryLog(inst)
        res = find_s(log, 1)
        before = res.trace
        assert len(before) == res.queries == log.count
        brute_force_solve(log)
        assert log.count == 3**4 > res.queries
        assert res.trace == before
        assert cache_pairs(log)[: res.queries] == list(before)

    def test_answer_is_the_only_span(self, monkeypatch):
        # both find_group calls and the harvest grow one echelon in place, so no
        # intermediate group is reduced to RREF
        spans = []
        monkeypatch.setattr(solvers, "_span", lambda p, n, rows: spans.append(rows) or _span(p, n, rows))
        inst = make_instance(2, 16, 4, 0, 0, True)
        res = find_s(QueryLog(inst), choose_d(2, 16, 4))
        assert res.recovered == inst.secret and res.queries == 209 and len(spans) == 1

    def test_d_out_of_range(self, ref_instance):
        with pytest.raises(ParameterError):
            find_s(QueryLog(ref_instance), 3)
        with pytest.raises(ParameterError):
            find_s(QueryLog(ref_instance), -1)

    @pytest.mark.usefixtures("find_group_checked")
    def test_worst_case_bound_every_rank_one_secret(self):
        # d = 1 < n-k-d: the rank-(n-k-d) group must be built first, else a
        # late collision abandons a span of up to p^j - p^(j-1) > p^d queries
        for secret in enumerate_subgroups(2, 6, 1):
            inst = HiddenInstance(2, 6, 1, secret, 0, False)
            res = find_s(QueryLog(inst), 1)
            assert res.recovered == secret
            assert res.queries <= det_query_bound(2, 6, 1, 1), secret.to_text()

    def test_bound_over_cap(self):
        # p^(n-k-d) + (k+1)p^d = 2^21 + 2 at (2, 22, 1), d = 0: refused before any query
        log = QueryLog(make_instance(2, 22, 1, 0, 0))
        with pytest.raises(ResourceCapError, match="query bound 2097154 exceeds"):
            find_s(log, 0)
        assert log.count == 0

    def test_worst_case_bound_at_scale(self):
        inst = make_instance(2, 15, 4, subgroup_seed=0, label_seed=0)
        d = choose_d(2, 15, 4)
        res = find_s(QueryLog(inst), d)
        assert res.recovered == inst.secret
        assert res.queries <= det_query_bound(2, 15, 4, d)

    def test_recovers_secret_at_n_24(self):
        inst = make_instance(2, 24, 8, 0, 0, True)
        d = choose_d(2, 24, 8)
        res = find_s(QueryLog(inst), d)
        assert res.recovered == inst.secret
        assert res.queries <= det_query_bound(2, 24, 8, d)

    def test_promise_violation_diagnostic(self, ref_secret):
        class ConstantOracle(HiddenInstance):
            def evaluate(self, x):
                return 0

        lying = ConstantOracle(2, 4, 2, ref_secret, 0, False)
        with pytest.raises(PromiseViolationError):
            find_s(QueryLog(lying), 0)


@dataclass(frozen=True)
class _AdversarialInstance(HiddenInstance):
    """An instance whose oracle breaks the promise in one of several ways."""

    mode: str = "random"

    def evaluate(self, x):
        p, n, k = self.p, self.n, self.k
        if self.mode == "constant":
            return 0
        if self.mode == "injective":
            return x
        if self.mode == "lower-rank":
            return canonicalize(p, n, self.secret.basis[1:]).coset_reduce(x)
        if self.mode == "higher-rank":
            outside = _lex_smallest_outside(lanes(p, n), self.secret.pivots())
            return canonicalize(p, n, self.secret.basis + (outside,)).coset_reduce(x)
        rng = random.Random(f"{self.label_seed}:{unpack(p, n, x).digits()}")
        return pack(VectorP(p, tuple(rng.randrange(p) for _ in range(n))))


ADVERSARIAL_MODES = ["constant", "injective", "lower-rank", "higher-rank", "random"]
GOLDEN_ADVERSARIAL = Path(__file__).parent / "data" / "adversarial_find_s.txt"


def _adversarial_cells(mode):
    """(p, n, k, seed, instance) of every broken-promise cell of ``mode``."""
    for p, n in [(2, 5), (3, 4), (5, 3), (2, 8)]:
        for k in range(1, n):
            for seed in range(3):
                yield p, n, k, seed, _AdversarialInstance(p, n, k, random_subgroup(p, n, k, seed), seed, False, mode)


@pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
def test_adversarial_oracle_never_misleads(mode):
    # a broken promise ends in PromiseViolationError or in a rank-k answer
    # that explains every label seen (or, from birthday_solve only, in a
    # lower-rank failure value); any other exception fails the test
    returned = failures = 0
    for p, n, k, seed, inst in _adversarial_cells(mode):
        solves = [(f"find_s d={d}", partial(find_s, d=d)) for d in range(n - k + 1)]
        solves += [("brute", brute_force_solve), ("birthday", partial(birthday_solve, seed=seed))]
        for name, solve in solves:
            try:
                res = solve(QueryLog(inst))
            except PromiseViolationError:
                continue
            where = (p, n, k, seed, name)
            if name == "birthday" and res.recovered.rank < k:
                failures += 1
                continue
            assert res.recovered.rank == k and consistent(res.recovered, res.trace), where
            returned += 1
    print(f"\nadversarial {mode}: {returned} consistent answers, {failures} birthday failures")


@pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
def test_adversarial_oracle_never_misleads_quantum_solver(mode):
    # the quantum solver refuses every broken-promise cell: a label branch of
    # the wrong size, an amplification that misses, or an answer the label
    # table contradicts; it never returns
    for p, n, k, seed, inst in _adversarial_cells(mode):
        try:
            quantum_find_s(inst)
        except (PromiseViolationError, ArithmeticError):
            continue
        pytest.fail(f"quantum_find_s returned on {(mode, p, n, k, seed)}")


@dataclass(frozen=True)
class _MergingInstance(HiddenInstance):
    """An honest oracle, except that the coset of ``rows[1]`` gets the label of the coset of ``rows[0]``."""

    rows: tuple[int, int] = (0, 0)

    def evaluate(self, x):
        honest = super().evaluate
        label, kept, merged = honest(x), honest(self.rows[0]), honest(self.rows[1])
        return kept if label == merged else label


@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (2, 6, 1), (3, 4, 2), (5, 3, 1)])
def test_quantum_solver_refuses_merged_cosets(p, n, k):
    # the coset of 0 keeps its own label, so the label branch and every round are
    # those of the honest instance; only the answer check, over all of Z_p^n and
    # the label table, sees one label on two cosets
    for seed in range(3):
        honest = make_instance(p, n, k, seed, seed, bool(seed % 2))
        assert quantum_find_s(honest).recovered == honest.secret
        rows = complement(honest.secret).basis[:2]  # two cosets other than S, and not each other
        inst = _MergingInstance(p, n, k, honest.secret, honest.label_seed, honest.obfuscate, rows)
        with pytest.raises(PromiseViolationError, match="not constant exactly on cosets"):
            quantum_find_s(inst)


def _adversarial_lines():
    """``mode p n k seed d`` then ``raise <queries> <message>`` or ``ok <queries> <subgroup>``
    for every ``find_s`` run of the broken-promise cells."""
    for mode in ADVERSARIAL_MODES:
        for p, n, k, seed, inst in _adversarial_cells(mode):
            for d in range(n - k + 1):
                log = QueryLog(inst)
                try:
                    res = find_s(log, d)
                except PromiseViolationError as exc:
                    outcome = f"raise {log.count} {exc}"
                else:
                    outcome = f"ok {res.queries} {res.recovered}"
                yield f"{mode} {p} {n} {k} {seed} {d} {outcome}"


def test_adversarial_find_s_outcomes_match_golden_file():
    # the golden traces cover honest oracles only; this pins what find_s
    # does with each broken promise: the same refusal after the same number
    # of queries, or the same answer
    expect = [line for line in GOLDEN_ADVERSARIAL.read_text().splitlines() if not line.startswith("#")]
    assert len(expect) == 945
    assert list(_adversarial_lines()) == expect


def test_traces_match_golden_file():
    # any refactor of find_s must leave every trace byte-identical
    expect = [line for line in GOLDEN_TRACES.read_text().splitlines() if not line.startswith("#")]
    assert len(expect) == 266
    assert [_trace_line(*run) for run in _golden_runs()] == expect


def test_coset_meets_secret_law():
    # any full-corank subgroup disjoint from S has every nontrivial coset
    # meeting S; this is what guarantees the per-coset collision harvest
    for p, n, k in [(2, 4, 2), (3, 3, 1), (2, 5, 3)]:
        for seed in range(2):
            secret = random_subgroup(p, n, k, seed)
            for v in enumerate_subgroups(p, n, n - k):
                if intersect(v, secret).rank:
                    continue
                for w in all_vectors(p, n):
                    if v.contains(w):
                        continue
                    assert any(v.contains(sub(s, w)) for s in elements(secret))


@pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 4, 2), (2, 5, 1), (3, 3, 1), (3, 4, 2)])
def test_each_solver_reports_its_bound(p, n, k):
    # every solver's bound is the paper's formula, computed here independently
    m = 3.0
    for seed in range(2):
        inst = make_instance(p, n, k, subgroup_seed=seed, label_seed=seed)
        runs = [(find_s(QueryLog(inst), d), det_query_bound(p, n, k, d)) for d in range(n - k + 1)]
        runs += [
            (brute_force_solve(QueryLog(inst)), p**n),
            (birthday_solve(QueryLog(inst), seed, m), math.ceil(m * math.sqrt(k * p ** (n - k)))),
            (quantum_find_s(inst), 3 * (n - k)),
        ]
        for result, bound in runs:
            assert result.bound == bound
            assert result.queries <= result.bound


class TestBruteForce:
    def test_reference_fixture(self, ref_instance, ref_secret):
        res = brute_force_solve(QueryLog(ref_instance))
        assert res.recovered == ref_secret
        assert res.queries == 16
        assert res.d_used is None

    def test_minimal_instance(self):
        # k = n-1 at n = 2: the one subgroup collecting all colliders of 0^n
        inst = make_instance(2, 2, 1, subgroup_seed=4, label_seed=0)
        res = brute_force_solve(QueryLog(inst))
        assert res.recovered == inst.secret and res.queries == 4

    def test_cap(self):
        # p^n = 2^21 is past the default enumeration cap; refused before any query
        # on the array path and on the per-element path of an overridden evaluate
        inst = make_instance(2, 21, 2, 0)
        for instance in (inst, _scalar(inst)):
            log = QueryLog(instance)
            with pytest.raises(ResourceCapError, match="exceeds enumeration cap"):
                brute_force_solve(log)
            assert log.count == 0


class _ScalarPath(HiddenInstance):
    """The instance's own rule behind an overridden ``evaluate``, which keeps
    ``QueryLog.query_all`` on its per-element path."""

    def evaluate(self, x):
        return super().evaluate(x)


def _scalar(inst):
    return _ScalarPath(inst.p, inst.n, inst.k, inst.secret, inst.label_seed, inst.obfuscate)


class TestBruteForceArrayPath:
    # (1021, 2, 1) is the largest p under the 2^20 cap, p^n = 1,042,441; it
    # runs on a fresh log only, since each of its solves takes seconds
    CELLS = [
        (p, n, k, obf, prefill)
        for p, n, k in [(2, 6, 2), (3, 4, 2), (5, 3, 1), (7, 3, 2)]
        for obf in (False, True)
        for prefill in (False, True)
    ] + [(1021, 2, 1, True, False)]

    @pytest.mark.parametrize("p,n,k,obfuscate,prefill", CELLS)
    def test_matches_scalar_path(self, p, n, k, obfuscate, prefill):
        inst = make_instance(p, n, k, subgroup_seed=5, label_seed=9, obfuscate=obfuscate)

        def solve(instance):
            log = QueryLog(instance)
            if prefill:
                find_s(log, choose_d(p, n, k))
            return brute_force_solve(log)

        fast, slow = solve(inst), solve(_scalar(inst))
        # both traces are read off these caches, each whole since queries = p^n
        assert list(fast.log.cache.items()) == list(slow.log.cache.items())
        assert (fast.queries, fast.recovered) == (slow.queries, slow.recovered) == (p**n, inst.secret)
        if not prefill:
            assert list(fast.log.cache) == [pack(x) for x in all_vectors(p, n)]

    def test_subclass_evaluates_every_element_once(self):
        calls = []

        class Counting(HiddenInstance):
            def evaluate(self, x):
                calls.append(x)
                return super().evaluate(x)

        p, n, k = 3, 5, 2
        inst = Counting(p, n, k, random_subgroup(p, n, k, 1), 2, True)
        res = brute_force_solve(QueryLog(inst))
        assert res.recovered == inst.secret
        assert calls == [pack(x) for x in all_vectors(p, n)]

    def test_array_path_is_live(self, monkeypatch):
        # query_all fills the cache first, so no element reaches evaluate
        calls = []
        evaluate = HiddenInstance.evaluate

        def counted(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(HiddenInstance, "evaluate", counted)
        inst = make_instance(3, 5, 2, subgroup_seed=1, label_seed=2, obfuscate=True)
        res = brute_force_solve(QueryLog(inst))
        assert (res.recovered, res.queries) == (inst.secret, 3**5)
        assert calls == []


class TestBirthday:
    def test_success_means_exact(self):
        hits = 0
        for seed in range(30):
            inst = make_instance(2, 6, 2, subgroup_seed=seed, label_seed=seed)
            res = birthday_solve(QueryLog(inst), seed=seed, budget_multiplier=6.0)
            if res.recovered.rank == inst.k:
                assert res.recovered == inst.secret
                hits += 1
        assert hits > 0

    def test_zero_budget_fails(self, ref_instance):
        # a budget that is not positive and finite is a parameter error, made before any query
        for multiplier in (0.0, -3.0, float("nan"), float("inf")):
            log = QueryLog(ref_instance)
            with pytest.raises(ParameterError):
                birthday_solve(log, seed=0, budget_multiplier=multiplier)
            assert log.count == 0

    def test_negative_seed_refused(self, ref_instance):
        # random.Random(-s) seeds like Random(s), so -5 would repeat seed 5's samples
        log = QueryLog(ref_instance)
        with pytest.raises(ParameterError, match="sample seed must be non-negative, got -5"):
            birthday_solve(log, seed=-5)
        assert log.count == 0

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_seed_that_is_no_int_refused(self, ref_instance, seed):
        log = QueryLog(ref_instance)
        with pytest.raises(ParameterError, match="seed must be an int"):
            birthday_solve(log, seed)
        assert log.count == 0

    def test_budget_over_enumeration_cap(self, ref_instance):
        # a finite budget past the cap would sample until killed; it is refused before any query
        for multiplier in (1e300, 2.0**20):
            log = QueryLog(ref_instance)
            with pytest.raises(ResourceCapError):
                birthday_solve(log, seed=0, budget_multiplier=multiplier)
            assert log.count == 0

    def test_monte_carlo_rate(self):
        successes = 0
        for seed in range(200):
            inst = make_instance(2, 8, 2, subgroup_seed=seed, label_seed=seed)
            res = birthday_solve(QueryLog(inst), seed=seed + 1000, budget_multiplier=8.0)
            if res.recovered.rank == inst.k:
                successes += 1
        rate = successes / 200
        print(f"\nbirthday success rate (p=2, n=8, k=2, multiplier 8): {rate:.3f}")
        assert rate >= 0.9
