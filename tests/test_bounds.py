"""Counting formulas, their enumeration witnesses, and the bound curves."""

import math
import random
import sys
import time

import numpy as np
import pytest

from gsp import (
    DimensionMismatchError,
    ParameterError,
    VectorP,
    bound_report,
    enumerate_subgroups,
    evading_subgroup,
    is_prime,
    t1_count,
    t2_count,
)
from gsp.bounds import det_query_bound, optimal_d
from conftest import reference_evading

PRIMES = (2, 3, 5, 7)


def literal_t1(p, n, k):
    num = den = 1
    for i in range(k):
        num *= p**n - p**i
        den *= p**k - p**i
    q, r = divmod(num, den)
    assert r == 0
    return q


def literal_t2(p, n, k):
    num = den = 1
    for i in range(1, k):
        num *= p**n - p**i
        den *= p**k - p**i
    q, r = divmod(num, den)
    assert r == 0
    return q


class TestCounts:
    def test_frozen_values(self):
        assert t1_count(2, 4, 2) == 35
        assert t1_count(2, 2, 1) == 3
        assert t1_count(3, 4, 4) == 1
        assert t2_count(2, 4, 2) == 7
        assert t2_count(5, 3, 1) == 1  # empty product

    def test_ranks_out_of_range_rejected(self):
        with pytest.raises(ParameterError, match="need 0 <= k <= n, got k=5, n=4"):
            t1_count(2, 4, 5)
        with pytest.raises(ParameterError, match="need 1 <= k <= n, got k=0, n=4"):
            t2_count(2, 4, 0)

    @pytest.mark.parametrize("p", [1, 4, -3, 0])
    def test_non_prime_p_rejected(self, p):
        # no ZeroDivisionError at p = 1, no Z_4^3 count, no negative bound
        for call in (t1_count, t2_count, bound_report):
            with pytest.raises(ParameterError, match=f"p must be a prime, got {p}"):
                call(p, 3, 1)

    def test_against_literal_formula(self):
        for p in PRIMES:
            for n in range(0, 13):
                for k in range(0, n + 1):
                    assert t1_count(p, n, k) == literal_t1(p, n, k)
                    if k >= 1:
                        assert t2_count(p, n, k) == literal_t2(p, n, k)

    def test_against_enumeration(self):
        for p in (2, 3):
            for n in range(1, 5):
                for k in range(0, n + 1):
                    subs = list(enumerate_subgroups(p, n, k))
                    assert len(subs) == t1_count(p, n, k)
                    if k >= 1:
                        e = VectorP.from_index(p, n, 1)
                        assert sum(1 for h in subs if h.contains(e)) == t2_count(p, n, k)

    def test_double_counting_identity(self):
        for p in PRIMES:
            for n in range(1, 13):
                for k in range(1, n + 1):
                    assert t1_count(p, n, k) * (p**k - 1) == t2_count(p, n, k) * (p**n - 1)


class TestEvadingSubgroup:
    def test_empty_set(self):
        h = evading_subgroup(2, 4, [], k=2, d=1)
        assert h is not None and h.rank == 2

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            evading_subgroup(2, 4, [VectorP(2, (0, 0, 0, 0))], k=1, d=1)

    def test_nonpositive_d_answers_at_once(self):
        # no subgroup meets a set in fewer than 0 points, so nothing is scanned: at (2, 12, 6)
        # a scan would visit 2.3e11 subgroups
        start = time.perf_counter()
        assert evading_subgroup(2, 12, [], 6, 0) is None
        assert evading_subgroup(3, 4, [VectorP(3, (0, 1, 2, 0))], 2, -1) is None
        assert time.perf_counter() - start < 0.5
        # bad input is still refused first: p, n, k, and the elements of D
        for args in ((4, 3, [], 1), (2, -1, [], 1), (2, 3, [], 4), (2, 3, [], -1),
                     (2, 3, [VectorP(2, (0, 0, 0))], 1), (2, 3, [VectorP(2, (0, 1))], 1)):
            with pytest.raises((ParameterError, DimensionMismatchError)):
                evading_subgroup(*args, d=0)

    def test_element_of_another_space_rejected(self):
        # the set is packed once before the scan; an element of another n or p
        # is refused there, not read in the wrong lane layout
        for v in (VectorP(2, (0, 0, 1)), VectorP(2, (0, 0, 0, 0, 1)), VectorP(3, (0, 0, 0, 1))):
            with pytest.raises(DimensionMismatchError):
                evading_subgroup(2, 4, [VectorP(2, (1, 0, 0, 0)), v], k=1, d=1)

    def test_witness_below_threshold(self):
        # |D| under d(p^n-1)/(p^k-1) always admits a sparse-intersection subgroup
        p, n = 2, 4
        nonzero = [VectorP.from_index(p, n, i) for i in range(1, p**n)]
        rng = random.Random(0)
        for k in (1, 2):
            for d in (1, 2):
                limit = d * (p**n - 1) // (p**k - 1)
                for _ in range(25):
                    size = rng.randrange(0, min(limit, len(nonzero)) + 1)
                    if size >= limit:
                        size = limit - 1
                    d_set = rng.sample(nonzero, size)
                    h = evading_subgroup(p, n, d_set, k=k, d=d)
                    assert h is not None
                    assert sum(1 for v in d_set if h.contains(v)) < d

    def test_verified_hit_count(self):
        rng = random.Random(7)
        nonzero = [VectorP.from_index(2, 4, i) for i in range(1, 16)]
        for seed in range(20):
            d_set = rng.sample(nonzero, 9)  # 9 < 2*15/3 = 10
            h = evading_subgroup(2, 4, d_set, k=2, d=2)
            assert h is not None
            assert sum(1 for v in d_set if h.contains(v)) <= 1

    def test_witness_matches_reference_scan(self):
        # the first qualifying basis in enumeration order, or None when every subgroup meets
        # D in d points or more (D the whole space but 0 at d up to p^k - 1)
        rng = random.Random(11)
        for p, n in [(2, 4), (2, 5), (3, 3), (5, 2), (7, 2)]:
            nonzero = [VectorP.from_index(p, n, i) for i in range(1, p**n)]
            for k in range(1, n):
                for d in (1, 2, 3):
                    for size in (0, 1, len(nonzero) // 2, len(nonzero) - 1, len(nonzero)):
                        d_set = rng.sample(nonzero, size)
                        assert evading_subgroup(p, n, d_set, k, d) == reference_evading(p, n, d_set, k, d)


class TestArgumentChecks:
    @pytest.mark.parametrize("p", [7.5, 7.0, np.int64(7)])
    def test_a_non_int_is_no_prime(self, p):
        assert not is_prime(p)

    @pytest.mark.parametrize("args", [(2.0, 3, 1), (np.int64(3), 3, 1), (2, 3.0, 1), (2, 3, True)])
    def test_counts_refuse_non_ints(self, args):
        for call in (t1_count, bound_report):
            with pytest.raises(ParameterError, match="must be an int"):
                call(*args)

    @pytest.mark.parametrize("k", [0, 3, 4])
    def test_optimal_d_refuses_k_outside_1_to_n(self, k):
        with pytest.raises(ParameterError, match=f"need 1 <= k < n, got k={k}, n=3"):
            optimal_d(2, 3, k)

    @pytest.mark.parametrize("args,message", [
        ((2, 5, 2.0), "k must be an int"),  # was a TypeError from range()
        ((2, 5.0, 2), "n must be an int"),
        ((4, 5, 2), "p must be a prime, got 4"),
    ])
    def test_optimal_d_refuses_what_find_s_refuses(self, args, message):
        with pytest.raises(ParameterError, match=message):
            optimal_d(*args)

    def test_evading_subgroup_refuses_a_rank_that_is_no_int(self):
        with pytest.raises(ParameterError, match="k must be an int"):
            evading_subgroup(2, 3, [], 1.0, 1)

    @pytest.mark.parametrize("d", [-1, 3, 5])
    def test_det_query_bound_refuses_d_outside_0_to_n_minus_k(self, d):
        # past n-k the formula gives a fraction, and before 0 a bound for no solver run
        with pytest.raises(ParameterError, match=f"need 0 <= d <= n-k, got d={d}"):
            det_query_bound(2, 3, 1, d)

    def test_det_query_bound_refuses_a_non_int_d(self):
        with pytest.raises(ParameterError, match="d must be an int"):
            det_query_bound(2, 3, 1, 1.0)


class TestBoundReport:
    def test_without_digit_limit_getter(self, monkeypatch):
        # CPython 3.10.0-3.10.6 have neither the int-to-str limit nor its getter
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert bound_report(2, 240, 120).t1 == t1_count(2, 240, 120)

    def test_full_rank_rejected(self):
        with pytest.raises(ParameterError, match="need 1 <= k < n, got k=4, n=4"):
            bound_report(2, 4, 4)

    def test_reference_point(self):
        rep = bound_report(2, 4, 2)
        assert rep.upper_det == 7
        assert optimal_d(2, 4, 2) == 0
        assert det_query_bound(2, 4, 2, 0) == 7
        assert [det_query_bound(2, 4, 2, d) for d in range(3)] == [7, 8, 13]

    def test_curve_ordering(self):
        for p in (2, 3, 5):
            for n in range(2, 9):
                for k in range(1, n):
                    rep = bound_report(p, n, k)
                    assert rep.lower_adaptive <= rep.lower_nonadaptive <= rep.upper_det

    def test_special_case_ratio(self):
        # k = 1, p = 2: the optimal curve stays within a constant of sqrt(2^n)
        ratios = []
        for n in range(2, 21):
            rep = bound_report(2, n, 1)
            ratios.append(rep.upper_det / math.sqrt(2**n))
        print("\nupper_det/sqrt(2^n) for n=2..20:",
              " ".join(f"{r:.2f}" for r in ratios))
        assert max(ratios) <= 4.0
