"""Closed-form subgroup counts and query-bound reference curves.

All counting is exact big-integer arithmetic; the quotients in the
Gaussian binomial divide exactly at every step, and a nonzero remainder is
treated as an internal error (it would mean the formula was mistyped).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import (
    DEFAULT_ENUMERATION_CAP, Subgroup, VectorP, _check_ints, _check_problem, _check_rank, _rref_bases, is_prime, lanes,
)
from .errors import ParameterError


def _exact_product_quotient(factors: Iterable[tuple[int, int]]) -> int:
    """Product of num/den pairs where every partial product is an integer."""
    total = 1
    for num, den in factors:
        total, rem = divmod(total * num, den)
        if rem:
            raise ArithmeticError("count formula did not divide exactly")
    return total


def t1_count(p: int, n: int, k: int) -> int:
    """Number of distinct rank-k subgroups of Z_p^n (a Gaussian binomial), for a prime p."""
    _check_ints(p=p, n=n, k=k)
    if not is_prime(p):
        raise ParameterError(f"p must be a prime, got {p}")
    if not (0 <= k <= n):
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _exact_product_quotient(
        (p ** (n - i) - 1, p ** (i + 1) - 1) for i in range(k)
    )


def t2_count(p: int, n: int, k: int) -> int:
    """Number of rank-k subgroups containing a fixed non-zero element e: their
    images in Z_p^n/<e> are the rank-(k-1) subgroups of a rank-(n-1) space."""
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    return t1_count(p, n - 1, k - 1)


def evading_subgroup(p: int, n: int, d_set: Iterable[VectorP], k: int, d: int) -> Optional[Subgroup]:
    """Some rank-k subgroup meeting the given set in fewer than d points.

    The first in ``enumerate_subgroups`` order at its default cap, each basis reducing every
    element with ``Lanes.residue``; None only when no subgroup qualifies.
    None at once when d <= 0, since no subgroup meets a set in fewer than 0 points:
    p, n, k and the set are checked, and nothing is enumerated, so the cap does not apply.
    When |D| < d(p^n-1)/(p^k-1) a witness always exists by double counting.
    """
    packed = [v.pack(p, n) for v in d_set]  # once, not once per subgroup
    if 0 in packed:
        raise ParameterError("the scanned set must not contain 0^n")
    _check_rank(p, n, k)
    if d <= 0:
        return None
    residue = lanes(p, n).residue
    for pivots, rows in _rref_bases(p, n, k, DEFAULT_ENUMERATION_CAP):
        for basis in itertools.product(*rows):
            if [residue(pivots, basis, x) for x in packed].count(0) < d:
                return Subgroup._unchecked(p, n, basis)
    return None


def _check_split(n: int, k: int, d: int) -> None:
    _check_ints(d=d)
    if not (0 <= d <= n - k):
        raise ParameterError(f"need 0 <= d <= n-k, got d={d}")


def det_query_bound(p: int, n: int, k: int, d: int) -> int:
    """Worst-case query count of the deterministic solver at split d, for d in [0, n-k]."""
    _check_split(n, k, d)
    return p ** (n - k - d) + (k + 1) * p**d


def optimal_d(p: int, n: int, k: int) -> int:
    """The d minimizing det_query_bound (smallest d on ties), for a prime p and k in [1, n)."""
    _check_problem(p, n, k)
    return min(range(n - k + 1), key=lambda d: det_query_bound(p, n, k, d))


@dataclass(frozen=True)
class BoundReport:
    """Exact counts plus the three reference curves for one (p, n, k)."""

    p: int
    n: int
    k: int
    t1: int
    t2: int
    lower_adaptive: float
    lower_nonadaptive: float
    upper_det: int


def bound_report(p: int, n: int, k: int) -> BoundReport:
    _check_problem(p, n, k)
    if k * p ** (n - k) > sys.float_info.max:
        raise ParameterError(f"p^(n-k) = {p}^{n - k} is too large for the float lower bounds")
    # t2 <= t1 and upper_det fits a float; the limit getter came in 3.10.7, and 0 means no limit
    t1, digits = t1_count(p, n, k), getattr(sys, "get_int_max_str_digits", int)()
    if digits and t1.bit_length() > 3 * digits and t1 >= 10**digits:  # 2^(3d) < 10^d skips the power
        raise ParameterError(f"t1 has more than {digits} digits, past the int-to-str conversion limit")
    return BoundReport(
        p=p,
        n=n,
        k=k,
        t1=t1,
        t2=t2_count(p, n, k),
        lower_adaptive=max(float(k), math.sqrt(p ** (n - k))),
        lower_nonadaptive=max(float(k), math.sqrt(k * p ** (n - k))),
        upper_det=det_query_bound(p, n, k, optimal_d(p, n, k)),
    )
