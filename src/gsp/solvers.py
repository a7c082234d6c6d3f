"""Classical solvers for the hidden-subgroup search, instrumented via QueryLog.

``find_s`` is the deterministic divide-and-conquer solver.  At split d it
first builds B, a rank-(n-k-d) query set, against the trivial group; then
A, a rank-d query set, against B, so that A ∩ B = {0} and span(A+B) is
disjoint from the secret S.  Collisions seen along the way are harvested
into a partial secret S2.  Finally it queries one coset of A per missing
secret generator; each such coset holds a collision against B, and the
collision differences complete a generating set of S.  So d is the rank of
the group whose cosets are harvested.

Worst-case queries at split d are p^(n-k-d) + (k+1)*p^d
(``bounds.det_query_bound``).  Every secret generator is found by exactly
one of three events, so there are k events in all, and each costs at most
p^d queries:

* a failed pick of u (u collides with the span built so far): 1 query;
* an abandoned span of A at level j <= d (a late collision against B):
  at most p^j - p^(j-1) queries;
* a harvested coset of A: at most p^d queries.

Building B against the trivial group never abandons a span, so it costs
exactly p^(n-k-d) - 1 plus one query per failed pick; the completed spans
of A cost p^d - 1.  With the query of 0^n the total is at most
1 + (p^(n-k-d) - 1) + (p^d - 1) + k*p^d, one below the bound.  Building the
rank-d group first would break this: B's build would then run against A and
could abandon spans of p^j - p^(j-1) queries at levels j up to n-k-d, more
than p^d once j > d.

Implementation notes that matter for the query counts:

* The label of 0^n is needed to recognize accidental queries that land
  inside S (a collision against the zero element), so the solver asks it
  once up front.
* Each group travels as a label map (the label of every element of its
  span, 0^n included, to that element): ``find_group`` takes A's map and
  returns B's, and ``find_s`` hands the first call's map to the second
  call and to the coset harvest, so no span is built twice.
* ``find_group`` grows B one generator at a time in a single loop.  Its
  fresh element u is the lexicographically smallest vector outside
  S2 + A + B, read off the RREF pivots (the unit vector at the last
  non-pivot column), so traces are reproducible.
* Span queries are checked for collisions as they are issued and stop at
  the first hit; the remaining elements of an abandoned span are never
  asked.  This only lowers counts relative to the query-everything-first
  reading and leaves the returned invariants intact.

``brute_force_solve`` is the correctness oracle (queries everything) and
``birthday_solve`` the randomized collision baseline.  Brute force asks all
of Z_p^n through ``QueryLog.query_all``: one array product over every
element when the instance's ``evaluate`` is ``HiddenInstance``'s own, and
one ``evaluate`` call per element when a subclass overrides it, so a
subclassed oracle stays in charge of its labels.  Each of the three
refuses before its first query when its query bound exceeds
``DEFAULT_ENUMERATION_CAP``, and checks its answer with ``_check_labels``
before returning it: the answer must have rank k, and two cached elements
must share a label exactly when they share a coset of it, or it raises
``PromiseViolationError`` instead of returning a wrong subgroup.  The check
covers the whole query cache with one integer matrix product: the answer's
coset reduction (``Subgroup.unit_images``) applied to every cached element.
``birthday_solve`` calls it only at rank k or above; a lower rank is its
failure value.  ``find_group``'s invariants, which need the secret, are
checked by the tests, not here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_ENUMERATION_CAP,
    Subgroup,
    VectorP,
    canonicalize,
    complement,
    trivial_subgroup,
)
from .bounds import det_query_bound
from .errors import ParameterError, PromiseViolationError, ResourceCapError
from .oracle import QueryLog


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run on one instance; ``bound`` is the most queries
    (oracle calls, for the quantum solver) that its solver may spend on the run."""

    recovered: Subgroup
    queries: int
    bound: int
    d_used: int | None
    trace: tuple[tuple[VectorP, VectorP], ...] = ()


def choose_d(p: int, n: int, k: int) -> int:
    """Default split parameter: floor((n-k-log_p k)/2) when n >= k + log_p k, else 0.

    Evaluated in integer arithmetic: the branch condition is p^(n-k) >= k and
    the floor is the largest d with p^(n-k-2d) >= k.
    """
    if not (1 <= k < n):
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    if p ** (n - k) < k:
        return 0
    d = (n - k) // 2
    while p ** (n - k - 2 * d) < k:
        d -= 1
    return d


def _lex_smallest_outside(excluded: Subgroup) -> VectorP:
    """Least nonzero vector outside ``excluded`` in index order.

    That is the unit vector at the last non-pivot column j: every vector
    supported right of j is a combination of the unit rows there, and a
    nonzero vector that is zero on every pivot column lies outside."""
    free = set(range(excluded.n)).difference(excluded.pivots())
    if not free:
        raise PromiseViolationError("excluded span covers the whole group")
    return VectorP.unit(excluded.p, excluded.n, max(free))


def _check_labels(log: QueryLog, answer: Subgroup) -> None:
    """Raise unless ``answer`` has rank k and cached elements share a label
    exactly when they share a coset of it.

    One integer product with the answer's reduction matrix
    (``Subgroup.unit_images``) takes every cached element to its coset
    representative.  Its sums stay below n*p^2 < 2^38, and an integer
    product makes no BLAS call.  A representative's entries lie below
    p < 2^16, so the uint16 bytes of its row key it.
    """
    if answer.rank != log.instance.k:
        raise PromiseViolationError(f"answer has rank {answer.rank}, promised k={log.instance.k}")
    p, n = answer.p, answer.n
    xs = np.array([x.coords for x in log.cache], dtype=np.int64)
    reps = (xs @ np.array(answer.unit_images(), dtype=np.int64) % p).astype(np.uint16).tobytes()
    width = 2 * n  # bytes of one representative
    rep_keys = [reps[i : i + width] for i in range(0, len(reps), width)]
    pairs = set(zip(rep_keys, [label.coords for label in log.cache.values()]))
    if not len(pairs) == len({rep for rep, _ in pairs}) == len({label for _, label in pairs}):
        raise PromiseViolationError(f"the labels seen are not constant exactly on cosets of {answer}")


def _check_split(n: int, k: int, d: int) -> None:
    if not (0 <= d <= n - k):
        raise ParameterError(f"need 0 <= d <= n-k, got d={d}")


def _birthday_budget(p: int, n: int, k: int, multiplier: float) -> float:
    """multiplier * sqrt(k * p^(n-k)), refused unless positive and finite (also for a nan multiplier)."""
    budget = multiplier * math.sqrt(k * p ** (n - k))
    if not 0 < budget < math.inf:
        raise ParameterError(
            f"budget multiplier must be positive and finite, and so must the budget "
            f"{multiplier} * sqrt({k} * {p}^{n - k})"
        )
    return budget


def _grow_partial_secret(partial: Subgroup, element: VectorP, k: int) -> Subgroup:
    grown = canonicalize(partial.p, partial.n, partial.basis + (element,))
    if grown.rank <= partial.rank:
        raise PromiseViolationError("collision difference was already known")
    if grown.rank > k:
        raise PromiseViolationError(
            f"collected {grown.rank} independent secret elements, but rank(S) = {k}"
        )
    return grown


def find_group(
    log: QueryLog,
    a_grp: Subgroup,
    a_label_of: dict[VectorP, VectorP],
    s1: Subgroup,
    d: int,
) -> tuple[Subgroup, dict[VectorP, VectorP], Subgroup]:
    """Find B of rank d with A ∩ B = {0} and (A+B) ∩ S = {0}, querying span(B).

    ``a_label_of`` maps the label of every element of span(A), 0^n
    included, to that element; the caller has queried all of them.
    Returns (B, B's map of the same kind, S2) with S1 <= S2 <= S; S2
    collects every secret element betrayed by collisions along the way.
    Labels already in the log's cache cost no query, so d = 0 makes none.
    """
    inst = log.instance
    p, n, k = inst.p, inst.n, inst.k
    _check_split(n, k, d)

    # each map is one-to-one since span(A) ∩ S = span(B) ∩ S = {0}
    zero = VectorP.zero(p, n)
    b_label_of = {log.query(zero): zero}
    b_grp, s_cur = trivial_subgroup(p, n), s1
    while b_grp.rank < d:
        # the least u outside S2+A+B; a collision with span(B) grows S2
        u = _lex_smallest_outside(canonicalize(p, n, s_cur.basis + a_grp.basis + b_grp.basis))
        hit = b_label_of.get(log.query(u))
        if hit is not None:
            s_cur = _grow_partial_secret(s_cur, hit - u, k)
            continue
        # query u, then the rest of span(B ∪ u); a collision with A grows S2
        # and abandons the span
        span = sorted(b + u.scale(c) for b in b_label_of.values() for c in range(1, p))
        span.remove(u)
        span.insert(0, u)
        for b in span:
            label = log.query(b)
            if label in a_label_of:
                s_cur = _grow_partial_secret(s_cur, a_label_of[label] - b, k)
                break
        else:
            b_grp = canonicalize(p, n, b_grp.basis + (u,))
            b_label_of.update((log.query(b), b) for b in span)

    return b_grp, b_label_of, s_cur


def find_s(log: QueryLog, d: int) -> SolverResult:
    """Recover the hidden subgroup exactly with the divide-and-conquer solver.

    Builds the rank-(n-k-d) group B first, then the rank-d group A against
    B, and harvests cosets of A against the labels of B; d is the rank of
    the harvested group.  Spends at most p^(n-k-d) + (k+1)*p^d - 1 queries
    (see the module docstring for the accounting).  Refuses before any query
    when that bound exceeds ``DEFAULT_ENUMERATION_CAP``.
    """
    inst = log.instance
    p, n, k = inst.p, inst.n, inst.k
    _check_split(n, k, d)
    bound = det_query_bound(p, n, k, d)
    if bound > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"query bound {bound} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    triv = trivial_subgroup(p, n)
    zero = VectorP.zero(p, n)

    b_grp, b_label_of, s1 = find_group(log, triv, {log.query(zero): zero}, triv, n - k - d)
    a_grp, a_label_of, s2 = find_group(log, b_grp, b_label_of, s1, d)

    w = complement(canonicalize(p, n, s2.basis + a_grp.basis + b_grp.basis))
    gens = list(s2.basis)
    for w_i in w.basis:
        found = None
        for a in sorted(elem + w_i for elem in a_label_of.values()):
            b = b_label_of.get(log.query(a))
            if b is not None:
                found = a - b
                break
        if found is None:
            raise PromiseViolationError(
                f"coset {w_i} + A holds no collision against B; no subgroup explains this"
            )
        gens.append(found)

    recovered = canonicalize(p, n, gens)
    _check_labels(log, recovered)
    return SolverResult(recovered, log.count, bound, d, log.trace)


def brute_force_solve(log: QueryLog) -> SolverResult:
    """Correctness oracle: query all of Z_p^n, return the span of f(0)'s coset.

    ``QueryLog.query_all`` asks every element with one array product, or
    with one ``evaluate`` call each when a subclass overrides ``evaluate``;
    the members are then read off the cache.  Refuses before any query when
    p^n exceeds ``DEFAULT_ENUMERATION_CAP``."""
    inst = log.instance
    p, n = inst.p, inst.n
    if p**n > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"p^n = {p**n} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    log.query_all()
    zero_label = log.query(VectorP.zero(p, n))
    members = [x for x, label in log.cache.items() if label == zero_label]
    recovered = canonicalize(p, n, members)
    _check_labels(log, recovered)
    return SolverResult(recovered, log.count, p**n, None, log.trace)


def birthday_solve(
    log: QueryLog, seed: int, budget_multiplier: float = 8.0
) -> SolverResult:
    """Randomized baseline: sample ceil(multiplier * sqrt(k * p^(n-k))) elements.

    All pairwise collision differences lie in S, so the run succeeds exactly
    when their span reaches rank k; a lower-rank result is a failure value,
    never a wrong answer.  A span of rank above k, or a rank-k span that
    does not explain every label seen, raises ``PromiseViolationError``.
    A budget above ``DEFAULT_ENUMERATION_CAP`` samples raises
    ``ResourceCapError``.
    """
    inst = log.instance
    p, n, k = inst.p, inst.n, inst.k
    budget = _birthday_budget(p, n, k, budget_multiplier)
    samples = math.ceil(budget)
    if samples > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"sample budget {budget:.6g} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    rng = random.Random(seed)
    first_with_label: dict[VectorP, VectorP] = {}
    diffs = []
    for _ in range(samples):
        x = VectorP._unchecked(p, tuple(rng.randrange(p) for _ in range(n)))
        label = log.query(x)
        seen = first_with_label.setdefault(label, x)
        if seen != x:
            diffs.append(x - seen)
    recovered = canonicalize(p, n, diffs)
    if recovered.rank >= k:
        _check_labels(log, recovered)
    return SolverResult(recovered, log.count, samples, None, log.trace)
