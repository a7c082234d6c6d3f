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
  call and to the coset harvest, so no span is built twice.  Both calls
  grow one packed echelon of S2 + A + B (``Lanes.insert``) and S2's rows
  in place; the harvest reads its cosets off the echelon's free columns.
* ``find_group`` grows B one generator at a time in a single loop.  Its
  fresh element u is the lexicographically smallest vector outside
  S2 + A + B, the unit vector at the echelon's last free column, so traces
  are reproducible.  Each collision adds an independent secret element by
  construction, so S2's rank is its row count.
* Span queries stop at the first collision; the rest of an abandoned span
  is never asked.

Vectors, labels and subgroup rows are packed ints (``gsp.algebra.lanes``,
added by XOR at p = 2) from the oracle to the answer check, which reduces the
whole cache at once (``Subgroup.coset_reps``).  ``sorted`` orders
them as coordinate tuples; they become ``VectorP``s only in ``SolverResult.trace``.

``brute_force_solve`` is the correctness oracle (queries everything) and
``birthday_solve`` the randomized collision baseline.  Brute force asks all
of Z_p^n through ``QueryLog.query_all``, which reads ``evaluate``'s byte tables
with one int64 gather per table unless a subclass overrides ``evaluate``.  Each of the three
refuses before its first query when its query bound exceeds
``DEFAULT_ENUMERATION_CAP``, and checks its answer with ``_check_labels``
before returning it: the answer must have rank k, and two cached elements
must share a label exactly when they share a coset of it, or it raises
``PromiseViolationError`` instead of returning a wrong subgroup.
``birthday_solve`` calls it only at rank k or above; a lower rank is its
failure value.  ``gsp.qsim.quantum_find_s`` runs the same check over all of
Z_p^n and its label table.  ``find_group``'s invariants, which need the secret, are
checked by the tests, not here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, islice
from typing import Collection, Iterable

from .algebra import (
    DEFAULT_ENUMERATION_CAP, Lanes, Subgroup, VectorP, _check_ints, _check_problem, _draws, _span, lanes
)
from .bounds import _check_split, det_query_bound
from .errors import ParameterError, PromiseViolationError, ResourceCapError
from .oracle import QueryLog


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run on one instance; ``bound`` is the most queries
    (oracle calls, for the quantum solver) that its solver may spend on the run.
    ``trace`` reads the first ``queries`` entries of a classical solver's ``log``
    when asked: no solve copies its cache, and later solves do not change it."""

    recovered: Subgroup
    queries: int
    bound: int
    d_used: int | None
    log: QueryLog | None = field(default=None, repr=False, compare=False)

    @property
    def trace(self) -> tuple[tuple[VectorP, VectorP], ...]:
        if self.log is None:
            return ()
        p, unpack = self.recovered.p, lanes(self.recovered.p, self.recovered.n).unpack
        label = cache(lambda y: VectorP._unchecked(p, unpack(y)))  # one VectorP per distinct label
        pairs = islice(self.log.cache.items(), self.queries)
        return tuple((VectorP._unchecked(p, unpack(x)), label(y)) for x, y in pairs)


def choose_d(p: int, n: int, k: int) -> int:
    """Default split parameter: floor((n-k-log_p k)/2) when n >= k + log_p k, else 0.

    Evaluated in integer arithmetic: the branch condition is p^(n-k) >= k and
    the floor is the largest d with p^(n-k-2d) >= k.  p must be a prime and 1 <= k < n.
    """
    _check_problem(p, n, k)
    if p ** (n - k) < k:
        return 0
    d = (n - k) // 2
    while p ** (n - k - 2 * d) < k:
        d -= 1
    return d


def _lex_smallest_outside(lay: Lanes, pivots: Iterable[int]) -> int:
    """Least nonzero vector in index order outside the span with these pivot columns, packed.

    That is the unit vector at the last non-pivot column j: every vector
    supported right of j is a combination of the unit rows there, and a
    nonzero vector that is zero on every pivot column lies outside."""
    free = set(range(lay.n)).difference(pivots)
    if not free:
        raise PromiseViolationError("excluded span covers the whole group")
    return 1 << lay.shifts[max(free)]


def _check_labels(answer: Subgroup, k: int, xs: Iterable[int], labels: Collection[int]) -> None:
    """Raise unless ``answer`` has rank k and the packed elements ``xs`` share a
    label (``labels``, in the same order) exactly when they share a coset of it.

    The classical solvers pass their whole cache and the quantum solver all of
    Z_p^n and its label table.  The representatives come from one
    ``answer.coset_reps`` call and key the three sets as packed ints.
    """
    if answer.rank != k:
        raise PromiseViolationError(f"answer has rank {answer.rank}, promised k={k}")
    reps = answer.coset_reps(xs)
    if not len(set(zip(reps, labels))) == len(set(reps)) == len(set(labels)):
        raise PromiseViolationError(f"the labels seen are not constant exactly on cosets of {answer}")


def _birthday_budget(p: int, n: int, k: int, multiplier: float) -> float:
    """multiplier * sqrt(k * p^(n-k)), refused unless positive and finite (also for a nan multiplier)."""
    budget = multiplier * math.sqrt(k * p ** (n - k))
    if not 0 < budget < math.inf:
        raise ParameterError(
            f"budget multiplier must be positive and finite, and so must the budget "
            f"{multiplier} * sqrt({k} * {p}^{n - k})"
        )
    return budget


def find_group(
    log: QueryLog,
    echelon: dict[int, int],
    s_rows: list[int],
    a_label_of: dict[int, int],
    d: int,
) -> dict[int, int]:
    """Find B of rank d with A ∩ B = {0} and (A+B) ∩ S = {0}, querying span(B); return B's label map.

    ``a_label_of`` maps the label of every element of span(A), 0^n included, to that element, both
    packed; the caller has queried them all.  ``echelon`` (``Lanes.insert``) spans S1 + A and ``s_rows``
    holds S1's independent rows.  Both grow in place: ``echelon`` takes B's generators, and both take
    each collision difference, a new independent secret element, so they end at S2 + A + B and S2, with
    S1 <= S2 <= S.  A row past rank k raises ``PromiseViolationError``.  Cached labels cost no query, so
    d = 0 makes none.
    """
    inst = log.instance
    p, n, k = inst.p, inst.n, inst.k
    _check_split(n, k, d)
    lay = lanes(p, n)
    add, sub, insert = lay.add, lay.sub, lay.insert

    # each map is one-to-one since span(A) ∩ S = span(B) ∩ S = {0}
    b_label_of, rank = {log.query(0): 0}, 0
    while rank < d:
        # the least u outside S2+A+B; a collision with span(B) grows S2
        u = _lex_smallest_outside(lay, echelon)
        hit = b_label_of.get(log.query(u))
        if hit is not None:
            diff = sub(hit, u)
        else:
            # query u, then the rest of span(B ∪ u); a collision with A grows S2 and abandons the span
            multiples = list(accumulate([u] * (p - 1), add))  # c*u for c = 1..p-1
            span = sorted(add(b, m) for b in b_label_of.values() for m in multiples)
            span.remove(u)
            span.insert(0, u)
            labels = []  # each asked once: an accepted span's labels go into B's map
            for b in span:
                labels.append(label := log.query(b))
                if label in a_label_of:
                    diff = sub(a_label_of[label], b)
                    break
            else:
                insert(echelon, u)
                rank += 1
                b_label_of.update(zip(labels, span))
                continue
        # diff = x - (b + c*u) with x, b in span(A+B), c != 0 and u outside S2+A+B, so diff lies outside
        # S2+A+B too: every collision adds an independent secret element, and S2's row count is its rank
        insert(echelon, diff)
        s_rows.append(diff)
        if len(s_rows) > k:
            raise PromiseViolationError(f"collected {len(s_rows)} independent secret elements, but rank(S) = {k}")

    return b_label_of


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
    bound = det_query_bound(p, n, k, d)  # refuses a d outside [0, n-k]
    if bound > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"query bound {bound} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    lay = lanes(p, n)
    add, sub = lay.add, lay.sub
    echelon, s_rows = {}, []  # S2 + A + B and S2, grown by both calls; the harvest completes S
    b_label_of = find_group(log, echelon, s_rows, {log.query(0): 0}, n - k - d)
    a_label_of = find_group(log, echelon, s_rows, b_label_of, d)

    # one coset of A per unit vector off the pivots of S2 + A + B, columns ascending
    for w in [1 << lay.shifts[j] for j in range(n) if j not in echelon]:
        for a in sorted(add(elem, w) for elem in a_label_of.values()):
            b = b_label_of.get(log.query(a))
            if b is not None:
                s_rows.append(sub(a, b))
                break
        else:
            raise PromiseViolationError(
                f"coset {VectorP._unchecked(p, lay.unpack(w))} + A holds no collision against B; "
                "no subgroup explains this"
            )

    recovered = _span(p, n, s_rows)
    _check_labels(recovered, k, log.cache, log.cache.values())
    return SolverResult(recovered, log.count, bound, d, log)


def brute_force_solve(log: QueryLog) -> SolverResult:
    """Correctness oracle: query all of Z_p^n, return the span of the elements labelled f(0).
    ``QueryLog.query_all`` refuses before any query when p^n exceeds ``DEFAULT_ENUMERATION_CAP``."""
    inst = log.instance
    p, n = inst.p, inst.n
    log.query_all()
    zero_label = log.query(0)
    members = [x for x, label in log.cache.items() if label == zero_label]
    recovered = _span(p, n, members)
    _check_labels(recovered, inst.k, log.cache, log.cache.values())
    return SolverResult(recovered, log.count, p**n, None, log)


def birthday_solve(
    log: QueryLog, seed: int, budget_multiplier: float = 8.0
) -> SolverResult:
    """Randomized baseline: sample ceil(multiplier * sqrt(k * p^(n-k))) elements.

    All pairwise collision differences lie in S, so the run succeeds exactly
    when their span reaches rank k; a lower-rank result is a failure value,
    never a wrong answer.  A span of rank above k, or a rank-k span that
    does not explain every label seen, raises ``PromiseViolationError``.
    A budget above ``DEFAULT_ENUMERATION_CAP`` samples raises
    ``ResourceCapError``, and a negative seed ``ParameterError``.
    """
    _check_ints(seed=seed)
    if seed < 0:  # random.Random(-s) seeds like Random(s)
        raise ParameterError(f"sample seed must be non-negative, got {seed}")
    inst = log.instance
    p, n, k = inst.p, inst.n, inst.k
    budget = _birthday_budget(p, n, k, budget_multiplier)
    samples = math.ceil(budget)
    if samples > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"sample budget {budget:.6g} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    rng, lay = random.Random(seed), lanes(p, n)
    first_with_label: dict[int, int] = {}
    diffs = []
    for start in range(0, samples, 4096):  # draws for 4096 samples at a time, to bound their memory
        for coords in zip(*[iter(_draws(rng, p, min(4096, samples - start) * n))] * n):
            x = lay.pack(coords)
            label = log.query(x)
            seen = first_with_label.setdefault(label, x)
            if seen != x:
                diffs.append(lay.sub(x, seen))
    recovered = _span(p, n, diffs)
    if recovered.rank >= k:
        _check_labels(recovered, k, log.cache, log.cache.values())
    return SolverResult(recovered, log.count, samples, None, log)
