import itertools

import numpy as np
import pytest

from gsp import (
    DimensionMismatchError, HiddenInstance, SparseState, VectorP, apply_oracle, canonicalize, enumerate_subgroups,
    fourier, orthogonal, solvers,
)
from gsp.algebra import lanes
from gsp.qsim import MAIN
from gsp.solvers import find_group


@pytest.fixture(scope="session")
def ref_secret():
    """The worked 16-element example: S = <0011, 0110> in Z_2^4."""
    return span(2, 4, [VectorP(2, (0, 0, 1, 1)), VectorP(2, (0, 1, 1, 0))])


@pytest.fixture(scope="session")
def ref_instance(ref_secret):
    return HiddenInstance(2, 4, 2, ref_secret, label_seed=7, obfuscate=False)


def vec(p, digits):
    return VectorP(p, tuple(int(ch) for ch in digits))


# Tuple arithmetic mod p and the packed-int boundary, for checks only.  The
# residues of valid vectors are valid, so the sums skip the checked constructor.

def add(x, y):
    return VectorP._unchecked(x.p, tuple((a + b) % x.p for a, b in zip(x.coords, y.coords)))


def sub(x, y):
    return VectorP._unchecked(x.p, tuple((a - b) % x.p for a, b in zip(x.coords, y.coords)))


def scale(x, c):
    return VectorP._unchecked(x.p, tuple(c * a % x.p for a in x.coords))


def zero(p, n):
    return VectorP(p, (0,) * n)


def all_vectors(p, n):
    """All of Z_p^n in index order."""
    return (VectorP(p, coords) for coords in itertools.product(range(p), repeat=n))


def index(x):
    """Rank of the vector in index order (base p, most significant coordinate first)."""
    return sum(c * x.p ** (x.n - 1 - i) for i, c in enumerate(x.coords))


def pack(x):
    """A ``VectorP`` as the packed int that queries and labels use."""
    return lanes(x.p, x.n).pack(x.coords)


def unpack(p, n, x):
    return VectorP(p, lanes(p, n).unpack(x))


def unit(p, n, j):
    """The packed standard basis vector with a 1 at column j (0-based)."""
    return 1 << lanes(p, n).shifts[j]


# Subgroups keep packed rows; these read and build them as ``VectorP``s.

def span(p, n, vectors):
    """``canonicalize`` of ``VectorP`` generators over (p, n)."""
    return canonicalize(p, n, [pack(v) for v in vectors])


def rows(h):
    """H's RREF rows as ``VectorP``s."""
    return [unpack(h.p, h.n, row) for row in h.basis]


def elements(h):
    """Every element of H as a ``VectorP``, in ``Subgroup.elements`` order."""
    return [unpack(h.p, h.n, x) for x in h.elements()]


def reduce(h, x):
    """``Subgroup.coset_reduce`` of a ``VectorP``, returned as one."""
    return unpack(h.p, h.n, h.coset_reduce(pack(x)))


def reference_reduce(h, coords):
    """x - sum_i x[pivot_i] * row_i mod p on coordinate tuples, with the pivots
    found by scanning each row for its leading 1; the reference for packed
    ``coset_reduce`` and ``contains``."""
    p, residue = h.p, list(coords)
    for row in (lanes(h.p, h.n).unpack(r) for r in h.basis):
        c = coords[row.index(1)]
        residue = [a - c * b for a, b in zip(residue, row)]
    return tuple(a % p for a in residue)


def reference_rref_bases(p, n, k):
    """Every rank-k RREF basis of Z_p^n as (pivots, rows as digit tuples), in the documented
    order: pivot combinations in lexicographic order, then the rows' free entries with row 0
    slowest and, within a row, the last free entry fastest; the reference for ``_rref_bases``."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        candidates = []
        for pivot in pivots:
            free = [c for c in range(pivot + 1, n) if c not in pivots]
            row_candidates = []
            for values in itertools.product(range(p), repeat=len(free)):
                row = [0] * n
                row[pivot] = 1
                for c, v in zip(free, values):
                    row[c] = v
                row_candidates.append(tuple(row))
            candidates.append(row_candidates)
        out += [(pivots, basis) for basis in itertools.product(*candidates)]
    return out


def reference_evading(p, n, d_set, k, d):
    """The first rank-k subgroup in ``enumerate_subgroups`` order that holds fewer than d
    elements of d_set by ``reference_reduce``, or None; the reference for ``evading_subgroup``."""
    for h in enumerate_subgroups(p, n, k):
        if sum(reference_reduce(h, v.coords) == (0,) * n for v in d_set) < d:
            return h
    return None


def label_of(inst, x):
    """``inst.evaluate`` on a ``VectorP``, returned as one."""
    return unpack(inst.p, inst.n, inst.evaluate(pack(x)))


def cache_pairs(log):
    """The log's (element, label) pairs as ``VectorP``s, in the order asked."""
    p, n = log.instance.p, log.instance.n
    return [(unpack(p, n, x), unpack(p, n, y)) for x, y in log.cache.items()]


# Reference algebra over the package's vectors, for checks only.

def rref(p, n, rows):
    """Reduced row echelon form over F_p of rows of ints, as tuples: zero rows
    dropped, pivots ascending; the reference for the packed echelon behind ``gsp.algebra._span``."""
    mat = [list(r) for r in rows]
    pivot_row = 0
    for col in range(n):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col] % p), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [(inv * x) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                c = mat[r][col] % p
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [tuple(row) for row in mat[:pivot_row]]


def dot(x, y):
    return sum(a * b for a, b in zip(x.coords, y.coords)) % x.p


def full_subgroup(p, n):
    return canonicalize(p, n, [unit(p, n, j) for j in range(n)])


def complement(h):
    """A direct complement of H: standard basis vectors at H's non-pivot columns."""
    pivots = set(h.pivots())
    return canonicalize(h.p, h.n, [unit(h.p, h.n, j) for j in range(h.n) if j not in pivots])


def subgroup_sum(h, k):
    """H + K; K over another (p, n) raises ``DimensionMismatchError``."""
    if (h.p, h.n) != (k.p, k.n):
        raise DimensionMismatchError("subgroups over different (p, n)")
    return canonicalize(h.p, h.n, h.basis + k.basis)


def intersect(h, k):
    """H ∩ K, the orthogonal subgroup of H^⊥ + K^⊥."""
    return orthogonal(subgroup_sum(orthogonal(h), orthogonal(k)))


def consistent(answer, trace):
    """Labels in ``trace`` agree exactly when their elements share a coset of
    ``answer``; the per-element reference for ``solvers._check_labels``."""
    pairs = {(answer.coset_reduce(pack(x)), label) for x, label in trace}
    return len(pairs) == len({rep for rep, _ in pairs}) == len({label for _, label in pairs})


# The full Simon state, prepared gate by gate: the reference for ``quantum_find_s``'s label branch.

def zero_state(p, dims):
    return SparseState(p, tuple(dims), np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))


def simon_subroutine(inst, counter):
    """Fourier, oracle, Fourier: a superposition over the orthogonal subgroup.

    Starting from |0^n>|0>, the returned state is
    (1/sqrt|T0|) sum_t |phi_t S_perp>|f(t)> over a transversal T0 of the
    secret, with the first register supported exactly on S_perp.
    """
    dim = inst.p**inst.n
    state = fourier(zero_state(inst.p, (dim, dim)), MAIN, inverse=True)
    state = apply_oracle(state, inst, counter)
    return fourier(state, MAIN)


def support(state, reg):
    """The basis values of one register that carry amplitude."""
    return set(np.unique(state.digit(reg)).tolist())


def marginal(state, reg):
    """Probability of each basis value of one register."""
    values, which = np.unique(state.digit(reg), return_inverse=True)
    return dict(zip(values.tolist(), np.bincount(which, weights=np.abs(state.amps) ** 2).tolist()))


def check_find_group(log, before, s1_rows, a_label_of, d, echelon, s_rows, b_label_of):
    """Fail unless a ``find_group`` call meets its invariants against the instance's
    secret: ``before`` and ``s1_rows`` are copies of the echelon and S rows it was
    given, ``echelon`` and ``s_rows`` what it left of them, and ``b_label_of`` what
    it returned.  A and B are read off their label maps; explicit checks, so
    ``python -O`` keeps them."""
    p, n, secret = log.instance.p, log.instance.n, log.instance.secret
    a_grp, b_grp = canonicalize(p, n, a_label_of.values()), canonicalize(p, n, b_label_of.values())
    s1, s2 = canonicalize(p, n, s1_rows), canonicalize(p, n, s_rows)
    checks = {
        "B has rank d": b_grp.rank == d,
        "A ∩ B = {0}": intersect(a_grp, b_grp).rank == 0,
        "(A+B) ∩ S = {0}": intersect(subgroup_sum(a_grp, b_grp), secret).rank == 0,
        "S2 <= S": not any(map(secret.coset_reduce, s2.basis)),
        "S1 <= S2, S1's rows first": not any(map(s2.coset_reduce, s1.basis)) and s_rows[: len(s1_rows)] == s1_rows,
        "B's map holds span(B)": {b: f for f, b in b_label_of.items()}
        == {b: log.cache.get(b) for b in b_grp.elements()},
        "the echelon spans S1+A, then S2+A+B": canonicalize(p, n, before.values()) == subgroup_sum(s1, a_grp)
        and canonicalize(p, n, echelon.values()) == subgroup_sum(subgroup_sum(s2, a_grp), b_grp),
        "S2's rows are independent": len(s_rows) == s2.rank,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        pytest.fail(f"find_group invariants failed: {', '.join(failed)}")


def checked_find_group(log, echelon, s_rows, a_label_of, d):
    """``find_group``, then ``check_find_group`` on what it returns and grows."""
    before, s1_rows = dict(echelon), list(s_rows)
    b_label_of = find_group(log, echelon, s_rows, a_label_of, d)
    check_find_group(log, before, s1_rows, a_label_of, d, echelon, s_rows, b_label_of)
    return b_label_of


@pytest.fixture
def find_group_checked(monkeypatch):
    """Check every ``find_group`` call that ``find_s`` makes in the test."""
    calls = []

    def counted(*args):
        calls.append(None)
        return checked_find_group(*args)

    monkeypatch.setattr(solvers, "find_group", counted)
    yield
    assert calls, "find_s did not look find_group up in gsp.solvers"
