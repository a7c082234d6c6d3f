"""Property tests: subgroup laws, coset reduction, unchecked construction, the label promise and the deterministic solver."""

import itertools
import random
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsp import (
    ParameterError,
    PromiseViolationError,
    QueryLog,
    Subgroup,
    VectorP,
    brute_force_solve,
    canonicalize,
    enumerate_subgroups,
    find_s,
    make_instance,
    orthogonal,
    random_subgroup,
    solvers,
)
from gsp.algebra import _REPS_CHUNK, _draws, _independent_rows, _span, lanes
from gsp.bounds import det_query_bound
from conftest import (
    add,
    all_vectors,
    cache_pairs,
    checked_find_group,
    complement,
    consistent,
    elements,
    index,
    intersect,
    label_of,
    pack,
    reduce,
    reference_reduce,
    rows,
    rref,
    scale,
    span,
    sub,
    subgroup_sum,
    unit,
    zero,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

SPACES = [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 2), (5, 3)]


@st.composite
def subgroups(draw, p, n):
    return random_subgroup(p, n, draw(st.integers(0, n)), draw(st.integers(0, 2**32)))


@st.composite
def subgroup_pairs(draw):
    p, n = draw(st.sampled_from(SPACES))
    return draw(subgroups(p, n)), draw(subgroups(p, n))


@st.composite
def instances(draw, max_n=6):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, max_n if p == 2 else 4))
    k = draw(st.integers(1, n - 1))
    subgroup_seed, label_seed = draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32))
    return make_instance(p, n, k, subgroup_seed, label_seed, draw(st.booleans()))


def _vectors(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(lambda c: VectorP(p, tuple(c)))


def _assert_valid(v):
    """``v`` is what the checked constructor builds from its coordinates."""
    assert all(type(c) is int and 0 <= c < v.p for c in v.coords)
    assert v == VectorP(v.p, v.coords)


@PROPERTY
@given(st.data())
def test_unchecked_vectors_pass_the_checked_constructor(data):
    p, n = data.draw(st.sampled_from(SPACES))
    x, y = data.draw(_vectors(p, n)), data.draw(_vectors(p, n))
    idx = data.draw(st.integers(0, p**n - 1))
    h = data.draw(subgroups(p, n))
    lay = lanes(p, n)
    total, diff = (VectorP._unchecked(p, lay.unpack(op(pack(x), pack(y)))) for op in (lay.add, lay.sub))
    for v in (total, diff, VectorP.from_index(p, n, idx)):
        _assert_valid(v)
    assert all(map(lay.valid, (h.coset_reduce(pack(x)), *h.elements())))
    assert (total, diff) == (add(x, y), sub(x, y))
    assert index(VectorP.from_index(p, n, idx)) == idx


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 257, 65521]).flatmap(
    lambda p: st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.just(p), st.just(n), *[st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)] * 2))))
def test_lane_layout_matches_tuple_arithmetic(case):
    # with the all-(p-1) vector and 0^n among the operands, where a carry
    # would first cross into the next lane
    p, n, a, b = case
    lay = lanes(p, n)
    vectors = [a, b, (p - 1,) * n, (0,) * n]
    for u in vectors:
        x = lay.pack(u)
        assert lay.unpack(x) == u
        for v in vectors:
            y = lay.pack(v)
            assert lay.unpack(lay.add(x, y)) == tuple((s + t) % p for s, t in zip(u, v))
            assert lay.unpack(lay.sub(x, y)) == tuple((s - t) % p for s, t in zip(u, v))
            assert (x < y) == (u < v)
    packed = [lay.pack(u) for u in vectors]
    assert lay.digits(packed).tolist() == [list(u) for u in vectors]
    if p == 2:  # lanes of one bit: a packed vector is its own index, and every int in [0, 2^n) is one
        i = int("".join(map(str, a)), 2)
        assert lay.pack(VectorP.from_index(p, n, i).coords) == i
        assert [lay.valid(z) for z in (-1, 0, i, (1 << n) - 1, 1 << n, i | 1 << n)] == [False] + [True] * 3 + [False] * 2


@st.composite
def row_lists(draw):
    """(p, n, rows): up to five rows of Z_p^n, entries often 0, 1 or p-1, mixed
    in any order with zero rows, duplicates and combinations of two of them."""
    p, n = draw(st.sampled_from([2, 3, 5, 7, 257, 65521])), draw(st.integers(0, 64))
    entries = st.sampled_from([0, 0, 0, 1, p - 1]) | st.integers(0, p - 1)
    base = draw(st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple), max_size=5))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]), max_size=4)):
        if kind == "zero" or not base:
            rows.append((0,) * n)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(base)))
        else:
            (c, x), (e, y) = (draw(st.tuples(st.integers(0, p - 1), st.sampled_from(base))) for _ in "xy")
            rows.append(tuple((c * a + e * b) % p for a, b in zip(x, y)))
    return p, n, draw(st.permutations(rows))


@PROPERTY
@given(row_lists(), st.data())
def test_packed_echelon_matches_reference_rref(case, data):
    # Lanes.insert reports a row independent exactly when the reference rank
    # grows, and _span's basis (insert, then reduced) is the reference RREF, packed
    p, n, rows = case
    lay, echelon = lanes(p, n), {}
    for m, row in enumerate(rows):
        grew = len(rref(p, n, rows[: m + 1])) > len(rref(p, n, rows[:m]))
        assert lay.insert(echelon, lay.pack(row)) == grew
        # each row 1 at its pivot and 0 left of it
        assert all(lay.unpack(r)[: j + 1] == (0,) * j + (1,) for j, r in echelon.items())
    assert sorted(echelon) == [row.index(1) for row in rref(p, n, rows)]  # the pivots
    assert [lay.unpack(row) for row in _span(p, n, map(lay.pack, rows)).basis] == rref(p, n, rows)
    c = data.draw(st.integers(0, 2 * p - 1))  # at p = 2, even c doubles to 0 by XOR
    for row in rows:
        assert lay.unpack(lay.scale(c, lay.pack(row))) == tuple(c * a % p for a in row)


def test_enumerated_subgroups_pass_the_full_check():
    # the unchecked enumeration against the public constructor's RREF check
    for p, n in [(2, 5), (3, 3), (5, 2)]:
        for k in range(n + 1):
            for h in enumerate_subgroups(p, n, k):
                assert all(map(lanes(p, n).valid, h.basis))
                assert h == Subgroup(h.p, h.n, h.basis)


@PROPERTY
@given(st.data())
def test_rref_is_unique(data):
    # any generating set of H, in any order, canonicalizes to H's basis
    p, n = data.draw(st.sampled_from(SPACES))
    h = data.draw(subgroups(p, n))
    coefficients = st.lists(st.integers(0, p - 1), min_size=h.rank, max_size=h.rank)
    gens = [scale(row, data.draw(st.integers(1, p - 1))) for row in rows(h)]
    for coeffs in data.draw(st.lists(coefficients, max_size=4)):
        combo = zero(p, n)
        for a, row in zip(coeffs, rows(h)):
            combo = add(combo, scale(row, a))
        gens.append(combo)
    assert span(p, n, data.draw(st.permutations(gens))).basis == h.basis


def _sequential_reduce(h, x):
    """Coset reduction as first written: eliminate the pivots one by one, mod p after each row."""
    p, coords = h.p, x.coords
    for r in map(lanes(h.p, h.n).unpack, h.basis):
        c = coords[r.index(1)]
        if c:
            coords = tuple((a - c * b) % p for a, b in zip(coords, r))
    return coords


def _assert_reduces_as_sequential(h, x):
    rep, lay = h.coset_reduce(pack(x)), lanes(h.p, h.n)
    assert lay.valid(rep)
    assert lay.unpack(rep) == _sequential_reduce(h, x)
    assert h.contains(x) == (not rep)


def test_one_pass_reduction_matches_sequential_on_small_spaces():
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        vectors = list(all_vectors(p, n))
        for k in range(n + 1):
            for h in enumerate_subgroups(p, n, k):
                for x in vectors:
                    _assert_reduces_as_sequential(h, x)


@PROPERTY
@given(st.data())
def test_one_pass_reduction_matches_sequential_at_n64(data):
    # the single mod at the end sees sums of up to n products (p-1)^2 at p = 65521
    p, n = data.draw(st.sampled_from([(2, 64), (3, 64), (65521, 64)]))
    h = data.draw(subgroups(p, n))
    member = zero(p, n)
    for row in rows(h):
        member = add(member, scale(row, data.draw(st.integers(0, p - 1))))
    x = data.draw(_vectors(p, n))
    for v in (VectorP(p, (p - 1,) * n), x, member, add(x, member)):
        _assert_reduces_as_sequential(h, v)
    assert h.contains(member)
    assert reduce(h, add(x, member)) == reduce(h, x)


@PROPERTY
@given(st.data())
def test_coset_reps_match_coset_reduce(data):
    # all the xs reduced at once against one coset_reduce per x, with 0, the
    # all-(p-1) vector, members, basis rows and duplicates among random vectors
    p, n = data.draw(st.sampled_from([2, 3, 5, 7, 257, 65521])), data.draw(st.integers(1, 64))
    h, lay = data.draw(subgroups(p, n)), lanes(p, n)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=h.rank, max_size=h.rank))
    member = 0
    for c, row in zip(coeffs, h.basis):
        member = lay.add(member, lay.scale(c, row))
    special = st.sampled_from([0, lay.pack((p - 1,) * n), member, *h.basis])
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(lay.pack)
    xs = data.draw(st.lists(vector | special, max_size=12))
    if xs:
        xs = data.draw(st.permutations(xs + data.draw(st.lists(st.sampled_from(xs), max_size=3))))
    assert h.coset_reps(xs) == [h.coset_reduce(x) for x in xs]
    assert h.coset_reps(iter(xs)) == h.coset_reps(xs)
    assert h.coset_reps([]) == []


@PROPERTY
@given(st.data())
def test_packed_subgroup_matches_tuple_reference(data):
    # coset_reduce, contains, pivots and elements on packed rows against tuple
    # arithmetic, with the all-(p-1) vector, whose lane sums are the largest
    p, n = data.draw(st.sampled_from([2, 3, 5, 7, 257, 65521])), data.draw(st.integers(1, 64))
    h, lay = random_subgroup(p, n, data.draw(st.integers(0, n)), data.draw(st.integers(0, 2**32))), lanes(p, n)
    tuple_rows = [lay.unpack(row) for row in h.basis]
    assert list(h.pivots()) == [next(j for j, c in enumerate(row) if c) for row in tuple_rows]
    assert all(row[j] == 1 for row, j in zip(tuple_rows, h.pivots()))
    member = zero(p, n)
    for row in rows(h):
        member = add(member, scale(row, data.draw(st.integers(0, p - 1))))
    x = data.draw(_vectors(p, n))
    for v in (VectorP(p, (p - 1,) * n), x, member, add(x, member)):
        expect = reference_reduce(h, v.coords)
        assert lay.unpack(h.coset_reduce(pack(v))) == expect
        assert h.contains(v) == (expect == (0,) * n)
    if p**h.rank <= 1024:
        combos = itertools.product(range(p), repeat=h.rank)
        expect = [tuple(sum(map(mul, cs, col)) % p for col in zip(*tuple_rows)) or (0,) * n for cs in combos]
        assert [lay.unpack(e) for e in h.elements()] == expect
    # a bit past the lanes and a negative int are refused, and for p > 2, whose lanes
    # have a carry bit, so are a set carry bit and a lane at or above p
    j, y = data.draw(st.integers(0, n - 1)), pack(x)
    bad = [y | 1 << (n * lay.width), ~y]
    if p > 2:
        lane = data.draw(st.integers(p, (1 << lay.width) - 1))
        bad += [y | 1 << (lay.shifts[j] + lay.g), y & ~(((1 << lay.width) - 1) << lay.shifts[j]) | lane << lay.shifts[j]]
    assert lay.valid(y) and lay.valid(pack(VectorP(p, (p - 1,) * n)))
    for z in bad:
        assert not lay.valid(z)
        with pytest.raises(ParameterError):
            Subgroup(p, n, (z,))
        with pytest.raises(ParameterError):
            canonicalize(p, n, [z])


@PROPERTY
@given(subgroup_pairs())
def test_intersect_is_set_intersection(pair):
    h, k = pair
    both = intersect(h, k)
    assert set(both.elements()) == set(h.elements()) & set(k.elements())
    assert subgroup_sum(h, k).rank + both.rank == h.rank + k.rank


@PROPERTY
@given(st.sampled_from(SPACES).flatmap(lambda space: subgroups(*space)))
def test_double_dual(h):
    assert orthogonal(orthogonal(h)) == h
    assert orthogonal(h).rank == h.n - h.rank


@PROPERTY
@given(st.data())
def test_labels_agree_exactly_on_cosets(data):
    inst = data.draw(instances())
    x = data.draw(_vectors(inst.p, inst.n))
    # half the time y lies in x's coset, so both sides of the law are exercised
    s = data.draw(st.sampled_from(elements(inst.secret)))
    y = data.draw(st.one_of(_vectors(inst.p, inst.n), st.just(add(x, s))))
    assert (label_of(inst, x) == label_of(inst, y)) == inst.secret.contains(sub(x, y))


# Spaces of the packed label, read a byte at a time.  Lanes of w = 2 (p = 2) and
# 4 (p = 5, 7) bits tile bytes; lanes of 3 (p = 3), 10 (p = 257) and 17 (p = 65521)
# bits cross them.  n*w is a multiple of 8 only at (2, 64), (3, 64) and (65521, 64).
LABEL_SPACES = [(2, 3), (3, 4), (3, 5), (5, 3), (7, 3), (257, 3), (2, 64), (3, 63), (3, 64), (65521, 64)]


def _reference_label(inst, x):
    """The label as defined: the canonical coset representative, then the bijection rows."""
    rep = reduce(inst.secret, x).coords
    if not inst.obfuscate:
        return rep
    rows, shift = inst._bijection
    return tuple((sum(map(mul, row, rep)) + s) % inst.p for row, s in zip(rows, shift))


@PROPERTY
@given(st.data())
def test_compiled_label_matches_reference(data):
    p, n = data.draw(st.sampled_from(LABEL_SPACES))
    k = data.draw(st.integers(1, n - 1))
    seeds = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 2**32))
    inst = make_instance(p, n, k, *seeds, obfuscate=data.draw(st.booleans()))
    tables = inst._label_map[0]  # one per byte of a packed x, keyed by the byte's valid values
    assert len(tables) == -(-n * lanes(p, n).width // 8)
    assert all(len(table) <= 256 for table in tables)
    top = VectorP(p, (p - 1,) * n)  # the largest lane sums
    for x in (top, data.draw(_vectors(p, n)), *rows(inst.secret)):
        label = VectorP._unchecked(p, lanes(p, n).unpack(inst.evaluate(pack(x))))
        _assert_valid(label)
        assert label.coords == _reference_label(inst, x)


@PROPERTY
@given(st.data())
def test_affine_map_matches_reference(data):
    # column j of L is the label rule on e_j without its shift: coset_reduce, then the bijection rows
    p, n = data.draw(st.sampled_from(LABEL_SPACES))
    k = data.draw(st.integers(1, n - 1))
    seeds = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 2**32))
    inst = make_instance(p, n, k, *seeds, obfuscate=data.draw(st.booleans()))
    cols, shift = [lanes(p, n).unpack(inst.secret.coset_reduce(unit(p, n, j))) for j in range(n)], (0,) * n
    if inst.obfuscate:
        rows, shift = inst._bijection
        cols = [tuple(sum(map(mul, row, col)) % p for row in rows) for col in cols]
    assert inst._affine == ([lanes(p, n).pack(col) for col in cols], shift)


@pytest.mark.parametrize("obfuscate", [False, True])
@pytest.mark.parametrize("p,n", LABEL_SPACES)
def test_label_tables_hold_exactly_the_valid_bytes(p, n, obfuscate):
    # table j has an entry for byte j of a packed x exactly when every set bit of the byte is a
    # value bit of a lane inside the n lanes: absolute bit q below n*w with q mod w below g,
    # lanes of g = bit length of p-1 value bits plus, for p > 2, one carry bit
    g = (p - 1).bit_length()
    w = g + (p > 2)
    tables = make_instance(p, n, n // 2, 3, 5, obfuscate)._label_map[0]
    assert len(tables) == -(-n * w // 8)
    for j, table in enumerate(tables):
        value_bits = sum(1 << i for i in range(8) if 8 * j + i < n * w and (8 * j + i) % w < g)
        valid = [byte for byte in range(256) if not byte & ~value_bits]
        if p == 2:  # a list indexed by the byte: its indices are the valid bytes
            assert type(table) is list and len(table) == 1 << bin(value_bits).count("1")
            assert list(range(len(table))) == valid
        else:
            assert sorted(table) == valid


CHECK_SPACES = [(p, n) for p in (2, 3, 5, 7) for n in range(2, 9) if p**n <= 729]


@PROPERTY
@given(st.data())
def test_all_labels_match_evaluate(data):
    # the array path applies the same affine map as evaluate, element by element
    p, n = data.draw(st.sampled_from(CHECK_SPACES))
    k = data.draw(st.integers(1, n - 1))
    seeds = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 2**32))
    inst = make_instance(p, n, k, *seeds, obfuscate=data.draw(st.booleans()))
    keys, labels = (array.tolist() for array in inst.all_labels())
    assert keys == [pack(x) for x in all_vectors(p, n)]
    assert labels == [inst.evaluate(x) for x in keys]


@pytest.mark.parametrize("obfuscate", [False, True])
@pytest.mark.parametrize("p,n,k", [(2, 9, 3), (2, 12, 5), (2, 16, 7), (3, 8, 3), (257, 2, 1)])
def test_all_labels_gather_across_bytes(p, n, k, obfuscate):
    # spaces of two to four byte tables, where lanes of p > 2 straddle bytes: each byte of x
    # must be read through its own table, which CHECK_SPACES' single table at p = 2 cannot show
    inst = make_instance(p, n, k, p + n, k, obfuscate)
    keys, labels = (array.tolist() for array in inst.all_labels())
    assert len(inst._label_map[0]) >= 2
    assert keys == [lanes(p, n).pack(c) for c in itertools.product(range(p), repeat=n)]
    assert labels == list(map(inst.evaluate, keys))


@st.composite
def label_checks(draw):
    """(log, answer): a cache over a subset of Z_p^n, labelled by the secret or
    by a rule that breaks the promise, and a rank-k answer, right or wrong."""
    p, n = draw(st.sampled_from(CHECK_SPACES))
    k = draw(st.integers(1, n - 1))
    inst = make_instance(p, n, k, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32)), draw(st.booleans()))
    secret, other = inst.secret, random_subgroup(p, n, k, draw(st.integers(0, 2**32)))
    outside = solvers._lex_smallest_outside(lanes(p, n), secret.pivots())
    rule = draw(st.sampled_from([
        inst.evaluate,
        canonicalize(p, n, secret.basis + (outside,)).coset_reduce,  # coarser than S
        canonicalize(p, n, secret.basis[1:]).coset_reduce,  # finer than S
        other.coset_reduce,
        lambda x: random.Random(x).randrange(p) << lanes(p, n).shifts[0],  # no rule
    ]))
    answer = draw(st.sampled_from([secret, other, canonicalize(p, n, secret.basis[1:] + (outside,))]))
    space = [pack(x) for x in all_vectors(p, n)]
    if draw(st.booleans()):
        space = draw(st.lists(st.sampled_from(space), min_size=1, max_size=2 * n, unique=True))
    log = QueryLog(inst)
    log.cache.update((x, rule(x)) for x in space)
    return log, answer


@PROPERTY
@given(label_checks())
def test_label_check_matches_reference(case):
    # the compiled check raises exactly when the per-element reference finds
    # the labels inconsistent with the answer
    log, answer = case
    try:
        solvers._check_labels(answer, log.instance.k, log.cache, log.cache.values())
        raised = False
    except PromiseViolationError:
        raised = True
    assert raised != consistent(answer, cache_pairs(log))


@pytest.mark.parametrize("p", [2, 65521])
def test_label_check_at_the_limits(p):
    # n = 64 at the smallest and the largest prime: at p = 2 a vector fills all
    # 64 bits of a uint64, and representatives and labels use the top residue p - 1
    n, k, rng = 64, 20, random.Random(p)
    inst = make_instance(p, n, k, 3)
    secret, wrong = inst.secret, random_subgroup(p, n, k, 4)
    xs = [VectorP(p, (p - 1,) * n)] + [VectorP(p, tuple(rng.randrange(p) for _ in range(n))) for _ in range(30)]
    xs += [scale(e, p - 1) for e in rows(complement(secret))]  # their own representatives
    for h in (secret, wrong):
        # the check's representatives, all the packed xs reduced at once
        reps = h.coset_reps([pack(x) for x in xs])
        assert [lanes(p, n).unpack(r) for r in reps] == [reference_reduce(h, x.coords) for x in xs]
    log = QueryLog(inst)
    for x in xs:
        member = zero(p, n)
        for row in rows(secret):
            member = add(member, scale(row, rng.randrange(p)))
        log.query(pack(x))
        log.query(pack(add(x, member)))  # shares x's label, and a coset of the secret only
    assert any(p - 1 in lanes(p, n).unpack(label) for label in log.cache.values())
    solvers._check_labels(secret, k, log.cache, log.cache.values())
    with pytest.raises(PromiseViolationError, match="not constant exactly on cosets"):
        solvers._check_labels(wrong, k, log.cache, log.cache.values())


@pytest.mark.parametrize("p, count", [(2, 3000), (257, 5000)])
def test_label_check_sees_the_end_of_a_long_cache(p, count):
    # thousands of lone labels agree with any rank-k answer; only the last pair,
    # at the end of the uint64 array at p = 2 and past the first array chunk at
    # p > 2, tells the secret from a wrong answer
    n, k, rng = 64, 20, random.Random(5)
    inst = make_instance(p, n, k, 3, obfuscate=True)
    secret, wrong = inst.secret, random_subgroup(p, n, k, 4)
    log = QueryLog(inst)
    for _ in range(count):
        log.query(pack(VectorP(p, tuple(rng.randrange(p) for _ in range(n)))))
    x = VectorP(p, tuple(rng.randrange(p) for _ in range(n)))
    member = next(m for m in rows(secret) if not wrong.contains(m))
    log.query(pack(x))
    log.query(pack(add(x, member)))
    assert log.count == count + 2 and (p == 2 or log.count > _REPS_CHUNK)
    reps = wrong.coset_reps(log.cache)
    assert reps == [wrong.coset_reduce(x) for x in log.cache]
    assert len(set(reps)) == log.count == len(set(log.cache.values())) + 1
    solvers._check_labels(secret, k, log.cache, log.cache.values())
    with pytest.raises(PromiseViolationError, match="not constant exactly on cosets"):
        solvers._check_labels(wrong, k, log.cache, log.cache.values())


def _rejection_rows(rng, p, n, count):
    """Independent rows as first written: keep a draw when it raises the rank of all rows so far."""
    rows = []
    while len(rows) < count:
        cand = tuple(rng.randrange(p) for _ in range(n))
        if len(rref(p, n, rows + [cand])) > len(rows):
            rows.append(cand)
    return rows


@pytest.mark.parametrize("count", [0, 1, 7, 272, 5000])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 257, 65521])
@settings(PROPERTY, max_examples=8)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=2**64 - 1)
def test_draws_match_randrange(p, count, seed):
    # one round of words per missing draw leaves the stream where count randrange calls leave it
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert list(_draws(rng, p, count)) == [ref_rng.randrange(p) for _ in range(count)]
    assert rng.random() == ref_rng.random()


@PROPERTY
@given(st.sampled_from(SPACES + [(2, 12), (7, 5), (257, 3)]).flatmap(
    lambda s: st.tuples(st.just(s), st.integers(0, s[1]), st.integers(0, 2**32))))
def test_independent_rows_match_rejection_loop(case):
    (p, n), count, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _independent_rows(rng, p, n, count) == _rejection_rows(ref_rng, p, n, count)
    assert rng.random() == ref_rng.random()  # the same draws were consumed


@PROPERTY
@given(st.data())
def test_find_s_recovers_secret_within_bound(data):
    inst = data.draw(instances(max_n=12))
    d = data.draw(st.integers(0, inst.n - inst.k))
    # Hypothesis rejects function-scoped fixtures, so patch in the body
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "find_group", checked_find_group)
        res = find_s(QueryLog(inst), d)
    assert res.recovered == inst.secret
    assert res.queries <= det_query_bound(inst.p, inst.n, inst.k, d)
    if inst.p**inst.n <= 4096:
        assert brute_force_solve(QueryLog(inst)).recovered == res.recovered
