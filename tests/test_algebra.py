"""Exact-arithmetic checks for vectors and canonical subgroup bases."""

import itertools
import random

import numpy as np
import pytest

from gsp import (
    DimensionMismatchError,
    ParameterError,
    ResourceCapError,
    Subgroup,
    VectorP,
    canonicalize,
    complement,
    enumerate_subgroups,
    make_instance,
    orthogonal,
    random_subgroup,
    trivial_subgroup,
)
import gsp.algebra
from gsp.algebra import DEFAULT_ENUMERATION_CAP, _rref_bases, lanes
from conftest import (
    add, all_vectors, dot, elements, full_subgroup, index, intersect, pack, reduce, reference_reduce,
    reference_rref_bases, rows, scale, span, sub, subgroup_sum, unit, vec, zero
)


def brute_span(p, n, gens):
    """Independent oracle: all coefficient combinations of the generators."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        v = zero(p, n)
        for c, g in zip(coeffs, gens):
            if c:
                v = add(v, scale(g, c))
        out.add(v)
    return frozenset(out)


SMALL_GRID = [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


def lane_add(x, y):
    lay = lanes(x.p, x.n)
    return VectorP(x.p, lay.unpack(lay.add(lay.pack(x.coords), lay.pack(y.coords))))


def lane_sub(x, y):
    lay = lanes(x.p, x.n)
    return VectorP(x.p, lay.unpack(lay.sub(lay.pack(x.coords), lay.pack(y.coords))))


class TestVectorOps:
    def test_add(self):
        assert lane_add(vec(2, "0011"), vec(2, "0110")) == vec(2, "0101")
        assert lane_add(vec(3, "12"), vec(3, "21")) == vec(3, "00")
        assert lane_add(vec(5, "43"), vec(5, "34")) == vec(5, "22")

    def test_add_full_table_p5(self):
        # scripted cross-check of every residue pair, each lane beside a neighbour
        for a in range(5):
            for b in range(5):
                s = lane_add(VectorP(5, (4, a, 0)), VectorP(5, (0, b, 4)))
                assert s.coords == (4, (a + b) % 5, 4)

    def test_sub(self):
        for a in all_vectors(2, 4):
            for b in all_vectors(2, 4):
                assert lane_sub(a, b) == lane_add(a, b)  # -1 = 1 mod 2
        r = lane_sub(vec(3, "10"), vec(3, "22"))
        assert r == vec(3, "21")
        assert lane_add(vec(3, "22"), r) == vec(3, "10")
        v = vec(5, "43")
        assert lane_sub(v, v) == vec(5, "00")

    def test_dot(self):
        assert dot(vec(2, "0011"), vec(2, "0111")) == 0
        assert dot(vec(2, "0011"), vec(2, "0001")) == 1
        assert dot(vec(3, "12"), vec(3, "21")) == 1

    def test_dimension_mismatch(self):
        # membership of a vector over another p or another n; a packed row of
        # another n has bits past the lanes, and canonicalize refuses it
        h = span(2, 2, [vec(2, "01")])
        for x in (vec(3, "01"), vec(2, "011")):
            with pytest.raises(DimensionMismatchError):
                h.contains(x)
        with pytest.raises(ParameterError):
            canonicalize(2, 2, [pack(vec(2, "111"))])

    def test_construction_errors(self):
        with pytest.raises(ParameterError):
            VectorP(4, (0, 1))  # not prime
        with pytest.raises(ParameterError):
            VectorP(3, (0, 3))  # residue out of range

    def test_factory_errors(self):
        # factories given a bare p and n check both before building unchecked values
        factories = [
            lambda p, n: VectorP.from_index(p, n, 0),
            trivial_subgroup,
            lambda p, n: canonicalize(p, n, []),
            lambda p, n: random_subgroup(p, n, 0, 0),
            lambda p, n: next(enumerate_subgroups(p, n, 0)),
        ]
        for make in factories:
            for p, n in [(4, 2), (1, 2), (2, -1), (2, 70)]:
                with pytest.raises(ParameterError):
                    make(p, n)
        # an index outside [0, p^n) is an error, not a wrapped vector
        for idx in (9, 8, -1):
            with pytest.raises(ParameterError):
                VectorP.from_index(2, 3, idx)

    def test_index_roundtrip(self):
        for v in all_vectors(3, 3):
            assert VectorP.from_index(3, 3, index(v)) == v

    def test_digits_roundtrip(self):
        v = vec(5, "4302")
        assert VectorP.from_digits(5, v.digits()) == v


@pytest.mark.parametrize("p,n", [(2, 64), (5, 16), (7, 16), (3, 22), (5, 17)])
def test_lane_digits_at_the_word_boundary(p, n):
    # n*w = 64 fills a uint64 word, read lane by lane; n*w > 64 is read byte by byte.  With 0,
    # e_0 in the top lane, the all-(p-1) vector and every bit of the n lanes set (bit 63 included
    # on the word path), digits must be unpack, in int64
    lay = lanes(p, n)
    assert (n * lay.width <= 64) == (n in (64, 16))
    xs = [0, unit(p, n, 0), lay.pack((p - 1,) * n), (1 << n * lay.width) - 1]
    out = lay.digits(xs)
    assert out.dtype == np.int64
    assert out.tolist() == [list(lay.unpack(x)) for x in xs]


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 3), (257, 2)])
def test_lane_index_maps_match_the_tuple_reference(p, n):
    # from_index packs index i as VectorP.from_index does; for p > 2 to_index inverts it
    lay, idx = lanes(p, n), np.arange(p**n, dtype=np.int64)
    packed = lay.from_index(idx)
    assert packed.tolist() == [lay.pack(VectorP.from_index(p, n, i).coords) for i in range(p**n)]
    assert lay.to_index(packed).tolist() == idx.tolist()


@pytest.mark.parametrize("p,n", [(3, 20), (257, 6), (65521, 3)])
def test_lane_index_maps_near_the_word(p, n):
    # n*w of 51 to 60 bits; sampled indices up to p^n - 1, both ends included, as an int64 array
    # and one int at a time
    lay, rng = lanes(p, n), random.Random(p * n)
    assert 51 <= n * lay.width <= 60
    idx = [0, 1, p - 1, p, p**n - 2, p**n - 1] + [rng.randrange(p**n) for _ in range(200)]
    packed = lay.from_index(np.array(idx, dtype=np.int64))
    assert packed.tolist() == [lay.pack(VectorP.from_index(p, n, i).coords) for i in idx]
    assert packed.tolist() == list(map(lay.from_index, idx))
    assert lay.to_index(packed).tolist() == idx == list(map(lay.to_index, packed.tolist()))


def test_lane_index_maps_are_the_identity_at_p_2():
    # at p = 2 a lane is one bit, so a packed vector is its own index
    for n in (1, 6, 20, 62):
        lay, idx = lanes(2, n), np.array([0, 1, 2 ** n - 1], dtype=np.int64)
        assert lay.from_index(idx) is idx and lay.to_index(idx) is idx
        assert lay.from_index(2**n - 1) == lay.to_index(2**n - 1) == 2**n - 1


def test_numpy_or_float_p_and_n_are_refused_before_lanes_caches_them():
    # lanes' cache is typed and _check_space refuses a p or n that is not an int, so a numpy n
    # neither answers later plain-int calls with int64 shifts nor depends on call order
    with pytest.raises(ParameterError, match="Python ints"):
        lanes(3, np.int64(29))
    with pytest.raises(ParameterError, match="Python ints"):
        lanes(np.int64(3), 29)
    assert lanes(3, 29).pack([1] + [0] * 28) == 1 << 84
    assert make_instance(3, 29, 5, 0, 0, True).secret.rank == 5
    with pytest.raises(ParameterError, match="Python ints"):
        VectorP(2.5, (1, 0))


class TestCanonicalize:
    def test_one_rref_path(self):
        # _span keeps the echelon and its back-substitution; there is no separate _rref
        assert not hasattr(gsp.algebra, "_rref")

    def test_worked_example(self):
        h = span(2, 4, [vec(2, "0011"), vec(2, "0110")])
        assert [r.digits() for r in rows(h)] == ["0101", "0011"]
        assert h.pivots() == (1, 2)
        assert brute_span(2, 4, [vec(2, "0011"), vec(2, "0110")]) == frozenset(elements(h))

    def test_zero_rows_dropped(self):
        h = span(2, 4, [vec(2, "0000")])
        assert h.rank == 0

    def test_dependent_row(self):
        h = span(2, 4, [vec(2, "0011"), vec(2, "0110"), vec(2, "0101")])
        assert [r.digits() for r in rows(h)] == ["0101", "0011"]

    def test_fixed_point(self):
        for p, n in SMALL_GRID:
            for k in range(n + 1):
                for h in enumerate_subgroups(p, n, k):
                    assert canonicalize(p, n, h.basis) == h

    def test_span_equality_gives_identical_basis(self):
        # any two generating sets with the same brute-force span canonicalize equally
        p, n = 2, 3
        vectors = list(all_vectors(p, n))
        seen: dict[frozenset, Subgroup] = {}
        for r in range(len(vectors) + 1):
            for gens in itertools.combinations(vectors, r):
                spanned = brute_span(p, n, list(gens))
                canon = span(p, n, list(gens))
                assert frozenset(elements(canon)) == spanned
                if spanned in seen:
                    assert seen[spanned] == canon
                seen[spanned] = canon

    def test_rref_validation(self):
        with pytest.raises(ParameterError):
            Subgroup(2, 4, (pack(vec(2, "0011")), pack(vec(2, "0110"))))  # not reduced


class TestMembership:
    def test_contains_worked_example(self, ref_secret):
        assert ref_secret.contains(vec(2, "0101"))
        assert ref_secret.contains(vec(2, "0000"))
        assert not ref_secret.contains(vec(2, "1000"))

    def test_coset_reduce(self, ref_secret):
        assert reduce(ref_secret, vec(2, "0010")) == vec(2, "0001")
        for s in ref_secret.elements():
            assert ref_secret.coset_reduce(s) == 0

    def test_coset_reduce_pivot_free_input(self, ref_secret):
        # brute-force oracle: the unique coset member that is zero on all pivots
        x = vec(2, "1001")
        candidates = [
            add(x, s)
            for s in elements(ref_secret)
            if all(add(x, s).coords[c] == 0 for c in ref_secret.pivots())
        ]
        assert candidates == [vec(2, "1001")]
        assert reduce(ref_secret, x) == candidates[0]

    def test_coset_reduce_refuses_invalid_packed_vectors(self, ref_secret):
        # a set carry bit, a lane at p, an int of a longer space, and -1 are no packed vector
        h = random_subgroup(3, 4, 2, 0)
        w = lanes(3, 4).width
        for x in (1 << (w - 1), 3, unit(3, 5, 0), -1):
            with pytest.raises(ParameterError):
                h.coset_reduce(x)
        for x in (unit(2, 5, 0), -1):
            with pytest.raises(ParameterError):
                ref_secret.coset_reduce(x)

    def test_coset_reduce_law(self):
        # equal representatives exactly when the difference is in the subgroup
        for p, n in [(2, 4), (3, 3)]:
            for h in enumerate_subgroups(p, n, 2):
                for x in all_vectors(p, n):
                    for y in all_vectors(p, n):
                        same = reduce(h, x) == reduce(h, y)
                        assert same == h.contains(sub(x, y))


class TestSetAlgebra:
    def test_sum(self):
        a = span(2, 4, [vec(2, "0011")])
        b = span(2, 4, [vec(2, "0110")])
        assert [r.digits() for r in rows(subgroup_sum(a, b))] == ["0101", "0011"]
        assert subgroup_sum(a, trivial_subgroup(2, 4)) == a
        assert subgroup_sum(a, a) == a

    def test_intersect(self, ref_secret):
        other = span(2, 4, [vec(2, "1000"), vec(2, "0001")])
        inter = intersect(ref_secret, other)
        assert inter.rank == 0
        assert frozenset(inter.elements()) == frozenset(ref_secret.elements()) & frozenset(
            other.elements()
        )
        assert intersect(ref_secret, ref_secret) == ref_secret
        line = span(2, 4, [vec(2, "0101")])
        assert intersect(ref_secret, line) == line

    def test_intersect_matches_brute(self):
        for p, n in [(2, 4), (3, 3)]:
            subs = [h for k in range(n + 1) for h in enumerate_subgroups(p, n, k)]
            for h in subs[::3]:
                for g in subs[::5]:
                    expect = frozenset(h.elements()) & frozenset(g.elements())
                    assert frozenset(intersect(h, g).elements()) == expect

    def test_complement(self, ref_secret):
        c = complement(ref_secret)
        assert [r.digits() for r in rows(c)] == ["1000", "0001"]
        assert c.basis == (unit(2, 4, 0), unit(2, 4, 3))
        assert complement(trivial_subgroup(3, 3)) == full_subgroup(3, 3)
        assert complement(full_subgroup(3, 3)).rank == 0

    def test_complement_law(self):
        for p, n in SMALL_GRID:
            for k in range(n + 1):
                for h in enumerate_subgroups(p, n, k):
                    c = complement(h)
                    assert subgroup_sum(h, c) == full_subgroup(p, n)
                    assert intersect(h, c).rank == 0

    def test_rank_additivity_for_disjoint_pairs(self):
        # rank(V+W) = rank V + rank W and the joined bases stay independent
        p, n = 2, 4
        subs = [h for k in range(n + 1) for h in enumerate_subgroups(p, n, k)]
        for v in subs[::4]:
            for w in subs[::7]:
                if intersect(v, w).rank:
                    continue
                joined = subgroup_sum(v, w)
                assert joined.rank == v.rank + w.rank
                assert canonicalize(p, n, v.basis + w.basis).rank == len(v.basis + w.basis)

    def test_coset_extension_law(self):
        # <V u w> meets H trivially iff the coset V+w misses H entirely
        p, n = 2, 3
        subs = [h for k in range(n + 1) for h in enumerate_subgroups(p, n, k)]
        for v in subs:
            for h in subs:
                if intersect(v, h).rank:
                    continue
                for w in all_vectors(p, n):
                    if v.contains(w):
                        continue
                    lhs = intersect(canonicalize(p, n, v.basis + (pack(w),)), h).rank == 0
                    coset_hits = any(h.contains(add(x, w)) for x in elements(v))
                    assert lhs == (not coset_hits)


class TestOrthogonal:
    def test_worked_example(self, ref_secret):
        perp = orthogonal(ref_secret)
        assert [r.digits() for r in rows(perp)] == ["1000", "0111"]
        brute = [
            g
            for g in all_vectors(2, 4)
            if all(dot(g, row) == 0 for row in rows(ref_secret))
        ]
        assert frozenset(elements(perp)) == frozenset(brute)

    def test_trivial_and_double_dual(self):
        assert orthogonal(trivial_subgroup(3, 3)) == full_subgroup(3, 3)
        for p, n in SMALL_GRID:
            for k in range(n + 1):
                for h in enumerate_subgroups(p, n, k):
                    perp = orthogonal(h)
                    assert p**h.rank * p**perp.rank == p**n
                    assert orthogonal(perp) == h


def sum_of_rows(h, rng):
    """A random member of H: a random combination of its rows."""
    total = zero(h.p, h.n)
    for row in rows(h):
        total = add(total, scale(row, rng.randrange(h.p)))
    return total


class TestEnumeration:
    def test_rank1_of_z2_squared(self):
        subs = list(enumerate_subgroups(2, 2, 1))
        assert len(subs) == 3
        assert {rows(s)[0].digits() for s in subs} == {"01", "10", "11"}

    def test_rank0(self):
        assert list(enumerate_subgroups(3, 3, 0)) == [trivial_subgroup(3, 3)]

    def test_count_2_4_2(self):
        subs = list(enumerate_subgroups(2, 4, 2))
        assert len(subs) == 35
        assert len(set(subs)) == 35

    def test_rref_bases_are_the_enumeration(self):
        # one list of candidate rows per pivot, whose product, pattern by pattern, is the
        # reference's order and ``enumerate_subgroups``' stream
        for p, n in [(2, 4), (3, 3), (5, 2), (2, 6)]:
            lay = lanes(p, n)
            for k in range(n + 1):
                patterns = list(_rref_bases(p, n, k, DEFAULT_ENUMERATION_CAP))
                assert all(len(rows) == len(pivots) for pivots, rows in patterns)
                flat = [(pivots, basis) for pivots, rows in patterns for basis in itertools.product(*rows)]
                assert [(pivots, tuple(map(lay.unpack, basis))) for pivots, basis in flat] == \
                    reference_rref_bases(p, n, k)
                subs = list(enumerate_subgroups(p, n, k))
                assert [basis for _, basis in flat] == [h.basis for h in subs]
                assert [pivots for pivots, _ in flat] == [h.pivots() for h in subs]

    def test_reducer_matches_coset_reduce_on_every_basis(self):
        # random x, plus the all-(p-1) vector, whose pivot coefficients are p - 1 (c != 1 for
        # p > 2, the scale path) and, at p = 2, 1 at every pivot; a member and 0 are reduced to 0.
        # x = 1, packed e_{n-1}, leaves one residue on every basis of a pattern, 0 exactly when
        # n - 1 is a pivot: verify-bounds counts each pattern from its first basis on that
        rng = random.Random(3)
        for p, n in [(2, 5), (3, 4), (5, 3), (7, 3), (3, 5), (257, 2)]:
            lay = lanes(p, n)
            for k in range(n + 1):
                for pivots, rows in _rref_bases(p, n, k, DEFAULT_ENUMERATION_CAP):
                    xs = [rng.randrange(p**n) for _ in range(6)] + [p**n - 1, 0]
                    xs = [VectorP.from_index(p, n, i) for i in xs]
                    last_unit_residues = set()
                    for basis in itertools.product(*rows):
                        h = Subgroup._unchecked(p, n, basis)
                        member = pack(sum_of_rows(h, rng))
                        for x in xs:
                            expect = pack(VectorP(p, reference_reduce(h, x.coords)))
                            assert lay.residue(pivots, basis, pack(x)) == h.coset_reduce(pack(x)) == expect
                        assert lay.residue(pivots, basis, member) == 0
                        last_unit = lay.residue(pivots, basis, 1)
                        assert last_unit == h.coset_reduce(1)
                        last_unit_residues.add(last_unit)
                    assert last_unit_residues == {0 if n - 1 in pivots else 1}

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_subgroups(2, 21, 1))

    def test_rank_past_n_rejected(self):
        with pytest.raises(ParameterError, match="need 0 <= k <= n, got k=4, n=3"):
            list(enumerate_subgroups(2, 3, 4))


class TestRandomSubgroup:
    def test_deterministic(self):
        assert random_subgroup(2, 4, 2, seed=5) == random_subgroup(2, 4, 2, seed=5)

    def test_rank0(self):
        assert random_subgroup(3, 4, 0, seed=1).rank == 0

    def test_negative_seed_rejected(self):
        # random.Random(-3) seeds like Random(3), so -3 would name seed 3's subgroup
        with pytest.raises(ParameterError, match="subgroup seed must be non-negative, got -3"):
            random_subgroup(2, 6, 2, -3)

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_seed_that_is_no_int_rejected(self, seed):
        # random.Random seeds a float by its hash and a bool as 0 or 1
        with pytest.raises(ParameterError, match="seed must be an int"):
            random_subgroup(2, 4, 2, seed)

    def test_rank_past_n_rejected(self):
        with pytest.raises(ParameterError, match="need 0 <= k <= n, got k=5, n=4"):
            random_subgroup(3, 4, 5, seed=1)

    @pytest.mark.parametrize("k", [1.0, True])
    def test_rank_that_is_no_int_rejected(self, k):
        # True drew a rank-1 subgroup; 1.0 failed in range() with a TypeError
        with pytest.raises(ParameterError, match="k must be an int"):
            random_subgroup(2, 4, k, 0)
        with pytest.raises(ParameterError, match="k must be an int"):
            list(enumerate_subgroups(2, 3, k))

    def test_coverage_and_uniformity(self):
        import scipy.stats

        counts: dict[Subgroup, int] = {}
        for seed in range(3500):
            h = random_subgroup(2, 4, 2, seed)
            counts[h] = counts.get(h, 0) + 1
        assert len(counts) == 35
        expected = 3500 / 35
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert scipy.stats.chi2.sf(chi2, df=34) > 1e-3


class TestSerialization:
    def test_worked_example(self, ref_secret):
        assert ref_secret.to_text() == "p=2 n=4 rows=0101;0011"
        assert Subgroup.from_text(ref_secret.to_text()) == ref_secret

    def test_trivial(self):
        t = trivial_subgroup(3, 5)
        assert t.to_text() == "p=3 n=5 rows="
        assert Subgroup.from_text(t.to_text()) == t

    def test_roundtrip_enumerated(self):
        for h in enumerate_subgroups(3, 3, 2):
            assert Subgroup.from_text(h.to_text()) == h

    def test_bad_text(self):
        with pytest.raises(ParameterError):
            Subgroup.from_text("p=2 rows=01")
        with pytest.raises(ParameterError):
            Subgroup.from_text("p=2 n=3 rows=01")
        # with no rows to check, p and n are still checked
        for text in ("p=4 n=3 rows=", "p=2 n=-1 rows=", "p=2 n=70 rows="):
            with pytest.raises(ParameterError):
                Subgroup.from_text(text)
        with pytest.raises(ParameterError, match="bad digit string '1!'"):
            Subgroup.from_text("p=3 n=2 rows=1!")
