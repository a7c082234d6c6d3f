"""Instance construction, the labeling promise, and query accounting."""

import pytest

from gsp import (
    DimensionMismatchError,
    HiddenInstance,
    ParameterError,
    QueryLog,
    ResourceCapError,
    VectorP,
    instance_from_text,
    instance_to_text,
    make_instance,
    random_subgroup,
)
from gsp.algebra import lanes
from conftest import all_vectors, label_of, pack, reduce, sub, vec


@pytest.mark.parametrize("obfuscate", [False, True])
@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 3, 1), (5, 2, 1), (2, 5, 3)])
def test_promise_exhaustive(p, n, k, obfuscate):
    inst = make_instance(p, n, k, subgroup_seed=11, label_seed=42, obfuscate=obfuscate)
    vectors = list(all_vectors(p, n))
    labels = {x: label_of(inst, x) for x in vectors}
    for x in vectors:
        for y in vectors:
            assert (labels[x] == labels[y]) == inst.secret.contains(sub(x, y))


@pytest.mark.parametrize("obfuscate", [False, True])
def test_label_multiset(obfuscate):
    p, n, k = 3, 3, 1
    inst = make_instance(p, n, k, subgroup_seed=0, label_seed=5, obfuscate=obfuscate)
    buckets: dict = {}
    for x in all_vectors(p, n):
        buckets.setdefault(inst.evaluate(pack(x)), 0)
        buckets[inst.evaluate(pack(x))] += 1
    assert len(buckets) == p ** (n - k)
    assert all(size == p**k for size in buckets.values())


def test_reference_fixture(ref_instance, ref_secret):
    same_class = [vec(2, "0000"), vec(2, "0011"), vec(2, "0110"), vec(2, "0101")]
    labels = {label_of(ref_instance, x) for x in same_class}
    assert len(labels) == 1
    assert label_of(ref_instance, vec(2, "0010")) == vec(2, "0001")
    # plain mode: the label is the canonical coset representative itself
    for x in all_vectors(2, 4):
        assert label_of(ref_instance, x) == reduce(ref_secret, x)
    # purity
    x = pack(vec(2, "1011"))
    assert ref_instance.evaluate(x) == ref_instance.evaluate(x)


def test_make_instance_determinism():
    a = make_instance(3, 4, 2, subgroup_seed=9, label_seed=1, obfuscate=True)
    b = make_instance(3, 4, 2, subgroup_seed=9, label_seed=1, obfuscate=True)
    assert a == b
    x = pack(vec(3, "2101"))
    assert a.evaluate(x) == b.evaluate(x)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        make_instance(2, 4, 0, 0)
    with pytest.raises(ParameterError):
        make_instance(2, 4, 4, 0)
    with pytest.raises(ParameterError):
        HiddenInstance(2, 4, 2, random_subgroup(2, 4, 1, 0))  # rank != k
    with pytest.raises(DimensionMismatchError):
        HiddenInstance(2, 5, 2, random_subgroup(2, 4, 2, 0))
    with pytest.raises(ParameterError, match="subgroup seed must be non-negative, got -3"):
        make_instance(2, 6, 2, -3, 0)  # not seed 3's secret


@pytest.mark.parametrize("obfuscate", [False, True])
def test_one_affine_map_feeds_both_label_paths(obfuscate):
    # evaluate's packed columns and all_labels both read L and s from _affine
    p, n = 3, 3
    inst = make_instance(p, n, 1, subgroup_seed=2, label_seed=6, obfuscate=obfuscate)
    cols, shift = [(1, 2, 0), (0, 1, 1), (2, 0, 1)], (1, 0, 2)  # column j of L is cols[j]
    vars(inst)["_affine"] = ([lanes(p, n).pack(c) for c in cols], shift)  # columns packed, as _affine keeps them
    expect = [
        VectorP(p, tuple((sum(c[i] * xj for c, xj in zip(cols, x.coords)) + shift[i]) % p for i in range(n)))
        for x in all_vectors(p, n)
    ]
    assert [label_of(inst, x) for x in all_vectors(p, n)] == expect
    keys, labels = inst.all_labels()
    assert (keys.tolist(), labels.tolist()) == ([pack(x) for x in all_vectors(p, n)], [pack(y) for y in expect])


@pytest.mark.parametrize("p,n", [(2, 4), (3, 5), (5, 4), (257, 3)])
def test_evaluate_refuses_invalid_packed_vectors(p, n):
    # only valid packed vectors have labels: the tables hold no carry bit and no bit past the
    # lanes, and a lane at or above p is refused; p = 2 lanes have no carry bit and no value
    # at or above p, and there 1 << (w - 1) = 1 is the valid e_{n-1}
    inst, w = make_instance(p, n, 1, subgroup_seed=0, obfuscate=True), lanes(p, n).width
    past_p = [1 << (w - 1), p] if p > 2 else []  # the carry bit; p in the bottom lane
    for x in (*past_p, 1 << (n * w), 1 << (8 * -(-n * w // 8)), -1):
        with pytest.raises((KeyError, OverflowError)):
            inst.evaluate(x)


def test_all_labels_cap():
    with pytest.raises(ResourceCapError):
        make_instance(2, 21, 2, 0).all_labels()


class TestQueryLog:
    def test_dedup_counting(self, ref_instance):
        log = QueryLog(ref_instance)
        x = pack(vec(2, "1010"))
        log.query(x)
        log.query(x)
        assert log.count == 1
        assert list(log.cache) == [x]

    def test_cached_answers_consistent(self, ref_instance):
        log = QueryLog(ref_instance)
        x = pack(vec(2, "0111"))
        first = log.query(x)
        assert log.query(x) == first
        assert log.cache[x] == first

    def test_count_monotone_and_trace(self, ref_instance):
        log = QueryLog(ref_instance)
        last = 0
        for x in all_vectors(2, 4):
            log.query(pack(x))
            assert log.count >= last
            last = log.count
        assert log.count == 16
        assert len(set(log.cache.values())) == 4

    @pytest.mark.parametrize("obfuscate", [False, True])
    def test_query_all_keeps_cached_entries(self, obfuscate):
        inst = make_instance(3, 3, 1, subgroup_seed=4, label_seed=1, obfuscate=obfuscate)
        log = QueryLog(inst)
        asked = [pack(vec(3, "212")), pack(vec(3, "000")), pack(vec(3, "120"))]
        labels = [log.query(x) for x in asked]
        log.query_all()
        assert log.count == 27
        assert list(log.cache)[:3] == asked
        assert all(log.cache[x] is label for x, label in zip(asked, labels))
        assert list(log.cache)[3:] == [x for x in map(pack, all_vectors(3, 3)) if x not in asked]
        assert all(label == inst.evaluate(x) for x, label in log.cache.items())
        log.query_all()  # a second pass asks nothing new
        assert log.count == 27


class TestInstanceFile:
    def test_roundtrip_byte_exact(self, ref_instance):
        text = instance_to_text(ref_instance)
        assert text.splitlines()[0] == "gsp-instance v1"
        again = instance_from_text(text)
        assert again == ref_instance
        assert instance_to_text(again) == text

    def test_fields(self, ref_instance):
        text = instance_to_text(ref_instance)
        assert "p=2\n" in text and "n=4\n" in text and "k=2\n" in text
        assert "secret=p=2 n=4 rows=0101;0011\n" in text
        assert "label_seed=7\n" in text and "obfuscate=0\n" in text

    def test_errors(self):
        with pytest.raises(ParameterError):
            instance_from_text("not an instance\n")
        with pytest.raises(ParameterError):
            instance_from_text("gsp-instance v1\np=2\nn=4\nk=2\n")
        bad = instance_to_text(make_instance(2, 4, 2, 0)).replace("obfuscate=0", "obfuscate=2")
        with pytest.raises(ParameterError):
            instance_from_text(bad)

    @pytest.mark.parametrize("label_seed", [1.5, 2.0, True])
    def test_label_seed_that_is_no_int_refused(self, label_seed):
        # it would be written as label_seed=1.5 or label_seed=True, which read_instance refuses
        with pytest.raises(ParameterError, match="label_seed must be an int"):
            make_instance(2, 4, 2, 0, label_seed, True)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_k_that_is_no_int_refused(self, k):
        # it would be written as k=2.0 or k=True, which read_instance refuses
        with pytest.raises(ParameterError, match="k must be an int"):
            make_instance(2, 4, k, 0)
        with pytest.raises(ParameterError, match="k must be an int"):
            HiddenInstance(2, 4, k, random_subgroup(2, 4, 2, 0))

    @pytest.mark.parametrize("obfuscate", ["0", 2, 1.0, None])
    def test_obfuscate_other_than_a_bool_or_0_1_refused(self, obfuscate):
        # "0" obfuscated, and 2 was written as obfuscate=1, a different instance
        with pytest.raises(ParameterError, match="obfuscate must be a bool, 0 or 1"):
            HiddenInstance(2, 4, 2, random_subgroup(2, 4, 2, 0), 0, obfuscate)

    @pytest.mark.parametrize("obfuscate", [0, 1, False, True])
    def test_obfuscate_0_1_reads_back(self, obfuscate):
        inst = HiddenInstance(2, 4, 2, random_subgroup(2, 4, 2, 0), 3, obfuscate)
        again = instance_from_text(instance_to_text(inst))
        assert again == inst and again.obfuscate == bool(obfuscate)
