"""Instance construction, the labeling promise, and query accounting."""

import pytest

from gsp import (
    DimensionMismatchError,
    HiddenInstance,
    ParameterError,
    QueryLog,
    ResourceCapError,
    VectorP,
    all_vectors,
    canonicalize,
    instance_from_text,
    instance_to_text,
    make_instance,
    random_subgroup,
)
from conftest import vec


@pytest.mark.parametrize("obfuscate", [False, True])
@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 3, 1), (5, 2, 1), (2, 5, 3)])
def test_promise_exhaustive(p, n, k, obfuscate):
    inst = make_instance(p, n, k, subgroup_seed=11, label_seed=42, obfuscate=obfuscate)
    vectors = list(all_vectors(p, n))
    labels = {x: inst.evaluate(x) for x in vectors}
    for x in vectors:
        for y in vectors:
            assert (labels[x] == labels[y]) == inst.secret.contains(x - y)


@pytest.mark.parametrize("obfuscate", [False, True])
def test_label_multiset(obfuscate):
    p, n, k = 3, 3, 1
    inst = make_instance(p, n, k, subgroup_seed=0, label_seed=5, obfuscate=obfuscate)
    buckets: dict = {}
    for x in all_vectors(p, n):
        buckets.setdefault(inst.evaluate(x), 0)
        buckets[inst.evaluate(x)] += 1
    assert len(buckets) == p ** (n - k)
    assert all(size == p**k for size in buckets.values())


def test_reference_fixture(ref_instance, ref_secret):
    same_class = [vec(2, "0000"), vec(2, "0011"), vec(2, "0110"), vec(2, "0101")]
    labels = {ref_instance.evaluate(x) for x in same_class}
    assert len(labels) == 1
    assert ref_instance.evaluate(vec(2, "0010")) == vec(2, "0001")
    # plain mode: the label is the canonical coset representative itself
    for x in all_vectors(2, 4):
        assert ref_instance.evaluate(x) == ref_secret.coset_reduce(x)
    # purity
    x = vec(2, "1011")
    assert ref_instance.evaluate(x) == ref_instance.evaluate(x)


@pytest.mark.parametrize("obfuscate", [False, True])
def test_evaluate_dimension_errors(obfuscate):
    inst = make_instance(3, 4, 2, subgroup_seed=3, label_seed=8, obfuscate=obfuscate)
    with pytest.raises(DimensionMismatchError):
        inst.evaluate(vec(3, "210"))  # wrong length
    with pytest.raises(DimensionMismatchError):
        inst.evaluate(vec(3, "21012"))
    with pytest.raises(DimensionMismatchError):
        inst.evaluate(vec(5, "2101"))  # same length, another prime


def test_make_instance_determinism():
    a = make_instance(3, 4, 2, subgroup_seed=9, label_seed=1, obfuscate=True)
    b = make_instance(3, 4, 2, subgroup_seed=9, label_seed=1, obfuscate=True)
    assert a == b
    x = vec(3, "2101")
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


@pytest.mark.parametrize("obfuscate", [False, True])
def test_one_affine_map_feeds_both_label_paths(obfuscate):
    # evaluate's packed columns and label_indices both read L and s from _affine
    p, n = 3, 3
    inst = make_instance(p, n, 1, subgroup_seed=2, label_seed=6, obfuscate=obfuscate)
    cols, shift = [(1, 2, 0), (0, 1, 1), (2, 0, 1)], (1, 0, 2)  # column j of L is cols[j]
    vars(inst)["_affine"] = (cols, shift)
    expect = [
        VectorP(p, tuple((sum(c[i] * xj for c, xj in zip(cols, x.coords)) + shift[i]) % p for i in range(n)))
        for x in all_vectors(p, n)
    ]
    assert [inst.evaluate(x) for x in all_vectors(p, n)] == expect
    assert inst.label_indices().tolist() == [y.to_index() for y in expect]


def test_label_indices_cap():
    with pytest.raises(ResourceCapError):
        make_instance(2, 21, 2, 0).label_indices()


class TestQueryLog:
    def test_dedup_counting(self, ref_instance):
        log = QueryLog(ref_instance)
        x = vec(2, "1010")
        log.query(x)
        log.query(x)
        assert log.count == 1
        assert list(log.cache) == [x]

    def test_cached_answers_consistent(self, ref_instance):
        log = QueryLog(ref_instance)
        x = vec(2, "0111")
        first = log.query(x)
        assert log.query(x) == first
        assert log.cache[x] == first

    def test_count_monotone_and_trace(self, ref_instance):
        log = QueryLog(ref_instance)
        last = 0
        for x in all_vectors(2, 4):
            log.query(x)
            assert log.count >= last
            last = log.count
        assert log.count == 16
        assert len({label for _, label in log.trace}) == 4
        assert len(log.trace) == 16

    @pytest.mark.parametrize("obfuscate", [False, True])
    def test_query_all_keeps_cached_entries(self, obfuscate):
        inst = make_instance(3, 3, 1, subgroup_seed=4, label_seed=1, obfuscate=obfuscate)
        log = QueryLog(inst)
        asked = [vec(3, "212"), vec(3, "000"), vec(3, "120")]
        labels = [log.query(x) for x in asked]
        log.query_all()
        assert log.count == 27
        assert list(log.cache)[:3] == asked
        assert all(log.cache[x] is label for x, label in zip(asked, labels))
        assert list(log.cache)[3:] == [x for x in all_vectors(3, 3) if x not in asked]
        assert all(label == inst.evaluate(x) for x, label in log.trace)
        log.query_all()  # a second pass asks nothing new
        assert log.count == 27

    def test_dimension_error(self, ref_instance):
        log = QueryLog(ref_instance)
        with pytest.raises(DimensionMismatchError):
            log.query(vec(2, "011"))
        log.query(vec(2, "0110"))  # the same coordinates over another p are not a cache hit
        with pytest.raises(DimensionMismatchError):
            log.query(vec(3, "0110"))


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
