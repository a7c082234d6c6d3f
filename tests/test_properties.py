"""Property tests: subgroup laws, the label promise and the deterministic solver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import (
    QueryLog,
    VectorP,
    brute_force_solve,
    find_s,
    intersect,
    make_instance,
    orthogonal,
    random_subgroup,
    subgroup_sum,
)
from gsp.bounds import det_query_bound

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
    s = data.draw(st.sampled_from(list(inst.secret.elements())))
    y = data.draw(st.one_of(_vectors(inst.p, inst.n), st.just(x + s)))
    assert (inst.evaluate(x) == inst.evaluate(y)) == ((x - y) in inst.secret)


@PROPERTY
@given(st.data())
def test_find_s_recovers_secret_within_bound(data):
    inst = data.draw(instances(max_n=12))
    d = data.draw(st.integers(0, inst.n - inst.k))
    res = find_s(QueryLog(inst, dedup=data.draw(st.booleans())), d)
    assert res.recovered == inst.secret
    assert res.queries <= det_query_bound(inst.p, inst.n, inst.k, d)
    if inst.p**inst.n <= 4096:
        assert brute_force_solve(QueryLog(inst)).recovered == res.recovered
