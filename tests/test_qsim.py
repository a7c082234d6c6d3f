"""Unitarity, support laws, and exactness of the quantum simulation."""

import cmath
import functools
import gc
import math
import random
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import (
    HiddenInstance,
    ParameterError,
    PromiseViolationError,
    QCounter,
    QueryLog,
    ResourceCapError,
    SparseState,
    VectorP,
    apply_oracle,
    brute_force_solve,
    dump_state_text,
    exact_amplify,
    fourier,
    make_instance,
    orthogonal,
    quantum_find_s,
    shrink_subgroup,
)
import gsp
import gsp.qsim as qsim
from gsp.algebra import lanes
from gsp.qsim import LABEL, MAIN, _permute, _unitary
from conftest import (
    add, all_vectors, dot, elements, index, label_of, marginal, pack, rows, scale, simon_subroutine, span, sub, support,
    unpack, vec, zero_state,
)
from test_acceptance import QGRID, QGRID_LARGE


GOLDEN = Path(__file__).parent / "data" / "qsim_final_states.txt"


def make_state(p, dims, entries):
    """State from a {basis tuple: amplitude} map, one value per register."""
    keys = [np.ravel_multi_index(basis, dims) for basis in entries]
    return SparseState(p, dims, np.array(keys, dtype=np.int64), np.array(list(entries.values()), dtype=complex))


def basis_amps(state):
    """The state as a {basis tuple: amplitude} map."""
    digits = np.unravel_index(state.keys, state.dims)
    return {tuple(int(d[i]) for d in digits): complex(a) for i, a in enumerate(state.amps)}


def random_sparse_state(p, dims, seed, size=5):
    rng = random.Random(seed)
    amps = {}
    for _ in range(size):
        basis = tuple(rng.randrange(d) for d in dims)
        amps[basis] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return make_state(p, dims, {b: a / norm for b, a in amps.items()})


@functools.cache
def vectors(p, n):
    """Z_p^n as ``VectorP``s in index order, so a basis value picks its vector, and each vector's index."""
    space = list(all_vectors(p, n))
    return space, {v: index(v) for v in space}


def reference_oracle(state, inst, counter, sign=1):
    """|g>|y> -> |g>|y + sign*f(g)>, one oracle call, in conftest's tuple arithmetic."""
    space, position = vectors(inst.p, inst.n)
    step = add if sign > 0 else sub
    label = functools.cache(lambda g: label_of(inst, space[g]))
    pairs = zip(state.digit(MAIN).tolist(), state.digit(LABEL).tolist())
    counter.oracle_calls += 1
    return _permute(state, LABEL, np.array([position[step(space[y], label(g))] for g, y in pairs]))


def reference_shrink(state, y, j, flag, sign):
    """The shrink step on an existing, zeroed ``flag`` register (sign +1), or
    its inverse (sign -1): the forward steps in reverse order with opposite signs,
    in conftest's tuple arithmetic."""
    p = state.p
    space, position = vectors(p, y.n)
    c_inv = pow(y.coords[j], p - 2, p)

    def copy_coefficient(state, sign):
        coefficient = np.array([space[g].coords[j] * c_inv for g in state.digit(MAIN).tolist()])
        return _permute(state, flag, (state.digit(flag) + sign * coefficient) % p)

    def shift_main(state, sign):
        step = sub if sign > 0 else add
        shifted = functools.cache(lambda g, c: position[step(space[g], scale(y, c))])
        pairs = zip(state.digit(MAIN).tolist(), state.digit(flag).tolist())
        return _permute(state, MAIN, np.array([shifted(g, c) for g, c in pairs]))

    if sign > 0:
        return fourier(shift_main(copy_coefficient(state, 1), 1), flag, inverse=True)
    return copy_coefficient(shift_main(fourier(state, flag), -1), -1)


def reference_round(inst, known, counter):
    """One amplified round as the explicit circuit A, then A S_0 A^-1 S_chi per iteration."""
    p, n, k = inst.p, inst.n, inst.k
    m = len(known)
    known_span = span(p, n, known)
    pairs = zip(rows(known_span), known_span.pivots())
    shrinks = [(row, col, LABEL + 1 + i) for i, (row, col) in enumerate(pairs)]
    dims = (p**n, p**n) + (p,) * (m + 1)
    aux = len(dims) - 1
    a = 1.0 - float(p) ** -(n - k - m)
    iters = math.ceil(math.pi / (4.0 * math.asin(math.sqrt(a))) - 0.5)
    phi = math.asin(math.sin(math.pi / (2.0 * (2 * iters + 1))) / math.sqrt(a))
    rot = np.eye(p, dtype=complex)
    rot[:2, :2] = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]

    def forward(state):
        state = fourier(state, MAIN, inverse=True)
        state = apply_oracle(state, inst, counter)
        state = fourier(state, MAIN)
        for row, col, flag in shrinks:
            state = reference_shrink(state, row, col, flag, 1)
        return _unitary(state, aux, rot)

    def backward(state):
        state = _unitary(state, aux, rot.T)
        for row, col, flag in reversed(shrinks):
            state = reference_shrink(state, row, col, flag, -1)
        state = fourier(state, MAIN, inverse=True)
        state = reference_oracle(state, inst, counter, -1)
        return fourier(state, MAIN)

    def flip(state, mask):
        return SparseState(p, dims, state.keys, np.where(mask, -state.amps, state.amps))

    state = forward(zero_state(p, dims))
    for _ in range(iters):
        state = flip(state, (state.digit(MAIN) != 0) & (state.digit(aux) == 1))
        state = backward(state)
        state = forward(flip(state, state.keys == 0))
    return state


class TestFourier:
    def test_hadamard_special_case(self):
        out = basis_amps(fourier(zero_state(2, (2,)), 0))
        root = 1 / math.sqrt(2)
        assert abs(out[(0,)] - root) < 1e-12
        assert abs(out[(1,)] - root) < 1e-12

    def test_qutrit_kernel(self):
        out = basis_amps(fourier(make_state(3, (3,), {(1,): 1.0 + 0j}), 0))
        w = cmath.exp(2j * math.pi / 3)
        for value, expect in ((0, 1), (1, w), (2, w * w)):
            assert abs(out[(value,)] - expect / math.sqrt(3)) < 1e-12

    def test_matches_dense_dft_dim3(self):
        dense = np.array(
            [
                [cmath.exp(2j * math.pi * g * h / 3) for h in range(3)]
                for g in range(3)
            ]
        ) / math.sqrt(3)
        for basis in range(3):
            out = basis_amps(fourier(make_state(3, (3,), {(basis,): 1.0 + 0j}), 0))
            col = np.array([out.get((g,), 0.0) for g in range(3)])
            assert np.allclose(col, dense[:, basis], atol=1e-12)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
    def test_unitarity(self, p, m):
        for seed in range(3):
            state = random_sparse_state(p, (p**m, p), seed)
            back = basis_amps(fourier(fourier(state, 0), 0, inverse=True))
            assert max(abs(back.get(b, 0) - a) for b, a in basis_amps(state).items()) < 1e-10

    def test_register_out_of_range(self):
        with pytest.raises(ParameterError):
            fourier(zero_state(2, (4,)), 1)

    def test_dimension_not_a_power_of_p(self):
        with pytest.raises(ParameterError):
            zero_state(2, (4, 6))
        with pytest.raises(ParameterError):
            zero_state(3, (1,))

    @pytest.mark.parametrize("p,keys,amps,message", [
        (2, [7], [1], r"keys must lie in \[0, 4\)"),  # fourier would return keys 4..7
        (2, [1, 2], [1], r"2 keys but amplitudes of shape \(1,\)"),
        (2, [[1]], [[1]], r"keys must be one-dimensional, got shape \(1, 1\)"),
        (1, [1], [1], "p must be at least 2, got 1"),
        (0, [1], [1], "p must be at least 2, got 0"),
        (2, [1, 1], [0.6, 0.8], "keys must not repeat"),  # fourier would sum them and report a norm drift
        (2, np.array([0.5, 1.0]), [0.6, 0.8], "keys must be signed integers, got dtype float64"),  # fourier: an IndexError
        (2, np.array([1, 2], np.uint64), [0.6, 0.8], "keys must be signed integers, got dtype uint64"),  # fourier: float64 keys
    ], ids=["key-out-of-range", "length-mismatch", "2d-keys", "p-1", "p-0", "repeated-key", "float-keys", "uint-keys"])
    def test_malformed_state_rejected(self, p, keys, amps, message):
        keys = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=np.int64)
        with pytest.raises(ParameterError, match=message):
            SparseState(p, (4,), keys, np.array(amps, dtype=complex))


class TestKernels:
    """The digit-factored transform against the dense kernel."""

    @pytest.mark.parametrize("p,m_max", [(2, 9), (3, 5), (5, 3), (7, 3)])
    def test_fourier_matches_dense_kernel(self, p, m_max):
        rng = np.random.default_rng(p)
        for m in range(1, m_max + 1):
            dim = p**m
            digits = np.stack(np.unravel_index(np.arange(dim), (p,) * m), axis=1)
            dense = np.exp(2j * np.pi * (digits @ digits.T % p) / p) / math.sqrt(dim)
            dims = (p, dim, p)  # the transformed register sits between two others
            for _ in range(3):
                keys = rng.choice(dim * p * p, size=6, replace=False).astype(np.int64)
                amps = rng.normal(size=6) + 1j * rng.normal(size=6)
                state = SparseState(p, dims, keys, amps / np.linalg.norm(amps))
                before = np.zeros(dim * p * p, dtype=complex)
                before[state.keys] = state.amps
                for inverse in (False, True):
                    out = fourier(state, 1, inverse=inverse)
                    after = np.zeros(dim * p * p, dtype=complex)
                    after[out.keys] = out.amps
                    mat = dense.conj() if inverse else dense
                    expect = np.einsum("hg,agb->ahb", mat, before.reshape(dims)).reshape(-1)
                    assert np.abs(after - expect).max() < 1e-12, (p, m, inverse)


class TestOracle:
    def test_basis_action(self, ref_instance):
        g = vec(2, "1011")
        state = make_state(2, (16, 16), {(index(g), 0): 1.0 + 0j})
        c = QCounter()
        out = apply_oracle(state, ref_instance, c)
        expect = index(label_of(ref_instance, g))
        assert basis_amps(out) == {(index(g), expect): 1.0 + 0j}
        assert c.oracle_calls == 1

    def test_inverse_is_identity(self, ref_instance):
        # the reference inverse oracle undoes apply_oracle on the Simon state
        c = QCounter()
        state = simon_subroutine(ref_instance, c)
        there = apply_oracle(state, ref_instance, c)
        back = reference_oracle(there, ref_instance, c, -1)
        assert c.oracle_calls == 3
        back = basis_amps(back)
        assert max(abs(back.get(b, 0) - a) for b, a in basis_amps(state).items()) < 1e-12

    def test_uniform_input_entangles_cosets(self, ref_instance):
        state = fourier(zero_state(2, (16, 16)), 0, inverse=True)
        out = apply_oracle(state, ref_instance, QCounter())
        labels = support(out, 1)
        assert len(labels) == 4
        by_label: dict[int, set[int]] = {}
        for g, y in basis_amps(out):
            by_label.setdefault(y, set()).add(g)
        mains = [frozenset(v) for v in by_label.values()]
        assert all(len(m) == 4 for m in mains)
        assert len(set(mains)) == 4

    def test_state_of_another_space_rejected(self, ref_instance):
        # an (8, 8) state would get keys past its 64; a p = 3 state is no Z_2^4 state
        for p, dims in ((2, (8, 8)), (3, (9, 9)), (2, (16,))):
            with pytest.raises(ParameterError, match="do not fit p=2 n=4"):
                apply_oracle(zero_state(p, dims), ref_instance, QCounter())


class TestGatesAgainstTupleReference:
    """``apply_oracle`` and ``shrink_subgroup``, on random sparse states, against conftest's tuple arithmetic."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_random_sparse_states(self, data):
        p, n = data.draw(st.sampled_from([(2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2)]))
        k = data.draw(st.integers(1, n - 1))
        seeds = data.draw(st.tuples(*[st.integers(0, 2**32)] * 3))
        inst = make_instance(p, n, k, seeds[0], seeds[1], data.draw(st.booleans()))
        dims = (p**n, p**n) + (p,) * data.draw(st.integers(0, 2))
        state = random_sparse_state(p, dims, seeds[2], size=data.draw(st.integers(1, 12)))
        assert basis_amps(apply_oracle(state, inst, QCounter())) == basis_amps(reference_oracle(state, inst, QCounter()))

        y = VectorP.from_index(p, n, data.draw(st.integers(1, p**n - 1)))
        j, lead = next((i, c) for i, c in enumerate(y.coords) if c)
        flagged = {b[: LABEL + 1] + (0,) + b[LABEL + 1 :]: a for b, a in basis_amps(state).items()}
        flagged = make_state(p, dims[: LABEL + 1] + (p,) + dims[LABEL + 1 :], flagged)
        got = basis_amps(shrink_subgroup(state, pack(y)))  # shrinks by y's RREF row, 1 at column j
        want = basis_amps(reference_shrink(flagged, scale(y, pow(lead, -1, p)), j, LABEL + 1, 1))
        assert got.keys() == want.keys(), (p, n, y)
        assert max(abs(got[b] - a) for b, a in want.items()) < 1e-12


class TestSimonSubroutine:
    def test_reference_is_not_in_the_package(self):
        # quantum_find_s prepares the Simon state one way, as its label branch; the full state is the tests'
        for name in ("simon_subroutine", "zero_state"):
            assert not hasattr(gsp, name) and not hasattr(qsim, name)

    def test_support_is_orthogonal_subgroup(self, ref_instance, ref_secret):
        c = QCounter()
        psi = simon_subroutine(ref_instance, c)
        assert c.oracle_calls == 1
        perp = orthogonal(ref_secret)
        assert {VectorP.from_index(2, 4, i) for i in support(psi, 0)} == set(elements(perp))
        assert all(abs(prob - 1 / 4) < 1e-10 for prob in marginal(psi, 0).values())

    def test_minimal_orthogonal_size(self):
        # k = n-1 leaves p elements in the orthogonal subgroup
        inst = make_instance(3, 3, 2, subgroup_seed=2, label_seed=0)
        psi = simon_subroutine(inst, QCounter())
        assert len(support(psi, 0)) == 3


class TestShrink:
    def test_support_law(self, ref_instance):
        psi = simon_subroutine(ref_instance, QCounter())
        out = shrink_subgroup(psi, pack(vec(2, "1000")))
        assert {VectorP.from_index(2, 4, i).digits() for i in support(out, 0)} == {"0000", "0111"}
        assert abs(out.norm_sq() - 1.0) < 1e-10

    def test_flag_holds_branch_dot_product(self, ref_instance):
        # each branch |phi_t K>|f(t)> gains the basis flag |t.y|
        y = vec(2, "1000")
        psi = simon_subroutine(ref_instance, QCounter())
        out = shrink_subgroup(psi, pack(y))
        label_to_rep = {}
        for x in all_vectors(2, 4):
            label_to_rep.setdefault(index(label_of(ref_instance, x)), x)
        for main, label, flag in basis_amps(out):
            t = label_to_rep[label]
            assert flag == dot(t, y)

    def test_zero_vector_rejected(self, ref_instance):
        psi = simon_subroutine(ref_instance, QCounter())
        with pytest.raises(ParameterError, match="zero vector"):
            shrink_subgroup(psi, 0)

    def test_vector_of_another_space_rejected(self, ref_instance):
        # n comes from the main register, so y must be a packed vector of Z_2^4
        psi = simon_subroutine(ref_instance, QCounter())
        for y in (1 << 4, -1, vec(2, "101"), vec(2, "1000")):
            with pytest.raises(ParameterError, match="not a packed vector of Z_2\\^4"):
                shrink_subgroup(psi, y)
        psi = simon_subroutine(make_instance(3, 2, 1, 0), QCounter())
        for y in (0b0100, 0b0011):  # a carry bit, a lane at p
            with pytest.raises(ParameterError, match="not a packed vector of Z_3\\^2"):
                shrink_subgroup(psi, y)


class TestExactAmplify:
    def test_two_dim_instance(self):
        secret = span(2, 2, [vec(2, "11")])
        inst = HiddenInstance(2, 2, 1, secret, label_seed=3)
        counter = QCounter()
        y, state = exact_amplify(inst, simon_subroutine(inst, QCounter()), counter)
        perp = orthogonal(secret)
        nonzero = [v for v in elements(perp) if any(v.coords)]
        assert y == pack(nonzero[0])
        assert counter.oracle_calls == 3
        bad = max(
            (abs(a) for b, a in basis_amps(state).items() if b[0] == 0 or b[-1] != 1),
            default=0.0,
        )
        assert bad < 1e-9

    @pytest.mark.parametrize("p,n,k", [(2, 3, 1), (3, 3, 1), (2, 4, 2), (3, 4, 2)])
    def test_returns_fresh_independent_element(self, p, n, k):
        for seed in range(4):
            inst = make_instance(p, n, k, subgroup_seed=seed, label_seed=seed)
            perp = orthogonal(inst.secret)
            shrunk = simon_subroutine(inst, QCounter())
            found = []
            for _ in range(n - k):
                counter = QCounter()
                y, _ = exact_amplify(inst, shrunk, counter)
                assert counter.oracle_calls == 3
                assert perp.contains(unpack(p, n, y))
                assert not span(p, n, found).contains(unpack(p, n, y))
                found.append(unpack(p, n, y))
                shrunk = shrink_subgroup(shrunk, y)

    def test_parameter_errors(self, ref_instance):
        simon = simon_subroutine(ref_instance, QCounter())
        full = shrink_subgroup(shrink_subgroup(simon, pack(vec(2, "0111"))), pack(vec(2, "1000")))
        with pytest.raises(ParameterError):
            exact_amplify(ref_instance, full, QCounter())  # m = n-k
        other = simon_subroutine(make_instance(2, 3, 1, 0), QCounter())
        with pytest.raises(ParameterError):
            exact_amplify(ref_instance, other, QCounter())  # a Simon state of another space
        for p, n, k in ((2, 4, 1), (3, 4, 1), (2, 5, 2)):
            # shrunk twice by one y: m counts a flag that shrinks nothing, so the amplification misses
            inst = make_instance(p, n, k, 0)
            simon = simon_subroutine(inst, QCounter())
            y, _ = exact_amplify(inst, simon, QCounter())
            twice = shrink_subgroup(shrink_subgroup(simon, y), y)
            with pytest.raises(ArithmeticError, match="bad-outcome amplitude"):
                exact_amplify(inst, twice, QCounter())


def assert_round_matches_reference(inst, known):
    fast, slow = QCounter(), QCounter()
    shrunk = simon_subroutine(inst, QCounter())
    for row in reversed(span(inst.p, inst.n, known).basis):  # descending pivot: each flag goes first
        shrunk = shrink_subgroup(shrunk, row)
    y, state = exact_amplify(inst, shrunk, fast)
    expect = reference_round(inst, known, slow)
    assert state.dims == expect.dims
    got = dict(zip(state.keys.tolist(), state.amps.tolist()))
    want = dict(zip(expect.keys.tolist(), expect.amps.tolist()))
    assert got.keys() == want.keys(), (inst.p, inst.n, inst.k, len(known))
    assert max(abs(got[i] - amp) for i, amp in want.items()) < 1e-12, (inst.p, inst.n, inst.k, len(known))
    assert fast.oracle_calls == slow.oracle_calls == 3
    return unpack(inst.p, inst.n, y)


class TestReferenceRound:
    """``exact_amplify``'s one-overlap reflection against the explicit circuit with A^-1."""

    # (2,8,1) reaches 6 flag registers and (5,4,1) has a p=5 aux with three empty levels
    @pytest.mark.parametrize("p,n,k", QGRID + QGRID_LARGE + [(2, 8, 1), (5, 4, 1)])
    def test_every_round_of_acceptance_cell(self, p, n, k):
        seed = n * 10 + k
        inst = make_instance(p, n, k, seed, seed ^ 0x9E3779B9, bool(seed % 2))
        found = []
        for _ in range(n - k):
            found.append(assert_round_matches_reference(inst, found))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def test_drawn_instances_and_known_counts(self, data):
        p, n = data.draw(st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (5, 2), (5, 3)]))
        k = data.draw(st.integers(1, n - 1))
        seeds = data.draw(st.tuples(*[st.integers(0, 2**32)] * 3))
        inst = make_instance(p, n, k, seeds[0], seeds[1], data.draw(st.booleans()))
        m = data.draw(st.integers(0, n - k - 1))
        rng, perp, known = random.Random(seeds[2]), elements(orthogonal(inst.secret)), []
        while len(known) < m:  # m independent elements of S_perp
            v = rng.choice(perp)
            if not span(p, n, known).contains(v):
                known.append(v)
        assert_round_matches_reference(inst, known)


def full_state_solve(inst):
    """The solve on the whole Simon state, every label branch at once: the found elements and the last round's state."""
    shrunk, found = simon_subroutine(inst, QCounter()), []
    for _ in range(inst.n - inst.k):
        if found:
            shrunk = shrink_subgroup(shrunk, found[-1])
        y, state = exact_amplify(inst, shrunk, QCounter())
        found.append(y)
    return found, state


class TestLabelBranch:
    """``quantum_find_s`` runs on the Simon state's label branch of f(0); the full state is its reference."""

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_branch_is_oracle_output_slice(self, p, n):
        # psi_0 is the label-f(0) slice of the oracle's output on the uniform superposition, renormalised
        for k in range(1, n):
            for obfuscate in (False, True):
                inst = make_instance(p, n, k, k, 3 * k, obfuscate)
                table = qsim._label_index_table(inst)[1]
                out = apply_oracle(fourier(zero_state(p, (p**n, p**n)), MAIN, inverse=True), inst, QCounter())
                zero_label = index(label_of(inst, vec(p, "0" * n)))
                mask = out.digit(LABEL) == zero_label
                want = dict(zip(out.keys[mask].tolist(), (out.amps[mask] * math.sqrt(p ** (n - k))).tolist()))
                branch = qsim._label_branch(inst, table)
                got = dict(zip(branch.keys.tolist(), branch.amps.tolist()))
                assert got.keys() == want.keys() and len(got) == p**k, (p, n, k)
                assert max(abs(got[i] - a) for i, a in want.items()) < 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def test_expanded_final_state_matches_full_state(self, data):
        p, n = data.draw(st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]))
        k = data.draw(st.integers(1, n - 1))
        seeds = data.draw(st.tuples(*[st.integers(0, 2**32)] * 2))
        inst = make_instance(p, n, k, seeds[0], seeds[1], data.draw(st.booleans()))
        found, expect = full_state_solve(inst)
        res, state = quantum_find_s(inst, return_final_state=True)
        assert res.recovered == orthogonal(span(p, n, [unpack(p, n, y) for y in found])) == inst.secret
        assert state.dims == expect.dims
        got = dict(zip(state.keys.tolist(), state.amps.tolist()))
        want = dict(zip(expect.keys.tolist(), expect.amps.tolist()))
        assert got.keys() == want.keys(), (p, n, k)
        assert max(abs(got[i] - a) for i, a in want.items()) < 1e-12, (p, n, k)

    def test_branch_of_wrong_size_refused(self):
        # a label of 0 shared by p^(k+1) elements is no coset of a rank-k subgroup
        inst = make_instance(2, 4, 2, 0)
        table = np.zeros(16, dtype=np.int64)
        with pytest.raises(PromiseViolationError, match="16 elements share the label of 0, promised p\\^k = 4"):
            qsim._label_branch(inst, table)


@dataclass(frozen=True)
class _OutOfSpaceInstance(HiddenInstance):
    """An honest oracle whose every label has the bits of ``extra`` set as well."""

    extra: int = 0

    def evaluate(self, x):
        return super().evaluate(x) | self.extra


@dataclass(frozen=True)
class _FloatLabelInstance(HiddenInstance):
    """An honest oracle whose every label is a float, its packed vector plus a half."""

    def evaluate(self, x):
        return super().evaluate(x) + 0.5


@pytest.mark.parametrize(
    "p,n,k,extra",
    [
        (2, 6, 2, 1 << 6),  # a bit past the n lanes
        (3, 4, 2, 1 << 12),  # a bit past the n lanes of w = 3 bits
        (3, 4, 2, 3),  # a bottom lane equal to p
        (3, 4, 2, 4),  # the bottom lane's carry bit
        (3, 4, 2, 1 << 70),  # a label past int64
        (3, 4, 2, None),  # a float label, which an int64 conversion would truncate to a valid one
    ],
)
def test_labels_outside_the_space_refused(p, n, k, extra):
    # the label register holds Z_p^n only: the simulator refuses such a table before any gate,
    # while the classical solvers accept labels from any set
    honest = make_instance(p, n, k, 1, 2, True)
    fields = (p, n, k, honest.secret, honest.label_seed, honest.obfuscate)
    inst = _FloatLabelInstance(*fields) if extra is None else _OutOfSpaceInstance(*fields, extra)
    with pytest.raises(PromiseViolationError, match="not a packed vector of Z_p\\^n"):
        quantum_find_s(inst)
    with pytest.raises(PromiseViolationError, match="not a packed vector of Z_p\\^n"):
        simon_subroutine(inst, QCounter())
    if extra is None or extra >> n * lanes(p, n).width:  # still one label per coset
        assert brute_force_solve(QueryLog(inst)).recovered == honest.secret


class TestQuantumFindS:
    def test_reference_fixture(self, ref_instance, ref_secret):
        counter = QCounter()
        res = quantum_find_s(ref_instance, counter)
        assert res.recovered == ref_secret
        assert res.queries == counter.oracle_calls == 6  # 3 per round, n-k rounds
        assert res.trace == ()  # no query log: the simulator's calls are not classical queries

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
    def test_agreement_with_brute_force(self, p, n):
        for k in range(1, n):
            for seed in range(3):
                inst = make_instance(p, n, k, seed, seed, obfuscate=bool(seed % 2))
                truth = brute_force_solve(QueryLog(inst)).recovered
                res = quantum_find_s(inst)
                assert res.recovered == truth
                assert res.queries == 3 * (n - k)

    @pytest.mark.parametrize("p,n,k", [(2, 5, 2), (3, 4, 1)])
    def test_simon_state_prepared_once_per_solve(self, p, n, k, monkeypatch):
        # one label branch per solve, read off the table with no apply_oracle:
        # neither rebuilt every round nor kept from an earlier solve
        branches, oracles, label_branch = [], [], qsim._label_branch

        def counting_branch(*args):
            branches.append(1)
            return label_branch(*args)

        def counting_oracle(*args):
            oracles.append(1)
            return apply_oracle(*args)

        monkeypatch.setattr(qsim, "_label_branch", counting_branch)
        monkeypatch.setattr(qsim, "apply_oracle", counting_oracle)
        for _ in range(2):
            inst = make_instance(p, n, k, 5, 7, True)  # equal instances, so a cache would hit
            counter = QCounter()
            branches.clear()
            res = quantum_find_s(inst, counter)
            assert len(branches) == 1 and not oracles
            assert res.recovered == inst.secret
            assert res.queries == counter.oracle_calls == 3 * (n - k)

    def test_label_table_frees_earlier_instances(self):
        # the table cache holds the last solve's instance only, so a finished one can be freed
        first = make_instance(2, 6, 2, 1, 1, True)
        ref = weakref.ref(first)
        quantum_find_s(first)
        quantum_find_s(make_instance(2, 6, 2, 2, 2, True))
        del first
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 5, 1), (3, 5, 2), (3, 4, 3)])
    def test_one_shrink_per_round(self, p, n, k, monkeypatch):
        # the shrunk state is carried across rounds: n-k-1 shrinks, not (n-k)(n-k-1)/2
        shrinks = []

        def counting_shrink(*args):
            shrinks.append(args[1])
            return shrink_subgroup(*args)

        monkeypatch.setattr(qsim, "shrink_subgroup", counting_shrink)
        for seed in range(3):
            inst = make_instance(p, n, k, seed, seed, bool(seed % 2))
            counter = QCounter()
            shrinks.clear()
            res = quantum_find_s(inst, counter)
            assert len(shrinks) == n - k - 1
            assert res.recovered == inst.secret
            assert res.queries == counter.oracle_calls == 3 * (n - k)

    @pytest.mark.parametrize("p,n,k", QGRID)
    def test_each_round_prepends_its_rref_row(self, p, n, k, monkeypatch):
        # why one shrink per round suffices: each round's element, scaled to 1 at its
        # leading column, goes in front of the earlier RREF basis, which stays unchanged
        found = []

        def recording_amplify(*args):
            y, state = exact_amplify(*args)
            found.append(unpack(p, n, y))
            return y, state

        monkeypatch.setattr(qsim, "exact_amplify", recording_amplify)
        inst = make_instance(p, n, k, 0, 0x9E3779B9, True)
        assert quantum_find_s(inst).recovered == inst.secret
        assert len(found) == n - k
        basis = []
        for m, y in enumerate(found, 1):
            lead = next(c for c in y.coords if c)
            new = rows(span(p, n, found[:m]))
            assert new == [scale(y, pow(lead, -1, p))] + basis, (p, n, k, m)
            basis = new

    def test_cap(self):
        # the label table's enumeration cap is the simulator's only refusal, made before any call
        for p, n, k in ((2, 21, 2), (3, 13, 2), (1031, 2, 1)):
            counter = QCounter()
            with pytest.raises(ResourceCapError, match="exceeds enumeration cap 1048576"):
                quantum_find_s(make_instance(p, n, k, 0), counter)
            assert counter.oracle_calls == 0

    @pytest.mark.parametrize("obfuscate", [False, True])
    def test_past_the_former_simulation_cap(self, obfuscate):
        # p^n = 2^18, past the former 2^16 simulation cap and within the enumeration cap
        n, k = 18, 2
        inst = make_instance(2, n, k, 3, 4, obfuscate)
        counter = QCounter()
        res = quantum_find_s(inst, counter)
        assert res.recovered == inst.secret
        assert res.queries == counter.oracle_calls == 3 * (n - k)

    @pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 3, 1)])
    def test_shared_counter_reports_each_solve(self, p, n, k):
        # queries are the calls one solve adds, not the counter's running total
        inst = make_instance(p, n, k, 0)
        counter = QCounter()
        for _ in range(2):
            res = quantum_find_s(inst, counter)
            assert res.queries == res.bound == 3 * (n - k)
        assert counter.oracle_calls == 6 * (n - k)

    def test_fewer_calls_than_classical_at_crossover(self):
        # 3 calls per round beats the sqrt-scale classical count from n=8 up
        # (at n=5 the classical solver still wins: 8-11 queries vs 12 calls)
        from gsp import QueryLog, choose_d, find_s

        small = make_instance(2, 5, 1, subgroup_seed=0, label_seed=0)
        q5 = quantum_find_s(small).queries
        c5 = find_s(QueryLog(small), choose_d(2, 5, 1)).queries
        print(f"\nquantum vs classical, p=2 k=1: n=5: {q5} vs {c5}", end="")
        for seed in range(3):
            inst = make_instance(2, 8, 1, subgroup_seed=seed, label_seed=seed)
            q = quantum_find_s(inst).queries
            c = find_s(QueryLog(inst), choose_d(2, 8, 1)).queries
            print(f"; n=8 seed {seed}: {q} vs {c}", end="")
            assert q < c
        print()


def test_dump_state_format():
    state = fourier(zero_state(2, (4, 4)), 0)
    text = dump_state_text(state)
    lines = text.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        idx, re_part, im_part = line.split()
        int(idx)
        float(re_part)
        float(im_part)


def _golden_states():
    """(p, n, k, obfuscate, calls, {index: amplitude}) per block of the file."""
    blocks = []
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            fields = dict(tok.split("=") for tok in line[1:].split())
            blocks.append(([int(fields[f]) for f in ("p", "n", "k", "obfuscate", "calls")], {}))
        else:
            idx, re_part, im_part = line.split()
            blocks[-1][1][int(idx)] = complex(float(re_part), float(im_part))
    return blocks


def test_final_states_match_golden_file():
    # final pre-measurement states of every QGRID cell of the acceptance
    # suite at subgroup seed 0 (label seed 0 ^ 0x9E3779B9), both label modes
    blocks = _golden_states()
    assert len(blocks) == 40
    for (p, n, k, obfuscate, calls), expect in blocks:
        inst = make_instance(p, n, k, 0, 0x9E3779B9, bool(obfuscate))
        res, state = quantum_find_s(inst, return_final_state=True)
        assert res.recovered == inst.secret and res.queries == calls
        got = {}
        for line in dump_state_text(state).splitlines():
            idx, re_part, im_part = line.split()
            got[int(idx)] = complex(float(re_part), float(im_part))
        assert got.keys() == expect.keys(), (p, n, k, obfuscate)
        assert max(abs(got[i] - a) for i, a in expect.items()) < 1e-12
