"""Sparse state-vector simulation of the exact quantum solver.

The register file is: a main register of dimension p^n, a label register of
dimension p^n (labels live in Z_p^n, so the oracle is a basis permutation),
one flag qudit of dimension p per subgroup-shrinking step, by ascending
pivot of its row, and one auxiliary qudit for the exact amplitude
amplification, in that order.  A state is two flat arrays: int64
mixed-radix basis keys (main register most significant) and their
complex128 amplitudes.  Every gate is a unitary on one register (the Fourier
transforms) or a key permutation (the oracle, the shrink step) by ``Lanes``
sums on int64 arrays of packed vectors; ``Lanes.from_index`` and ``to_index``
convert a state's basis values to packed vectors and back, digit by digit
(both are the identity at p = 2).  The aux rotation is a product factor, and
the amplification's reflections only change signs and amplitudes on fixed
keys.  Entries below 1e-12 are pruned after each unitary and after the
reflections, and the norm is asserted there, never corrected, so unitarity
bugs cannot hide behind renormalization.

The Fourier transform on a register of dimension p^m uses the kernel
omega^(g.h) with omega = exp(2*pi*i/p) and g.h the dot product of the base-p
digit vectors.  The kernel factors over the digits, so the transform is the
p-point transform applied to each of the m digits in turn: on the rows x p^m
block of a state that costs O(rows * p^m * m * p) instead of the
O(rows * p^2m) of a dense matrix, and no matrix larger than p x p is built.

One solver round starts from the shrunk state, a uniform superposition
over the subgroup of still-unknown orthogonal-subgroup elements; the known
success probability a = 1 - p^-(n-k-m) is then boosted to exactly 1 by
amplitude amplification run on a deliberately deflated target.  Since
a >= 1 - 1/p >= 1/2, one iteration always suffices: an auxiliary-qudit
rotation scales the success probability down to sin^2(pi/6) = 1/4, and the
one iteration lands the good-subspace amplitude on 1 up to double-precision
error.  The iteration is the circuit A S_0 A^-1 S_chi, where A prepares the
round's state psi = A|0>, S_chi negates the good outcomes and S_0 negates
|0>.  Since A S_0 A^-1 = I - 2|psi><psi| and amplification never leaves the
plane of psi's good and bad parts (Brassard, Hoyer, Mosca, Tapp,
quant-ph/0005055, section 2), the simulator runs the round on three class
factors of the shrunk state's amplitudes (aux 0; aux 1 with main = 0; aux 1
with main != 0), takes one overlap with psi and never runs A^-1.  Each round
counts the circuit's calls, one for its A and two for the iteration's A^-1
and A, so a round costs exactly 3 oracle calls and a solve 3(n-k).  Reading
any surviving main-register basis value therefore yields a fresh independent
element with certainty, and n-k rounds recover the orthogonal subgroup,
hence the secret.

No gate acts on the label register after the oracle, so measuring it there
leaves the distribution of every later outcome unchanged (deferred
measurement, Nielsen & Chuang section 4.4).  ``quantum_find_s`` therefore
simulates one branch of the Simon state: psi_0, the branch of label f(0),
uniform over the p^k elements labelled f(0) (the coset S itself), read off
the label table, Fourier-transformed on the main register.  The shrinks and
the class factors are the same on every branch up to a phase and a flag
shift, so psi_0 also gives every round's element, and the full state, where
it is asked for, is the sum over one t per label of
omega^(t.h) psi_0(h, flags - (t.r_i)_i, aux) (x) |f(t)>, over sqrt(p^(n-k)).
The branch depends only on the instance, so it is prepared once per solve,
and the shrunk state (it after one shrink per element found so far) is
carried across rounds: n-k-1 shrinks a solve.  Each element lies in a support
that is zero at every earlier pivot, so its RREF row goes in front of the
earlier rows.  Only the label table, the answer check against it, the one
row of psi_0's Fourier transform and, where asked for, the rebuilt full state
are larger than the branch; a round's arrays hold at most p^(n-k) keys.
A key fits int64: the label table keeps p^n within the enumeration cap 2^20,
so the main and label registers, at most n-k-1 flags and the aux qudit
span at most p^(3n-k) <= 2^60 basis states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import canonicalize, lanes, orthogonal
from .errors import ParameterError, PromiseViolationError
from .oracle import HiddenInstance, _space
from .solvers import SolverResult, _check_labels

PRUNE_EPS = 1e-12
NORM_EPS = 1e-9
BAD_AMPLITUDE_EPS = 1e-9

#: Fixed register positions; flags follow the label, the aux qudit is last.
MAIN, LABEL = 0, 1


@dataclass
class SparseState:
    """Amplitudes ``amps[i]`` of the mixed-radix basis keys ``keys[i]``.

    ``dims`` are the register dimensions, each a power of ``p``, most
    significant first; a key is unique within a state.  The constructor
    checks p, dims, the keys' dtype, shape, range and uniqueness and the amplitudes'
    length; gate outputs, valid by construction, are built by ``_unchecked``.
    """

    p: int
    dims: tuple[int, ...]
    keys: np.ndarray
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ParameterError(f"p must be at least 2, got {self.p}")
        for dim in self.dims:
            if dim < self.p or self.p ** round(math.log(dim, self.p)) != dim:
                raise ParameterError(f"register dimension {dim} is not a positive power of p={self.p}")
        if self.keys.ndim != 1:
            raise ParameterError(f"keys must be one-dimensional, got shape {self.keys.shape}")
        if not np.issubdtype(self.keys.dtype, np.signedinteger):  # uint64 arithmetic with int64 gives floats
            raise ParameterError(f"keys must be signed integers, got dtype {self.keys.dtype}")
        if self.amps.shape != self.keys.shape:
            raise ParameterError(f"{len(self.keys)} keys but amplitudes of shape {self.amps.shape}")
        if len(self.keys) and not (0 <= int(self.keys.min()) and int(self.keys.max()) < math.prod(self.dims)):
            raise ParameterError(f"keys must lie in [0, {math.prod(self.dims)})")
        if not np.diff(np.sort(self.keys)).all():
            raise ParameterError("keys must not repeat")

    @classmethod
    def _unchecked(cls, p: int, dims: tuple[int, ...], keys: np.ndarray, amps: np.ndarray) -> "SparseState":
        """A gate's output, built without checks: valid by construction from a valid state."""
        state = object.__new__(cls)
        state.p, state.dims, state.keys, state.amps = p, dims, keys, amps
        return state

    def stride(self, reg: int) -> int:
        return math.prod(self.dims[reg + 1 :])

    def digit(self, reg: int) -> np.ndarray:
        """The basis value of one register, per key."""
        return self.keys // self.stride(reg) % self.dims[reg]

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass
class QCounter:
    """Oracle calls of the circuit.

    ``apply_oracle`` counts its one call.  ``quantum_find_s`` reads its
    label branch off the label table and checks its answer against it with
    ``solvers._check_labels``, with no counted call, and each round of
    ``exact_amplify`` counts the circuit's calls in full: the one in its A,
    plus the two that its one amplification iteration's A^-1 and A would make.
    """

    oracle_calls: int = 0


def _assert_normalized(state: SparseState) -> None:
    drift = abs(state.norm_sq() - 1.0)
    if drift > NORM_EPS:
        raise ArithmeticError(f"state norm drifted by {drift:.3e}")


def _unitary(state: SparseState, reg: int, mat: np.ndarray) -> SparseState:
    """Primitive: the p x p ``mat`` on each base-p digit of one register, then prune and check the norm."""
    p, dim, stride = state.p, state.dims[reg], state.stride(reg)
    digit = state.digit(reg)
    rest, row = np.unique(state.keys - digit * stride, return_inverse=True)
    block = np.zeros((len(rest), dim), dtype=complex)
    block[row, digit] = state.amps
    for _ in range(round(math.log(dim, p))):  # transform the last digit and rotate it to the front
        block = (mat @ block.reshape(len(rest), -1, p).transpose(0, 2, 1)).reshape(block.shape)
    keep = np.abs(block) >= PRUNE_EPS
    keys = (rest[:, None] + np.arange(dim, dtype=np.int64) * stride)[keep]
    result = SparseState._unchecked(p, state.dims, keys, block[keep])
    _assert_normalized(result)
    return result


def _permute(state: SparseState, reg: int, values: np.ndarray) -> SparseState:
    """Primitive: set one register to ``values``, a bijection of the keys."""
    keys = state.keys + (values - state.digit(reg)) * state.stride(reg)
    return SparseState._unchecked(state.p, state.dims, keys, state.amps)


@lru_cache(maxsize=None)
def _fourier_matrix(p: int, inverse: bool) -> np.ndarray:
    """The p-point transform omega^(+-g*h)/sqrt(p), applied to each digit of a register."""
    roots = np.exp((-2j if inverse else 2j) * np.pi * np.arange(p) / p)
    mat = roots[np.outer(np.arange(p), np.arange(p)) % p] / math.sqrt(p)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=1)  # one solve's table; a larger cache would keep every instance alive
def _label_index_table(inst: HiddenInstance) -> tuple[np.ndarray, np.ndarray]:
    """Every packed element in index order and its packed label, one ``evaluate`` call per element;
    ``PromiseViolationError`` unless every label is a packed vector of Z_p^n, checked all at once:
    a float, ``None`` or an int past int64 among the labels gives the table a dtype other than int64."""
    lay, everything = lanes(inst.p, inst.n), _space(inst.p, inst.n)
    table = np.array(list(map(inst.evaluate, everything.tolist())))
    if table.dtype != np.int64 or ((table | table + lay.big_k) & lay.big_g | table >> inst.n * lay.width).any():
        raise PromiseViolationError("a label is not a packed vector of Z_p^n")  # as ``Lanes.valid``
    everything.setflags(write=False)
    table.setflags(write=False)
    return everything, table


def fourier(state: SparseState, reg: int, inverse: bool = False) -> SparseState:
    """Fourier transform (kernel omega^(g.h)) on one register."""
    if not (0 <= reg < len(state.dims)):
        raise ParameterError(f"register index {reg} out of range")
    return _unitary(state, reg, _fourier_matrix(state.p, inverse))


def apply_oracle(state: SparseState, inst: HiddenInstance, counter: QCounter) -> SparseState:
    """|g>|y> -> |g>|y + f(g)>; one oracle call."""
    p, n = inst.p, inst.n
    if state.p != p or state.dims[:2] != (p**n, p**n):
        raise ParameterError(f"state dims {state.dims} do not fit p={p} n={n}")
    lay, labels = lanes(p, n), _label_index_table(inst)[1][state.digit(MAIN)]
    counter.oracle_calls += 1
    return _permute(state, LABEL, lay.to_index(lay.add(lay.from_index(state.digit(LABEL)), labels)))


def shrink_subgroup(state: SparseState, y: int) -> SparseState:
    """Insert a flag qudit at register ``LABEL + 1`` and collapse the main-register
    support group H to {h in H : h_j = 0}, j the leading column of y.

    y is a packed vector of Z_p^n, n read off the main register.  Takes y's RREF
    row and its pivot j from ``canonicalize``, writes the main value's j-th
    coordinate into the flag, subtracts that multiple of the row from the main
    register, then inverse-Fouriers the flag so the branch of label f(t)
    carries the basis state |t.row>, 0 on the branch of f(0).  Runs alike on
    the full Simon state and on one label branch; every conversion between
    basis values and packed vectors acts on the state's keys only.  Makes no
    oracle queries.
    """
    p, n = state.p, round(math.log(state.dims[MAIN], state.p))
    line, lay = canonicalize(p, n, [y]), lanes(p, n)
    if line.rank == 0:
        raise ParameterError("cannot shrink by the zero vector")
    (row,), (j,) = line.basis, line.pivots()
    main = lay.from_index(state.digit(MAIN))
    coefficient = main >> lay.shifts[j] & (1 << lay.width) - 1  # j-th coordinate, off its lane
    row_multiples = np.array([lay.scale(c, row) for c in range(p)], dtype=np.int64)
    tail = state.stride(LABEL)
    keys = state.keys // tail * (tail * p) + coefficient * tail + state.keys % tail
    widened = SparseState._unchecked(p, state.dims[: LABEL + 1] + (p,) + state.dims[LABEL + 1 :], keys, state.amps)
    shifted = _permute(widened, MAIN, lay.to_index(lay.sub(main, row_multiples[coefficient])))
    return fourier(shifted, LABEL + 1, inverse=True)


def exact_amplify(inst: HiddenInstance, shrunk: SparseState, counter: QCounter) -> tuple[int, SparseState]:
    """One solver round: a certain fresh element of S_perp, packed, and the round's final state.

    ``shrunk`` is the Simon state (Fourier, oracle, Fourier from |0>|0>), or
    its renormalised label branch of f(0) as ``quantum_find_s`` runs it, after ``shrink_subgroup``
    by each of the m elements found so far, the state the round's A starts
    from; m is its number of flag registers.  Every label branch has the same
    good mass, so the class factors are the same on each, and a branch gives
    the same element and its own slice of the full round.  The round reads it
    and counts its oracle call, so the counter gains the circuit's 3 calls:
    its A's and the one iteration's A^-1 and A.  The success probability
    a = 1 - p^-(n-k-m) is known, so the amplification is calibrated to
    finish with the good-subspace amplitude exactly 1 and the measured
    element is read off the support.  psi = A|0> is ``shrunk`` times the aux
    qudit's cos(phi)|0> + sin(phi)|1>, as aux values 2..p-1 carry nothing, so
    psi and the iterate are ``shrunk.amps`` times one factor per class: aux 0;
    aux 1 with main = 0; aux 1 with main != 0, the good outcomes.
    """
    p, n, k = inst.p, inst.n, inst.k
    m = len(shrunk.dims) - 2
    if shrunk.p != p or shrunk.dims != (p**n, p**n) + (p,) * m:
        raise ParameterError(f"shrunk state dims {shrunk.dims} do not fit p={p} n={n}")
    if m >= n - k:
        raise ParameterError(f"already hold {m} elements; only n-k-1={n-k-1} rounds allowed")

    a = 1.0 - float(p) ** -(n - k - m)
    phi = math.asin(0.5 / math.sqrt(a))  # a sin^2(phi) = sin^2(pi/6): the one iteration turns pi/6 to 3pi/6
    counter.oracle_calls += 3  # the oracle in A, and the A^-1 and A that I - 2|psi><psi| replaces

    good = shrunk.digit(MAIN) != 0
    mass = float(np.linalg.norm(shrunk.amps[good]) ** 2)
    overlap = 1.0 - 2.0 * math.sin(phi) ** 2 * mass  # <psi|S_chi|psi>
    # S_chi, then I - 2|psi><psi|, on psi's factors: aux 0; aux 1 with main = 0; aux 1 with main != 0
    amps = np.outer(shrunk.amps, [(1 - 2 * overlap) * math.cos(phi), (1 - 2 * overlap) * math.sin(phi)])
    amps[good, 1] = shrunk.amps[good] * (-(1 + 2 * overlap) * math.sin(phi))
    keep = np.abs(amps) >= PRUNE_EPS
    state = SparseState._unchecked(p, shrunk.dims + (p,), (shrunk.keys[:, None] * p + np.arange(2))[keep], amps[keep])
    _assert_normalized(state)

    bad = max(np.abs(amps[:, 0]).max(initial=0.0), np.abs(amps[~good, 1]).max(initial=0.0))
    if bad > BAD_AMPLITUDE_EPS:
        raise ArithmeticError(f"bad-outcome amplitude {bad:.3e} after amplification")

    mains = state.digit(MAIN)
    return lanes(p, n).from_index(int(mains[mains != 0].min())), state


def _label_branch(inst: HiddenInstance, table: np.ndarray) -> SparseState:
    """psi_0, the Simon state's branch of label f(0) before its last Fourier transform, renormalised:
    amplitude p^(-k/2) on each element labelled f(0), with the label register at f(0).  Read off
    the label table, with no oracle call.  Raises ``PromiseViolationError`` unless there are p^k."""
    p, n, k = inst.p, inst.n, inst.k
    mains = np.flatnonzero(table == table[0])
    if len(mains) != p**k:
        raise PromiseViolationError(f"{len(mains)} elements share the label of 0, promised p^k = {p**k}")
    keys = mains * p**n + lanes(p, n).to_index(int(table[0]))
    return SparseState._unchecked(p, (p**n, p**n), keys, np.full(len(mains), p ** (-k / 2), dtype=complex))


def _all_branches(branch: SparseState, labels: np.ndarray, reps: np.ndarray, rows: tuple[int, ...]) -> SparseState:
    """The full state sum_t psi_t (x) |f(t)> / sqrt(p^(n-k)) from ``branch``, psi_0 at the label of f(0).

    t runs over ``reps``, the smallest element of each of the distinct ``labels``, and psi_t(h, flags, aux) is
    omega^(t.h) psi_0(h, flags - (t.r_i)_i, aux), r_i the RREF row of flag i (``rows``, the
    latest flag first): the branch of f(t) is psi_0 times omega^(t.h) before the shrinks, and
    each shrink by r_i puts t.r_i in its flag."""
    p, n = branch.p, round(math.log(branch.dims[MAIN], branch.p))
    lay, t = lanes(p, n), np.stack(np.unravel_index(reps, (p,) * n), axis=-1)  # base-p digits, top first
    phase = t @ np.stack(np.unravel_index(branch.digit(MAIN), (p,) * n)) % p
    keys = branch.keys + (lay.to_index(labels)[:, None] - branch.digit(LABEL)) * branch.stride(LABEL)
    for reg, row in enumerate(rows, LABEL + 1):
        flag, shift = branch.digit(reg), t @ np.array(lay.unpack(row), dtype=np.int64)
        keys += ((flag + shift[:, None]) % p - flag) * branch.stride(reg)
    amps = np.exp(2j * np.pi * np.arange(p) / p)[phase] * (branch.amps / math.sqrt(len(labels)))
    return SparseState._unchecked(p, branch.dims, keys.ravel(), amps.ravel())


def quantum_find_s(
    inst: HiddenInstance,
    counter: QCounter | None = None,
    return_final_state: bool = False,
):
    """Recover the secret exactly with n-k amplified rounds on the Simon state's label branch of
    f(0), shrunk by each round's element, for p^n up to ``DEFAULT_ENUMERATION_CAP``: past it the
    label table raises ``ResourceCapError``, before any gate or counted call.

    The result's queries are the oracle calls this solve added to ``counter``; its bound is the
    module docstring's 3(n-k).  The branch and the answer check read the label table, which
    belongs to the simulator: they make no ``evaluate`` call past the table's one per element and
    add no call to ``counter``, so queries stay 3(n-k).  The answer goes through the classical
    solvers' ``_check_labels`` with the table's packed elements of Z_p^n and labels: it must have rank
    k, and two elements must share a label exactly when they share a coset of it, else
    ``PromiseViolationError``; so does a branch of other than p^k elements.  With
    ``return_final_state``, the full final state is rebuilt from the branch's."""
    p, n, k = inst.p, inst.n, inst.k
    counter = counter if counter is not None else QCounter()
    calls_before = counter.oracle_calls
    everything, table = _label_index_table(inst)
    shrunk = fourier(_label_branch(inst, table), MAIN)
    found: list[int] = []
    for _ in range(n - k):
        if found:
            state = None  # only the last round's state is returned; free this one before the shrink
            shrunk = shrink_subgroup(shrunk, found[-1])
        y, state = exact_amplify(inst, shrunk, counter)
        found.append(y)
    recovered = orthogonal(canonicalize(p, n, found))
    _check_labels(recovered, k, everything.tolist(), table.tolist())
    result = SolverResult(recovered, counter.oracle_calls - calls_before, 3 * (n - k), None)
    if not return_final_state:
        return result
    labels, reps = np.unique(table, return_index=True)
    return result, _all_branches(state, labels, reps, canonicalize(p, n, found[:-1]).basis)


def dump_state_text(state: SparseState) -> str:
    """One ``index re im`` line per surviving amplitude, mixed-radix index."""
    order = np.argsort(state.keys, kind="stable")
    return "".join(
        f"{idx} {amp.real:.17g} {amp.imag:.17g}\n"
        for idx, amp in zip(state.keys[order].tolist(), state.amps[order].tolist())
    )
