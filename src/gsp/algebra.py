"""Exact linear algebra over Z_p^n.

A vector is one packed int (``lanes(p, n)``) from the oracle to the answer, subgroup
rows included: coordinate 0 in the top lane, so int order is tuple order, and
lane-wise sums and differences mod p take a few whole-int operations (SWAR, SIMD
within a register); at p = 2 lanes are one bit, so they are one XOR, and a packed
vector is its own index.  The same layout keeps an incremental row echelon
(``Lanes.insert``), which answers rank questions and, back-substituted, gives every
RREF (``_span``); ``Subgroup.coset_reps`` reduces many vectors at once; the simulator
runs ``add`` and ``sub`` on int64 arrays.  ``VectorP``, a validated tuple of
residues, is the text boundary: parsing, printing, traces and ``Subgroup.contains``.

``_rref_bases`` yields, per pivot pattern, each RREF row's candidates, and the
pattern's bases are their product.  ``Lanes.residue`` reduces by any RREF rows, so
witness searches test basis after basis with no set-up and no ``Subgroup`` per
basis, and verify-bounds counts a pattern's bases from its rows' lengths.

Subgroups are kept in reduced row echelon form (RREF) over F_p, which makes
equality of subgroups a plain ``==`` on their bases and gives every
subgroup a unique textual serialization.  All arithmetic is exact integer
arithmetic; p must be a prime below 2**16 and n at most 64.

Validation happens at the boundary.  The public constructors
(``VectorP(p, coords)``, ``Subgroup(p, n, basis)``, ``from_digits``,
``Subgroup.from_text``), ``canonicalize`` and the public functions that take a
bare p and n check everything they are given; a packed row must pass
``Lanes.valid``.  Values computed from already valid ones (RREF rows,
enumerated subgroups, coset representatives, lane arithmetic) are valid by
construction and are built through the unchecked private constructors
``VectorP._unchecked`` and ``Subgroup._unchecked``, which take Python ints
only.  ``Subgroup.coset_reduce`` checks its packed vector with ``Lanes.valid``.

Everything in this module is a pure function on immutable values and is
safe to share across threads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import lshift, xor
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ParameterError, ResourceCapError

MAX_PRIME = 1 << 16
MAX_DIM = 64

#: Largest p**n accepted by the subgroup/element enumerators by default.
DEFAULT_ENUMERATION_CAP = 1 << 20

#: Vectors ``Subgroup.coset_reps`` reduces per array product for p > 2, to bound its memory.
_REPS_CHUNK = 1 << 12

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

# The unchecked constructors set fields as a frozen dataclass does; writing
# to the instance ``__dict__`` instead would cost 64 bytes more per object.
_new, _set = object.__new__, object.__setattr__


@lru_cache(maxsize=None, typed=True)
def is_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_ints(**values: object) -> None:
    """Refuse any value that is not an int; a bool is not one."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an int, got {value!r}")


def _check_digits(p: int) -> None:
    if p > len(_DIGITS):
        raise ParameterError(f"digit serialization supports p <= {len(_DIGITS)}")


def _check_space(p: int, n: int) -> None:
    if not isinstance(p, int) or not isinstance(n, int):  # a numpy p or n would be cached in lanes' shifts
        raise ParameterError(f"p and n must be Python ints, got {type(p).__name__} and {type(n).__name__}")
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ParameterError(f"p must be a prime in [2, {MAX_PRIME}), got {p}")
    if not (0 <= n <= MAX_DIM):
        raise ParameterError(f"n must be in [0, {MAX_DIM}], got {n}")


@dataclass(frozen=True)
class VectorP:
    """An element of Z_p^n: a tuple of residues mod a prime p."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        _check_space(self.p, len(coords))
        if any(c < 0 or c >= self.p for c in coords):
            raise ParameterError(f"coordinates must lie in [0, {self.p}), got {coords}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _unchecked(cls, p: int, coords: tuple[int, ...]) -> "VectorP":
        """A vector built without checks: p a valid prime, coords Python ints in [0, p)."""
        v = _new(cls)
        _set(v, "p", p)
        _set(v, "coords", coords)
        return v

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def from_index(cls, p: int, n: int, idx: int) -> "VectorP":
        """The vector of rank idx in lexicographic order (base p, most significant coordinate first)."""
        _check_space(p, n)
        idx = int(idx)
        if not 0 <= idx < p**n:
            raise ParameterError(f"index {idx} is outside [0, {p}^{n})")
        coords = [0] * n
        for i in range(n - 1, -1, -1):
            idx, coords[i] = divmod(idx, p)
        return cls._unchecked(p, tuple(coords))

    def pack(self, p: int, n: int) -> int:
        """This vector as a packed int of ``lanes(p, n)``, the space it must live in."""
        if self.p != p or self.n != n:
            raise DimensionMismatchError(f"vector {self} does not live over (p, n) = ({p}, {n})")
        return lanes(p, n).pack(self.coords)

    def digits(self) -> str:
        """Base-p digit string, most significant coordinate first."""
        _check_digits(self.p)
        return "".join(_DIGITS[c] for c in self.coords)

    @classmethod
    def from_digits(cls, p: int, text: str) -> "VectorP":
        try:
            coords = tuple(_DIGITS.index(ch) for ch in text)
        except ValueError as exc:
            raise ParameterError(f"bad digit string {text!r}") from exc
        return cls(p, coords)

    def __str__(self) -> str:
        # residues past the digit alphabet, so an error message never fails
        return self.digits() if self.p <= len(_DIGITS) else str(self.coords)


class Lanes:
    """Z_p^n as packed ints: coordinate i in the w-bit lane at bit ``shifts[i]`` = (n-1-i)*w.

    A lane holds g = (p-1).bit_length() value bits.  For p > 2, w = g+1 and a carry
    bit G = 2^g sits above them: a lane of s = x + y lies below 2p <= 2^w, adding
    K = 2^g - p sets G exactly where it reached p, and s - (((s + K) & G) >> g) * p
    takes p off; x - y is x + (P - y), P = p in every lane, with lanes in [1, 2p).
    At p = 2, w = g = 1 (no carry bit, so a packed vector is its own base-2 index)
    and both are XOR.  c*x is double-and-add over ``add``.  An
    echelon is a dict {pivot column: row}, each row 1 at its pivot and 0 left of
    it; the leading coordinate is read off ``bit_length``, since coordinate 0 is
    the top lane.  Lanes lie in [0, p).  The operations are closures, so hot loops
    make no attribute lookups (a loop that inlines ``add`` reads K, G, g)."""

    def __init__(self, p: int, n: int) -> None:
        _check_space(p, n)
        g = (p - 1).bit_length()
        w = g + (p > 2)
        self.p, self.n, self.width, ones, top = p, n, w, sum(1 << (w * i) for i in range(n)), 1 << (w * n)
        big_k, big_g, big_p, mask = ((1 << g) - p) * ones, ((1 << w) - (1 << g)) * ones, p * ones, (1 << w) - 1
        self.g, self.big_k, self.big_g = g, big_k, big_g
        self.shifts = shifts = tuple(w * (n - 1 - i) for i in range(n))

        def add(x: int, y: int) -> int:
            s = x + y
            return s - (((s + big_k) & big_g) >> g) * p

        def sub(x: int, y: int) -> int:
            s = x + big_p - y
            return s - (((s + big_k) & big_g) >> g) * p

        add, sub = (xor, xor) if p == 2 else (add, sub)

        def scale(c: int, x: int) -> int:
            total = 0
            while c:
                if c & 1:
                    total = add(total, x)
                c, x = c >> 1, add(x, x)
            return total

        def insert(echelon: dict[int, int], x: int) -> bool:
            """Reduce x to 0 (False: in the span) or to a new pivot, where it joins scaled to 1 (True)."""
            while x:
                lane = (x.bit_length() - 1) // w
                lead, c = n - 1 - lane, x >> (w * lane)
                row = echelon.get(lead)
                if row is None:
                    echelon[lead] = x if c == 1 else scale(pow(c, -1, p), x)
                    return True
                x = sub(x, row if c == 1 else scale(c, row))
            return False

        def residue(pivots: Iterable[int], rows: Iterable[int], x: int) -> int:
            """x minus, per RREF row, x's coordinate at the row's pivot times the row: x's coset
            representative modulo the rows' span, 0 exactly when x is in it.  A row is 1 at its
            own pivot and 0 at the others, so the coordinates are read off x itself."""
            r = x
            for pivot, row in zip(pivots, rows):
                if c := x >> shifts[pivot] & mask:
                    r = sub(r, row if c == 1 else scale(c, row))
            return r

        def reduced(echelon: dict[int, int]) -> list[int]:
            """The echelon's span as RREF rows, pivots ascending: back-substitution, last pivot first."""
            done: dict[int, int] = {}
            for pivot in sorted(echelon, reverse=True):
                done[pivot] = residue(done, done.values(), echelon[pivot])
            return sorted(done.values(), reverse=True)

        def valid(x: int) -> bool:
            """Whether x is a packed vector: an int, no bit past the n lanes, no carry bit, lanes below p."""
            return isinstance(x, int) and 0 <= x < top and not (x | x + big_k) & big_g

        def pack(coords: Iterable[int]) -> int:
            return sum(map(lshift, coords, shifts))

        def unpack(x: int) -> tuple[int, ...]:
            return tuple(map(mask.__and__, map(x.__rshift__, shifts)))

        self.add, self.sub, self.scale, self.insert, self.reduced = add, sub, scale, insert, reduced
        self.residue, self.valid, self.pack, self.unpack = residue, valid, pack, unpack

    def from_index(self, idx: int | np.ndarray) -> int | np.ndarray:
        """Base-p indices, ints or int64 arrays, as packed vectors one digit at a time (coordinate 0 on top)."""
        if self.p == 2:  # a packed vector is its own index
            return idx
        packed = 0 * idx
        for shift in reversed(self.shifts):  # the last coordinate is the bottom lane
            packed |= idx % self.p << shift
            idx = idx // self.p
        return packed

    def to_index(self, packed: int | np.ndarray) -> int | np.ndarray:
        """The base-p indices of packed vectors: ``from_index`` inverted, one lane at a time."""
        if self.p == 2:
            return packed
        idx = 0 * packed
        for shift in self.shifts:
            idx = idx * self.p + (packed >> shift & (1 << self.width) - 1)
        return idx

    def digits(self, xs: Sequence[int]) -> np.ndarray:
        """The (len(xs), n) int64 coordinates of packed vectors: each lane shifted and masked out of
        a uint64 word when n*w <= 64 (below 2^w, so the uint64 result is viewed as int64), else
        read off the big-endian bits of the vectors' bytes."""
        n, w, size = self.n, self.width, (self.n * self.width + 7) // 8
        if n * w <= 64:
            words = np.fromiter(xs, np.uint64, len(xs))[:, None] >> np.array(self.shifts, np.uint64)
            return (words & np.uint64((1 << w) - 1)).view(np.int64)
        raw = np.frombuffer(b"".join(x.to_bytes(size, "big") for x in xs), np.uint8).reshape(len(xs), size)
        bits = np.unpackbits(raw, axis=1)[:, 8 * size - n * w :].reshape(len(xs), n, w)
        return bits @ (1 << np.arange(w - 1, -1, -1, dtype=np.int64))


#: The lane layout of Z_p^n, built once per (p, n); typed, so an equal key of another type cannot share it.
lanes = lru_cache(maxsize=None, typed=True)(Lanes)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of Z_p^n held as its unique RREF basis, packed rows in ``lanes(p, n)``.

    Equal subgroups have identical bases, so ``==`` and ``hash`` are
    span equality.  The empty basis is the trivial subgroup {0^n}.
    """

    p: int
    n: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if basis != canonicalize(self.p, self.n, basis).basis:
            raise ParameterError("basis is not in reduced row echelon form")

    @classmethod
    def _unchecked(cls, p: int, n: int, basis: tuple[int, ...]) -> "Subgroup":
        """A subgroup built without checks: (p, n) valid, basis packed RREF rows over (p, n)."""
        h = _new(cls)
        _set(h, "p", p)
        _set(h, "n", n)
        _set(h, "basis", basis)
        return h

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        # an RREF row is zero up to its pivot, which is 1, so the pivot lane is the row's top lane
        n, w = self.n, lanes(self.p, self.n).width
        return tuple(n - 1 - (row.bit_length() - 1) // w for row in self.basis)

    def elements(self) -> Iterator[int]:
        """Every element of the span, packed, ordered by coefficient tuples."""
        lay = lanes(self.p, self.n)
        for coeffs in itertools.product(range(self.p), repeat=self.rank):
            yield reduce(lay.add, map(lay.scale, coeffs, self.basis), 0)

    def contains(self, x: VectorP) -> bool:
        return not self.coset_reduce(x.pack(self.p, self.n))

    def coset_reduce(self, x: int) -> int:
        """Canonical representative of the coset x + self: the unique member whose coordinates at
        every pivot column are zero (``Lanes.residue``).  x must pass ``Lanes.valid``, else
        ``ParameterError``.  ``coset_reps`` takes the same sum off many vectors at once."""
        if not (lay := lanes(self.p, self.n)).valid(x):
            raise ParameterError(f"{x!r} is not a packed vector of Z_{self.p}^{self.n}")
        return lay.residue(self.pivots(), self.basis, x)

    def coset_reps(self, xs: Iterable[int]) -> list[int]:
        """``[self.coset_reduce(x) for x in xs]``.  At p = 2 a packed vector is its own index, below
        2^n <= 2^64, so the xs fill one uint64 array, and each row times the xs' pivot bits is XORed
        off all of them at once.  For p > 2, per ``_REPS_CHUNK`` xs, one integer product (sums below
        n*p^2 < 2^38) gives the columns off the pivots, where representatives are 0, and one more
        with their lanes' units packs them (in int64 if n*w < 64, else as ints)."""
        p, lay = self.p, lanes(self.p, self.n)
        if p > 2:
            pivots, reps, xs = list(self.pivots()), [], list(xs)
            free = [j for j in range(self.n) if j not in pivots]
            kind, rows = np.int64 if self.n * lay.width < 64 else object, lay.digits(self.basis)[:, free]
            units = np.array([1 << lay.shifts[j] for j in free], kind)
            for start in range(0, len(xs), _REPS_CHUNK):
                digits = lay.digits(xs[start : start + _REPS_CHUNK])
                off_pivots = (digits[:, free] - digits[:, pivots] @ rows) % p
                reps += (off_pivots.astype(kind, copy=False) @ units).tolist()
            return reps
        reps, one = np.fromiter(xs, np.uint64), np.uint64(1)
        for row in self.basis:
            reps ^= (reps >> np.uint64(row.bit_length() - 1) & one) * np.uint64(row)
        return reps.tolist()

    def to_text(self) -> str:
        """``p=<p> n=<n> rows=<row;row;...>`` with rows as base-p digit strings."""
        _check_digits(self.p)
        return str(self)

    @classmethod
    def from_text(cls, text: str) -> "Subgroup":
        try:
            p_part, n_part, rows_part = text.strip().split(" ", 2)
            p = int(p_part.removeprefix("p="))
            n = int(n_part.removeprefix("n="))
            body = rows_part.removeprefix("rows=")
        except (ValueError, IndexError) as exc:
            raise ParameterError(f"bad subgroup serialization {text!r}") from exc
        rows = [VectorP.from_digits(p, tok) for tok in body.split(";") if tok]
        for row in rows:
            if row.n != n:
                raise ParameterError(f"row {row} does not have n={n} coordinates")
        return canonicalize(p, n, [row.pack(p, n) for row in rows])

    def __str__(self) -> str:
        p, unpack = self.p, lanes(self.p, self.n).unpack
        rows = ";".join(str(VectorP._unchecked(p, unpack(row))) for row in self.basis)
        return f"p={p} n={self.n} rows={rows}"


def trivial_subgroup(p: int, n: int) -> Subgroup:
    _check_space(p, n)
    return Subgroup._unchecked(p, n, ())


def _span(p: int, n: int, rows: Iterable[int]) -> Subgroup:
    """The subgroup generated by packed rows, lanes in [0, p), over a valid (p, n): their
    echelon by ``Lanes.insert``, back-substituted to RREF by ``Lanes.reduced``."""
    lay, echelon = lanes(p, n), {}
    for row in rows:
        lay.insert(echelon, row)
    return Subgroup._unchecked(p, n, tuple(lay.reduced(echelon)))


def canonicalize(p: int, n: int, rows: Iterable[int]) -> Subgroup:
    """The subgroup generated by packed ``rows``, in canonical RREF form."""
    rows, valid = list(rows), lanes(p, n).valid  # lanes checks p and n
    for row in rows:
        if not valid(row):
            raise ParameterError(f"generator {row!r} is not a packed vector of Z_{p}^{n}")
    return _span(p, n, rows)


def complement(h: Subgroup) -> Subgroup:
    """A direct complement of H: standard basis vectors at H's non-pivot columns."""
    pivots, shifts = set(h.pivots()), lanes(h.p, h.n).shifts
    return Subgroup._unchecked(h.p, h.n, tuple(1 << shifts[j] for j in range(h.n) if j not in pivots))


def orthogonal(h: Subgroup) -> Subgroup:
    """The orthogonal subgroup {g : g·h = 0 for all h in H}, read off H's RREF basis:
    one generator per non-pivot column f, 1 at f, -row[f] at each row's pivot, 0 elsewhere."""
    p, n, lay = h.p, h.n, lanes(h.p, h.n)
    row_at = dict(zip(h.pivots(), map(lay.unpack, h.basis)))
    free = (f for f in range(n) if f not in row_at)
    gens = ([-row_at[j][f] % p if j in row_at else int(j == f) for j in range(n)] for f in free)
    return _span(p, n, map(lay.pack, gens))


def _check_rank(p: int, n: int, k: int) -> None:
    _check_space(p, n)
    _check_ints(k=k)
    if not (0 <= k <= n):
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")


def _check_problem(p: int, n: int, k: int) -> None:
    """Refuse unless p is a prime and 1 <= k < n, all ints: a problem's (p, n, k), n not capped at ``MAX_DIM``."""
    _check_ints(p=p, n=n, k=k)
    if not is_prime(p):
        raise ParameterError(f"p must be a prime, got {p}")
    if not (1 <= k < n):
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")


def _rref_bases(p: int, n: int, k: int, cap: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """(pivots, rows) per pivot pattern of the rank-k RREF bases of Z_p^n, pivot combinations in
    lexicographic order: rows[i] holds row i's packed candidates, 1 at pivots[i] and any entries
    at the free columns right of it.  The free entries of different rows are independent, so the
    pattern's bases are ``itertools.product(*rows)``.  A row's candidates are built by doubling
    over its free columns, left to right, so the last free entry runs fastest."""
    _check_rank(p, n, k)
    if p**n > cap:
        raise ResourceCapError(f"p^n = {p**n} exceeds enumeration cap {cap}")
    shifts = lanes(p, n).shifts
    steps = [[v << shift for v in range(p)] for shift in shifts]  # steps[c]: column c's p entries, packed
    for pivots in itertools.combinations(range(n), k):
        rows = []
        for pivot in pivots:
            row = [1 << shifts[pivot]]
            for col in range(pivot + 1, n):
                if col not in pivots:
                    row = [r + step for r in row for step in steps[col]]
            rows.append(row)
        yield pivots, rows


def enumerate_subgroups(p: int, n: int, k: int) -> Iterator[Subgroup]:
    """Every rank-k subgroup of Z_p^n exactly once: RREF bases generated directly, pivot columns
    first, then every assignment of the free entries (``_rref_bases``).  Uniqueness of the RREF
    makes the stream duplicate-free.  p^n past ``DEFAULT_ENUMERATION_CAP`` raises ``ResourceCapError``."""
    patterns = _rref_bases(p, n, k, DEFAULT_ENUMERATION_CAP)
    return (Subgroup._unchecked(p, n, basis) for _, rows in patterns for basis in itertools.product(*rows))


def _randbelow(rng: random.Random, p: int) -> Callable[[], int]:
    """A draw in [0, p) that consumes ``rng`` as ``rng.randrange(p)`` does on CPython 3.10-3.12:
    ``getrandbits(p.bit_length())`` until the value is below p, without its argument checks."""
    getrandbits, bits = rng.getrandbits, p.bit_length()
    def draw() -> int:
        while (r := getrandbits(bits)) >= p:
            pass
        return r
    return draw


def _independent_rows(rng: random.Random, p: int, n: int, count: int) -> list[tuple[int, ...]]:
    """``count`` linearly independent rows of Z_p^n, rejection-sampled from ``rng``:
    a draw is kept when ``Lanes.insert`` finds it outside the span of those kept."""
    lay, echelon, rows, draw = lanes(p, n), {}, [], _randbelow(rng, p)
    while len(rows) < count:
        cand = tuple(draw() for _ in range(n))
        if lay.insert(echelon, lay.pack(cand)):
            rows.append(cand)
    return rows


def random_subgroup(p: int, n: int, k: int, seed: int) -> Subgroup:
    """A uniformly random rank-k subgroup, deterministic in ``seed``.

    Rejection-samples k linearly independent vectors; every rank-k subgroup
    has the same number of ordered bases, so the draw is uniform.
    """
    _check_rank(p, n, k)
    _check_ints(seed=seed)
    if seed < 0:  # random.Random(-s) seeds like Random(s)
        raise ParameterError(f"subgroup seed must be non-negative, got {seed}")
    return _span(p, n, map(lanes(p, n).pack, _independent_rows(random.Random(seed), p, n, k)))
