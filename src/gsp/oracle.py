"""Hidden-subgroup instances and the query-counting oracle around them.

An instance is a secret subgroup S of Z_p^n plus the labeling function
f(x) = canonical coset representative of x, optionally pushed through a
seeded bijection of Z_p^n so that solvers cannot read S off the label
structure.  Labels live in Z_p^n (not an abstract finite set) so that the
quantum oracle |g>|y> -> |g>|f(g)+y> can add them group-wise.

f(x) = f(y) holds exactly when x - y is in S, for both label modes.

Queries and labels are packed ints in the lane layout of
``gsp.algebra.lanes(p, n)``, and ``QueryLog``'s cache maps one to the other.

Both modes compile to one affine map over F_p, f(x) = L x + s.  Coset reduction by the
secret's RREF basis (``Subgroup.coset_reduce``) is linear and the bijection is affine (the
identity with zero shift in plain mode), so L is the bijection's matrix times the reduction's,
whose column j is the representative of e_j (e_j minus the secret's row with pivot j, if any).
``HiddenInstance._affine`` builds L's columns as packed ints in lane arithmetic, once per
instance, and ``_label_map`` turns them into byte tables by doubling lists of labels (at p = 2 a list
indexed by the byte, for p > 2 a dict).  ``evaluate`` reads a packed x byte by byte: table j maps byte
j of x to L times the part of x in that byte, packed, and a label is the packed s plus one lookup and
one lane-wise add mod p per byte (``Lanes.add`` inlined; XOR at p = 2).  Only valid packed vectors
(``Lanes.valid``) have labels; any other int raises.  ``all_labels`` applies the same tables to all of
Z_p^n at once, one int64 gather per table, and ``QueryLog.query_all`` fills a query cache from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import getitem, xor

import numpy as np

from .algebra import (
    DEFAULT_ENUMERATION_CAP, Subgroup, _check_ints, _check_problem, _draws, _independent_rows, lanes,
    random_subgroup,
)
from .errors import DimensionMismatchError, ParameterError, ResourceCapError

_INSTANCE_HEADER = "gsp-instance v1"

def _space(p: int, n: int) -> np.ndarray:
    """Every packed vector of Z_p^n in index order, one int64 array, for p^n up to the enumeration cap."""
    if p**n > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"p^n = {p**n} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    return lanes(p, n).from_index(np.arange(p**n, dtype=np.int64))


@dataclass(frozen=True)
class HiddenInstance:
    """The problem instance: parameters, the secret S, and the label rule."""

    p: int
    n: int
    k: int
    secret: Subgroup
    label_seed: int = 0
    obfuscate: bool = False

    def __post_init__(self) -> None:
        _check_problem(self.p, self.n, self.k)
        if self.secret.p != self.p or self.secret.n != self.n:
            raise DimensionMismatchError("secret does not live over (p, n)")
        if self.secret.rank != self.k:
            raise ParameterError(f"secret has rank {self.secret.rank}, expected k={self.k}")
        _check_ints(label_seed=self.label_seed)  # as a float or bool, no file of it would read back
        if not (0 <= self.label_seed < 1 << 64):
            raise ParameterError(f"label_seed must lie in [0, 2^64), got {self.label_seed}")
        if not isinstance(self.obfuscate, int) or self.obfuscate not in (0, 1):  # its file holds 0 or 1
            raise ParameterError(f"obfuscate must be a bool, 0 or 1, got {self.obfuscate!r}")

    @cached_property
    def _bijection(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Seeded invertible affine map (matrix, shift), with a seeded output permutation folded in."""
        rng = random.Random(self.label_seed)
        rows, shift = _independent_rows(rng, self.p, self.n, self.n), _draws(rng, self.p, self.n)
        perm = list(range(self.n))
        rng.shuffle(perm)
        return tuple(rows[i] for i in perm), tuple(shift[i] for i in perm)

    @cached_property
    def _affine(self) -> tuple[list[int], tuple[int, ...]]:
        """(columns of L packed in ``lanes(p, n)``, s) of f(x) = L x + s.  L = M R, M the bijection's
        matrix (the identity in plain mode), R's column j the coset representative of e_j: a non-pivot
        column of L is M's, and the secret row with pivot j (0 at the other pivots) gives column j =
        M(e_j - row) = -sum of row[t] times M's column t over non-pivot t, in lane arithmetic."""
        lay, secret = lanes(self.p, self.n), self.secret
        if self.obfuscate:
            rows, shift = self._bijection
            if self.p == 2:  # column j of the 0/1 rows, read as a base-2 numeral, is its packed int
                flat = b"".join(map(bytes, rows)).translate(bytes.maketrans(b"\0\1", b"01"))
                cols = [int(flat[j :: self.n], 2) for j in range(self.n)]
            else:
                cols = [lay.pack(c) for c in zip(*rows)]
        else:
            cols, shift = [1 << at for at in lay.shifts], (0,) * self.n
        pivots, mask = secret.pivots(), (1 << lay.width) - 1
        free = [(t, lay.shifts[t]) for t in range(self.n) if t not in pivots]
        for j, row in zip(pivots, secret.basis):
            terms = (cols[t] if c == 1 else lay.scale(c, cols[t]) for t, at in free if (c := row >> at & mask))
            cols[j] = lay.sub(0, reduce(lay.add, terms, 0))
        return cols, shift

    @cached_property
    def _label_map(self) -> tuple[list, int, int, int, int, int]:
        """(tables, packed s, byte length, K, G, g of ``Lanes.add``).  Table j maps byte j of
        ``x.to_bytes(byte length, "little")`` to L times the bits of x in that byte, packed.
        Its labels are a list doubled per value bit of the byte: at p = 2, bit q of x is bit q % 8
        of byte q // 8, so the byte indexes it; for p > 2 a dict holds them under keys doubled
        alike.  Carry bits and bits past the n lanes have no entry (⌈n/8⌉ tables at p = 2)."""
        lay, (cols, shift) = lanes(self.p, self.n), self._affine
        add, w, nbytes = lay.add, lay.width, (self.n * lay.width + 7) // 8
        keys, labels = [[0] for _ in range(nbytes)], [[0] for _ in range(nbytes)]
        for lane, weight in enumerate(reversed(cols)):  # the last coordinate is the bottom lane
            if self.p == 2:  # the lane is one value bit, bit q = lane of x
                labels[lane // 8] += [v ^ weight for v in labels[lane // 8]]
                continue
            for q in range(lane * w, lane * w + lay.g):  # weight: L times bit q of x
                bit, ks, vs = 1 << q % 8, keys[q // 8], labels[q // 8]
                ks += [k | bit for k in ks]
                vs += [add(v, weight) for v in vs]
                weight = add(weight, weight)
        tables = labels if self.p == 2 else [dict(zip(*kv)) for kv in zip(keys, labels)]
        return tables, lay.pack(shift), nbytes, lay.big_k, lay.big_g, lay.g

    def all_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Every packed x of Z_p^n in index order, and its label, as int64 arrays: ``evaluate``'s rule
        with one gather per byte table over the bytes xs >> 8j & 255 of all xs at once.  A subclass
        that overrides ``evaluate`` is asked for each element instead, in index order, and its labels,
        which need not fit int64, come as an object array."""
        xs, lay = _space(self.p, self.n), lanes(self.p, self.n)
        if type(self).evaluate is not HiddenInstance.evaluate:
            return xs, np.fromiter(map(self.evaluate, xs.tolist()), object, len(xs))
        tables, labels = self._label_map[0], np.full_like(xs, self._label_map[1])
        for j, table in enumerate(tables):
            gather = np.array(table, np.int64) if self.p == 2 else np.zeros(256, np.int64)
            if self.p > 2:
                gather[list(table)] = list(table.values())
            labels = lay.add(labels, gather[xs >> 8 * j & 255])
        return xs, labels

    def evaluate(self, x: int) -> int:
        """The label f(x) = L x + s of a packed x, packed; constant exactly on cosets of the secret.
        x must be a valid packed vector of Z_p^n: a set carry bit, a lane at or above p or a bit
        past the n lanes raises ``KeyError`` or ``OverflowError``, never a label."""
        (tables, label, nbytes, big_k, big_g, g), p = self._label_map, self.p
        if p == 2:  # lanes of one bit add by XOR; a bit past the n lanes indexes past its table
            try:
                return reduce(xor, map(getitem, tables, x.to_bytes(nbytes, "little")), label)
            except IndexError:
                raise KeyError(x) from None
        if (x | x + big_k) & big_g:  # as in ``Lanes.valid``: a lane in [p, 2^g) has table entries
            raise KeyError(x)
        for table, byte in zip(tables, x.to_bytes(nbytes, "little")):
            label += table[byte]
            label -= (((label + big_k) & big_g) >> g) * p
        return label


def make_instance(
    p: int,
    n: int,
    k: int,
    subgroup_seed: int,
    label_seed: int = 0,
    obfuscate: bool = False,
) -> HiddenInstance:
    """Instance with a seeded random secret; deterministic in all seeds."""
    _check_problem(p, n, k)  # before the draw, which would take k = 0 or n
    secret = random_subgroup(p, n, k, subgroup_seed)
    return HiddenInstance(p, n, k, secret, label_seed, obfuscate)


@dataclass
class QueryLog:
    """Caching wrapper around an instance that records what a solver asked.

    The query count is the number of distinct queried elements: asking for
    a label again returns the cached answer and costs nothing.  ``cache``
    maps packed elements to packed labels in the order they were first asked.
    """

    instance: HiddenInstance
    cache: dict[int, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.cache)

    def query(self, x: int) -> int:
        label = self.cache.get(x)
        if label is None:
            label = self.cache[x] = self.instance.evaluate(x)
        return label

    def query_all(self) -> None:
        """Ask every element of Z_p^n in index order, with its label from ``all_labels``; cached
        elements keep their place and label.  A subclass that overrides ``evaluate`` is asked for the
        cached elements too, but neither the cache nor the count changes for them."""
        setdefault = self.cache.setdefault
        for x, label in zip(*(array.tolist() for array in self.instance.all_labels())):
            setdefault(x, label)


def instance_to_text(inst: HiddenInstance) -> str:
    lines = [
        _INSTANCE_HEADER,
        f"p={inst.p}",
        f"n={inst.n}",
        f"k={inst.k}",
        f"secret={inst.secret.to_text()}",
        f"label_seed={inst.label_seed}",
        f"obfuscate={1 if inst.obfuscate else 0}",
    ]
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> HiddenInstance:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _INSTANCE_HEADER:
        raise ParameterError(f"missing '{_INSTANCE_HEADER}' header")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value
    try:
        p = int(fields["p"])
        n = int(fields["n"])
        k = int(fields["k"])
        secret = Subgroup.from_text(fields["secret"])
        label_seed = int(fields["label_seed"])
        obfuscate = int(fields["obfuscate"])  # HiddenInstance refuses all but 0 and 1
    except KeyError as exc:
        raise ParameterError(f"instance file missing field {exc}") from exc
    except ValueError as exc:  # int() of a non-integer field
        raise ParameterError(f"bad instance field: {exc}") from exc
    return HiddenInstance(p, n, k, secret, label_seed, obfuscate)


def write_instance(inst: HiddenInstance, path: str) -> None:
    text = instance_to_text(inst)  # before the open, so a refusal leaves the file as it was
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_instance(path: str) -> HiddenInstance:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"instance file {path} is not ASCII: {exc}") from exc
    return instance_from_text(text)
