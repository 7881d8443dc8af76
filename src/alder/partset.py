"""Part sets behind Alder-type partition inequalities.

Every set handled here is a union of congruence classes with finitely
many values removed:

    {x >= 1 : x mod m in R} \\ E,      R a set of residues, E finite.

Three families matter downstream:

* the comparison targets T(s, d) with x == 1, d+2, d+4, ..., d+2^(s-1)
  (mod 2d), used as the codomain of the injection arguments,
* the shifted sets S(d, N) with x == +-1 (mod d-N+3) minus the single
  value d-N+2, whose partitions realize Q_{d-N}^(1,-),
* the +-a (mod d+3) sets behind the Q-style counters (see counting).

Indices are 1-based throughout: ``element(1)`` is the smallest member,
matching the subscript convention x_1 < x_2 < ... of the literature.
Closed forms for the i-th elements of S(d, N) and T(5, d) are provided
as a fast path and are cross-checked against plain enumeration in the
test suite.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class RefusedInput(ValueError):
    """Input the program refuses: a parameter outside its domain, a set or
    cell that cannot be built, or a size over a cap.  The command line
    reports it as a usage error."""


def check_n(n: int) -> None:
    """Refuse a negative weight n: every count and every cell starts at n = 0."""
    if n < 0:
        raise RefusedInput(f"n must be >= 0, got {n}")


class ResidueClassSet:
    """The infinite set {x >= 1 : x mod modulus in residues} minus exclusions.

    Immutable; two sets are equal, and hash alike, when their ``key()`` is."""

    __slots__ = ("_modulus", "_residues", "_exclusions", "_key")
    modulus = property(lambda self: self._modulus)
    residues = property(lambda self: self._residues)
    exclusions = property(lambda self: self._exclusions)

    def __init__(self, modulus: int, residues: Iterable[int],
                 exclusions: Iterable[int] = ()):
        residues = frozenset(residues)
        exclusions = frozenset(exclusions)
        if modulus < 1:
            raise RefusedInput(f"modulus must be >= 1, got {modulus}")
        if not residues:
            raise RefusedInput("residue set must be nonempty")
        for r in residues:
            if not 0 <= r < modulus:
                raise RefusedInput(f"residue {r} outside [0, {modulus})")
        for e in exclusions:
            if e < 1:
                raise RefusedInput(f"exclusion {e} is not a positive integer")
            if e % modulus not in residues:
                raise RefusedInput(f"exclusion {e} is not a member of the set")
        self._modulus, self._residues, self._exclusions = modulus, residues, exclusions
        rs = ",".join(str(r) for r in sorted(residues))
        es = ",".join(str(e) for e in sorted(exclusions))
        self._key = f"m{modulus}.r{rs}.x{es}" if es else f"m{modulus}.r{rs}"

    def __eq__(self, other) -> bool:
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"ResidueClassSet(modulus={self._modulus!r}, residues={self._residues!r}, "
                f"exclusions={self._exclusions!r})")

    def __contains__(self, x: int) -> bool:
        return x >= 1 and x % self._modulus in self._residues and x not in self._exclusions

    def elements(self) -> Iterator[int]:
        """Yield the members in increasing order, forever."""
        ordered = sorted(self._residues)
        k = 0
        while True:
            for r in ordered:
                v = k * self._modulus + r
                if v >= 1 and v not in self._exclusions:
                    yield v
            k += 1

    def element(self, i: int) -> int:
        """The i-th smallest member (i >= 1)."""
        if i < 1:
            raise RefusedInput(f"index must be >= 1, got {i}")
        for count, v in enumerate(self.elements(), start=1):
            if count == i:
                return v
        raise AssertionError("unreachable: the set is infinite")

    def elements_upto(self, limit: int) -> list[int]:
        """All members <= limit, increasing."""
        out = []
        for v in self.elements():
            if v > limit:
                break
            out.append(v)
        return out

    def key(self) -> str:
        """Canonical text key, used for cache file naming."""
        return self._key


def r_of(d: int) -> int:
    """Largest r with 2^r - 1 <= d (so r = bit length of d+1, minus one)."""
    if d < 1:
        raise RefusedInput(f"d must be >= 1, got {d}")
    return (d + 1).bit_length() - 1


def t_set(s: int, d: int) -> ResidueClassSet:
    """The set T(s, d): x == 1, d+2, d+4, ..., d+2^(s-1) (mod 2d).

    Valid whenever the listed residues are distinct in [0, 2d), which
    holds exactly when s = 1 or d + 2^(s-1) < 2d; in particular for all
    s <= r_of(d).  A colliding residue list signals the caller has left
    that regime, so it is rejected rather than deduplicated.
    """
    if s < 1 or d < 1:
        raise RefusedInput(f"need s >= 1 and d >= 1, got s={s}, d={d}")
    if s >= 2 and d + 2 ** (s - 1) >= 2 * d:
        raise RefusedInput(
            f"t_set(s={s}, d={d}): residues collide modulo {2 * d} "
            f"(requires s <= r_of(d) = {r_of(d)})")
    residues = {1} | {d + 2 ** j for j in range(1, s)}
    return ResidueClassSet(2 * d, residues)


def s_set(d: int, N: int) -> ResidueClassSet:
    """The set S(d, N): x == +-1 (mod d-N+3), minus the value d-N+2."""
    m = d - N + 3
    if m < 3:
        raise RefusedInput(f"modulus d-N+3 = {m} < 3")
    return ResidueClassSet(m, {1, m - 1}, {m - 1})


def shift_regime(d: int, N: int) -> bool:
    """The (d, N) range of the shift inequality: N >= 2, d >= max(63, 46N-79).

    The grid statement adds n >= d+2, the small-n anchors nothing, and the
    injection n >= 7d+14.
    """
    return N >= 2 and d >= max(63, 46 * N - 79)


def pm_set(a: int, modulus: int, exclusions: Iterable[int] = ()) -> ResidueClassSet:
    """The set {x >= 1 : x == +-a (mod modulus)} minus exclusions.

    When a == modulus - a the two residues coincide and the set is a
    single congruence class.
    """
    return ResidueClassSet(modulus, {a % modulus, (modulus - a) % modulus}, exclusions)


def positive_integers() -> ResidueClassSet:
    """All of 1, 2, 3, ... as a residue class set (modulus 1, residue 0)."""
    return ResidueClassSet(1, {0})


def x_closed(d: int, N: int, i: int) -> int:
    """Closed form for the i-th smallest element of s_set(d, N).

    x_1 = 1, x_2 = d-N+4, and x_i = ceil(i/2)*(d-N+3) + (-1)^i for i >= 3.
    """
    if i < 1:
        raise RefusedInput(f"index must be >= 1, got {i}")
    m = d - N + 3
    if m < 3:
        raise RefusedInput(f"x_closed(d={d}, N={N}): modulus {m} < 3")
    if i == 1:
        return 1
    if i == 2:
        return d - N + 4
    return (i + 1) // 2 * m + (1 if i % 2 == 0 else -1)


def y_closed(d: int, i: int) -> int:
    """Closed form for the i-th smallest element of t_set(5, d).

    Requires r_of(d) >= 5 (d >= 31) so that the five residue columns
    1, d+2, d+4, d+8, d+16 interleave in increasing order; the elements
    then repeat with period y_{i+5} = y_i + 2d.
    """
    if i < 1:
        raise RefusedInput(f"index must be >= 1, got {i}")
    if r_of(d) < 5:
        raise RefusedInput(f"y_closed: need r_of(d) >= 5, got d={d} (r={r_of(d)})")
    j, k = divmod(i - 1, 5)
    if k == 0:
        return 2 * j * d + 1
    return (2 * j + 1) * d + 2 ** k
