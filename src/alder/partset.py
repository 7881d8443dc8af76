"""Part sets behind Alder-type partition inequalities.

Every set handled here is a union of congruence classes with finitely
many values removed:

    {x >= 1 : x mod m in R} \\ E,      R a set of residues, E finite.

A part set is known by the name of its rho table (``counting``, which
also holds the set families), and a ``ResidueClassSet`` is made only
from such a name, to build its table or to walk its elements.  Indices
are 1-based throughout: x_1 < x_2 < ... are the elements of S(d, N) and
y_1 < y_2 < ... those of T(5, d), matching the subscript convention of
the literature.  Their closed forms here are the injection's fast path
and are cross-checked against plain enumeration in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Iterable


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

    Immutable; made from a table name by ``counting.part_set``."""

    __slots__ = ("_modulus", "_residues", "_exclusions")
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

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(modulus={self._modulus!r}, "
                f"residues={self._residues!r}, exclusions={self._exclusions!r})")

    def elements_upto(self, limit: int) -> list[int]:
        """All members <= limit, increasing: the one enumeration of the set."""
        m = self._modulus
        merged = sorted(itertools.chain.from_iterable(
            range(r or m, limit + 1, m) for r in self._residues))
        return [v for v in merged if v not in self._exclusions]


def r_of(d: int) -> int:
    """Largest r with 2^r - 1 <= d (so r = bit length of d+1, minus one)."""
    if d < 1:
        raise RefusedInput(f"d must be >= 1, got {d}")
    return (d + 1).bit_length() - 1


def shift_regime(d: int, N: int) -> bool:
    """The (d, N) range of the shift inequality: N >= 2, d >= max(63, 46N-79).

    The grid statement adds n >= d+2, the small-n anchors nothing, and the
    injection n >= 7d+14.
    """
    return N >= 2 and d >= max(63, 46 * N - 79)


def x_closed(d: int, N: int, i: int) -> int:
    """Closed form for the i-th smallest element of S(d, N) (``counting.s_set``).

    x_1 = 1 and x_i = ceil(i/2)*(d-N+3) + (-1)^i for i >= 2 (x_2 = d-N+4).
    """
    if i < 1:
        raise RefusedInput(f"index must be >= 1, got {i}")
    m = d - N + 3
    if m < 3:
        raise RefusedInput(f"x_closed(d={d}, N={N}): modulus {m} < 3")
    if i == 1:
        return 1
    return (i + 1) // 2 * m + (1 if i % 2 == 0 else -1)


def y_closed(d: int, i: int) -> int:
    """Closed form for the i-th smallest element of T(5, d) (``counting.t_set``).

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
