"""Part sets behind Alder-type partition inequalities.

Every part set of the paper is a union of congruence classes with
finitely many values removed:

    {x >= 1 : x mod m in R} \\ E,      R a set of residues, E finite.

Such a set is known only by the name of its rho table: ``counting``
writes the names of the set families and walks a set's elements from its
name (``counting.elements``).  Indices are 1-based throughout: x_1 < x_2
< ... are the elements of S(d, N) and y_1 < y_2 < ... those of T(5, d),
matching the subscript convention of the literature.  Their closed forms
here are the injection's fast path and are cross-checked against plain
enumeration in the test suite.
"""

from __future__ import annotations


class RefusedInput(ValueError):
    """Input the program refuses: a parameter outside its domain, a set or
    cell that cannot be built, or a size over a cap.  The command line
    reports it as a usage error."""


def check_n(n: int) -> None:
    """Refuse a negative weight n: every count and every cell starts at n = 0."""
    if n < 0:
        raise RefusedInput(f"n must be >= 0, got {n}")


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


#: a cell's element table (``injection._element_table``): entry i is (x_i, y_i, x_i - y_i)
Elements = list[tuple[int, int, int]]
