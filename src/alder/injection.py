"""Cell-by-cell check of the piecewise injection from partitions over
S(d, N) into partitions over T(5, d): ``alder.maps`` defines its
statistics, its classes S1 and S2 and its pieces phi1 and phi2.

Only S2 needs a walk.  phi1 keeps q_i = p_i for i >= 2 and fixes q_1 by
weight (y_1 = x_1 = 1 and y_2 = x_2 + N - 2), so distinct S1 members
have distinct images, and q_1 >= 0 is the S1 condition itself.  Every
S1 check therefore holds by construction once two premises hold, both
checked per index, not per partition: x_i >= y_i for every i >= 3 with
x_i <= n (so alpha is defined and nonnegative), and d - N - 1 >= 1.
Under them S1 has rho(S, n) - |S2| members, and S2 is empty when
N <= 2.  ``verify_injection`` walks the S2 members alone, maps and checks
each by ``maps._map_checked`` (its image, p_2 >= 8, the piece
separation), as the exhaustive check does every partition, and checks
injectivity within S2.  An S2 image q equals an S1 image iff its
phi1-preimage, p_i = q_i (i >= 2) with p_1 = q_1 - alpha(q) + (N-2) q_2,
has p_1 >= 0; alpha(q) is the statistics' own alpha (``maps._alpha``).
Every x_i and y_i is read from the cell's ``_element_table``, evaluated
once from the closed forms after S and T are named and rho(S, n) is
checked against its cap.

``maps._check_exhaustively`` enumerates every partition of n and maps
it.  It is the structural check's fallback (and, in the tests, its
oracle): a cell whose premises fail, or where any check fails, is rerun
exhaustively, so its witnesses come in enumeration order.  Only these
two paths map a partition, so only they load ``alder.maps``: a cell
with an empty S2 never does.

In-hypothesis cells satisfy N >= 2, d >= max(63, 46N-79), n >= 7d+14.
Out-of-hypothesis cells run only when forced, and their failures are
reported as exploration data, not refutations.

What ``verify_injection`` caps grows with n: n itself, and rho(S, n),
which never decreases since 1 is in S; the hypothesis is monotone in n.
So the last cell of an n range is over a cap exactly when some cell of
it is; ``verify_range`` checks the first n >= 0, then runs the last cell.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Iterator, Sequence

from . import counting
from .counting import Elements, shift_regime, x_closed, y_closed
from .report import FAILS, HOLDS, OUT, RefusedInput, cell, check_n

#: largest rho(S, n) a cell may check; checked before any partition is examined
MAX_PARTITIONS = 10 ** 6


def in_hypothesis(d: int, N: int, n: int) -> bool:
    """The regime in which the piecewise injection is asserted to work."""
    return shift_regime(d, N) and n >= 7 * d + 14


def _block(params: dict, hyp: bool, rho_s: int, rho_t: int, size: int, s1: int,
           s2: int, mapped: int, distinct: int, witnesses: list[dict],
           failed: set[str]) -> tuple[dict, list[tuple]]:
    """An evaluated cell as a one-cell block (``report.cell``).  Its value
    is ``size``, the partitions of n, which ``s1`` and ``s2`` split by
    class; ``mapped`` of them have an image, ``distinct`` images in all.
    Its witness gives rho(S, n), rho(T, n), the class sizes, the failed
    checks and the first five ``witnesses`` of ``maps._map_checked``.  Six
    of the eight named checks compare the counts; the other two,
    piece_separation and p2_lower_bound, fail iff ``failed`` names them,
    as it names ``constructible`` for a cell that cannot be built."""
    classified = s1 + s2 == size
    checks = {"classification_partitions": classified,
              "enumeration_matches_rho": size == rho_s,
              "stats_defined": classified,  # a partition is classified iff its stats are
              "images_valid": mapped == size,  # maps._image rejects weight drift
              "injective": distinct == mapped,
              "rho_dominates": rho_t >= rho_s}
    failed_checks = sorted(failed.union(k for k, v in checks.items() if not v))
    witness = {"rho_S": str(rho_s), "rho_T": str(rho_t), "s1": s1, "s2": s2,
               "failed_checks": failed_checks}
    if witnesses:
        witness["witnesses"] = witnesses
    return cell(params, OUT if not hyp else (FAILS if failed_checks else HOLDS), size, witness)


def _element_table(d: int, N: int, n: int) -> Elements:
    """The cell's elements, evaluated once: entry i is (x_i, y_i, x_i - y_i)
    for every i with x_i <= n, and for every i <= 5 whatever n is, since
    phi2 may put a part y_5 into an image; entry 0 is (0, 0, 0)."""
    els = [(0, 0, 0)]
    for i in itertools.count(1):
        x, y = x_closed(d, N, i), y_closed(d, i)
        if x > n and i > 5:
            return els
        els.append((x, y, x - y))


def _s2_members(N: int, n: int, els: Elements) -> Iterator[dict[int, int]]:
    """Every class-S2 partition of n over S(d, N), given the premises.

    Fix p_2 = m >= 1 and write B = n - m x_2.  A multiset {i: p_i} over
    i >= 3 with sum p_i x_i <= B leaves p_1 = B - sum p_i x_i, and

        p_1 + alpha = B - sum p_i y_i,

    so the partition is in S2 iff that is at most cap = (N-2) m - 1.  Both
    p_1 and alpha are nonnegative, so alpha <= cap bounds every branch.
    A branch whose parts all come from indices <= j must still add
    sum y >= need = p_1 + alpha - cap using parts of at most y_j each,
    every one raising alpha by at least min(x_i - y_i, 3 <= i <= j); the
    walk stops trying smaller j once that cannot fit under the cap.  The
    walk keeps an explicit stack of (largest free index, p_1, alpha,
    parts) and skips unused indices, so its depth is the number of
    distinct parts, not the number of indices.
    """
    xs, ys, delta = zip(*els)
    dmin = [*delta[:3], *itertools.accumulate(delta[3:], min)]  # min(delta[3..j])
    for m in range(1, n // xs[2] + 1):
        cap = (N - 2) * m - 1
        if cap < 0:
            continue
        stack = [(len(xs) - 1, n - m * xs[2], 0, ())]
        while stack:
            top, rest, alpha, parts = stack.pop()
            need = rest + alpha - cap
            if need <= 0:
                lam = {1: rest, 2: m} if rest else {2: m}
                lam.update(reversed(parts))
                yield lam
            for j in range(min(top, bisect.bisect_right(xs, rest) - 1), 2, -1):
                if need > 0 and alpha + -(-need // ys[j]) * dmin[j] > cap:
                    break
                most = rest // xs[j]
                if delta[j]:
                    most = min(most, (cap - alpha) // delta[j])
                for k in range(1, most + 1):
                    stack.append((j - 1, rest - k * xs[j], alpha + k * delta[j],
                                  parts + ((j, k),)))


def _s2_size(d: int, N: int, n: int, els: Elements) -> int | None:
    """The number of S2 partitions, if the structural argument settles the
    cell; None if a premise or a check on an S2 member fails."""
    if d - N - 1 < 1 or any(diff < 0 for x, _, diff in els[3:] if x <= n):
        return None
    images: set[bytes] = set()
    failed: list[dict] = []
    for lam in _s2_members(N, n, els):
        if not images:  # the first member: an empty S2 loads no maps
            from . import maps
        _, img = maps._map_checked(lam, d, N, els, failed)
        if failed:
            return None
        key = maps._key(img)
        # img's phi1-preimage (p_i = q_i, i >= 3) is in S1, a partition of n, iff p_1 >= 0
        p1 = img.get(1, 0) + (N - 2) * img.get(2, 0) - maps._alpha(img, els)
        if key in images or p1 >= 0:
            return None
        images.add(key)
    return len(images)  # one per S2 member: a repeated image returned None


def verify_injection(d: int, N: int, n: int, force: bool = False) -> tuple[dict, list[tuple]]:
    """Verify the piecewise injection at one (d, N, n) cell, as a one-cell
    block (``report.cell``) whose value is |S^N|.

    Checks, over all partitions of n over S(d, N): classification
    consistency, image validity (nonnegative, weight n), global
    injectivity including across pieces, the q_2-separation of the beta
    sub-pieces, the count inequality rho(T) >= rho(S), and the p_2 >= 8
    bound for S2 members.  Failed assertions are collected as witnesses;
    the call itself does not raise on them.  A cell whose sets cannot be
    built has the value 0 and fails the one check ``constructible``.

    The cell is settled structurally when it can be (see the module
    docstring): only the S2 members are walked and mapped, and its size
    is rho(S, n) read from its count table.  When a premise or any check
    fails, the cell is rerun by ``maps._check_exhaustively``, so the
    block, witnesses included, is always the one the exhaustive check
    gives.

    Out-of-hypothesis cells are evaluated only when ``force`` is set and
    are labeled as such, never as failures of the inequality; a cell that
    is not evaluated has no value and no witness.  Raises RefusedInput if
    n < 0 and, for a cell it evaluates, if n is beyond
    ``counting.MAX_HORIZON`` or rho(S, n) exceeds MAX_PARTITIONS; these
    are checked before any partition is examined.
    """
    check_n(n)
    params, hyp = {"d": d, "N": N, "n": n}, in_hypothesis(d, N, n)
    if not (hyp or force):
        return cell(params, OUT)
    try:
        y_closed(d, 1)  # the target ordering needs r_of(d) >= 5
        S, T = counting.s_set(d, N), counting.t_set(5, d)
    except RefusedInput as exc:
        return _block(params, hyp, 0, 0, 0, 0, 0, 0, 0,  # no counts: nothing was built
                      [{"error": str(exc)}], {"constructible"})
    rho_s = counting.rho(S, n)
    if rho_s > MAX_PARTITIONS:
        raise RefusedInput(f"cell d={d}, N={N}, n={n} has {rho_s} "
                           f"partitions, more than {MAX_PARTITIONS}")
    rho_t = counting.rho(T, n)
    els = _element_table(d, N, n)
    s2 = _s2_size(d, N, n, els)
    if s2 is None or rho_t < rho_s:
        from . import maps
        return _block(params, hyp, rho_s, rho_t, *maps._check_exhaustively(S, d, N, n, els))
    # every check holds: each of the rho_s partitions has its own image
    return _block(params, hyp, rho_s, rho_t, rho_s, rho_s - s2, s2, rho_s, rho_s, [], set())


def verify_range(d: int, N: int, n_values: Sequence[int],
                 force: bool = False) -> list[tuple[dict, list[tuple]]]:
    """The block of ``verify_injection`` at (d, N, n) for each n of the
    ascending ``n_values``, in order.  The first n is checked and the last
    cell runs first (see the module docstring), so a range over a cap runs
    no other cell."""
    check_n(n_values[0])
    run = functools.partial(verify_injection, d, N, force=force)
    last = run(n_values[-1])
    return [*map(run, n_values[:-1]), last]
