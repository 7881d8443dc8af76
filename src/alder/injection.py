"""Piecewise injection from partitions over S(d, N) into partitions over T(5, d).

Fix d, N and a target weight n.  Write p_i for the multiplicity of the
i-th smallest element x_i of s_set(d, N) in a partition lam, and q_i for
multiplicities over the elements y_i of t_set(5, d).  A partition is the
map lam = {i: p_i} of its positive multiplicities in increasing i, and
an image the map {i: q_i}.  The classification statistics are

    alpha = sum_{i>=3} (x_i - y_i) * p_i      (nonnegative for
            d >= max(31, 6N-17), by the difference table),
    eps   = p_2 mod 2,
    beta  = floor((p_1 + p_5) / (d - N - 1)),

and lam is in class S1 when p_1 + alpha >= (N-2) * p_2, else in class
S2 (sub-piece indexed by beta).  The two maps are

    S1:  q_1 = p_1 + alpha - (N-2) p_2,             q_i = p_i (i >= 2)
    S2:  q_1 = p_1 + alpha + (p_2+eps)(d-2N-8)/2 + 28 beta + (26+N) eps
         q_2 = 2 beta + eps
         q_5 = p_5 + (p_2+eps)/2 - 2 beta - 2 eps
         q_i = p_i otherwise.

Both preserve weight identically; nonnegativity of the images and global
injectivity are what ``verify_injection`` checks.  The maps never clamp:
a negative image multiplicity or a weight mismatch is evidence against
the claimed inequality at that cell and surfaces as a MapViolation /
report witness, never silently.

Only S2 needs a walk.  phi1 keeps q_i = p_i for i >= 2 and fixes q_1 by
weight (y_1 = x_1 = 1 and y_2 = x_2 + N - 2), so distinct S1 members
have distinct images, and q_1 >= 0 is the S1 condition itself.  Every
S1 check therefore holds by construction once two premises hold, both
checked per index, not per partition: x_i >= y_i for every i >= 3 with
x_i <= n (so alpha is defined and nonnegative), and d - N - 1 >= 1.
Under them S1 has rho(S, n) - |S2| members, and S2 is empty when
N <= 2.  ``verify_injection`` walks the S2 members alone, maps each by
phi2, and checks its image, the piece separation, p_2 >= 8 and
injectivity within S2.  An S2 image q equals an S1 image iff its
phi1-preimage, p_i = q_i (i >= 2) with p_1 = q_1 - alpha(q) + (N-2) q_2,
has p_1 >= 0, which is one closed-form sum per image.

``verify_injection_exhaustive`` enumerates every partition of n and maps
it.  It is the oracle the structural check is tested against, and its
fallback: a cell whose premises fail, or where any check fails, is rerun
exhaustively, so its witnesses come in enumeration order.

In-hypothesis cells satisfy N >= 2, d >= max(63, 46N-79), n >= 7d+14.
Out-of-hypothesis cells run only when forced, and their failures are
reported as exploration data, not refutations.

What ``verify_injection`` caps grows with n: n itself, and rho(S, n),
which never decreases since 1 is in S; the hypothesis is monotone in n.
So the last cell of an n range is over a cap exactly when some cell of
it is; ``alder inject`` checks the first n >= 0, then runs the last cell.
"""

from __future__ import annotations

import bisect
from typing import Iterator, NamedTuple

from . import counting
from .partset import (RefusedInput, ResidueClassSet, check_n, s_set,
                      shift_regime, t_set, x_closed, y_closed)

#: largest rho(S, n) a cell may check; checked before any partition is examined
MAX_PARTITIONS = 10 ** 6


class HypothesisViolation(ValueError):
    """Raised when a statistic's defining hypotheses do not hold."""


class MapViolation(Exception):
    """A well-definedness failure of one of the maps; carries the witness."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class PartitionStats(NamedTuple):
    alpha: int
    beta: int
    epsilon: int
    cls: str  # "S1" or "S2"


def enumerate_partitions(A: ResidueClassSet, n: int) -> list[dict[int, int]]:
    """All partitions of n with parts in A, as {i: p_i} maps, in a canonical order.

    Depth-first over indices from the largest part value downwards,
    taking the highest multiplicity first, so the first result packs as
    much as possible into large parts and the last is all-smallest.  The
    smallest part takes the remainder in one step.
    """
    check_n(n)
    elements = A.elements_upto(n)
    out: list[dict[int, int]] = []
    acc: list[tuple[int, int]] = []  # (i, p_i), largest index first

    def walk(idx: int, remaining: int) -> None:
        if remaining == 0:
            out.append(dict(reversed(acc)))
        elif idx == 0:
            m, rest = divmod(remaining, elements[0])
            if rest == 0:
                out.append(dict([(1, m), *reversed(acc)]))
        elif idx > 0:
            v = elements[idx]
            for m in range(remaining // v, 0, -1):
                acc.append((idx + 1, m))
                walk(idx - 1, remaining - m * v)
                acc.pop()
            walk(idx - 1, remaining)

    walk(len(elements) - 1, n)
    return out


def in_hypothesis(d: int, N: int, n: int) -> bool:
    """The regime in which the piecewise injection is asserted to work."""
    return shift_regime(d, N) and n >= 7 * d + 14


def stats(lam: dict[int, int], d: int, N: int) -> PartitionStats:
    """Classification statistics of a partition {i: p_i} over s_set(d, N).

    Rejects if some held part has x_i < y_i (the alpha >= 0 regime
    requires d >= max(31, 6N-17)).
    """
    alpha = 0
    for i, m in lam.items():
        if i >= 3:
            diff = x_closed(d, N, i) - y_closed(d, i)
            if diff < 0:
                raise HypothesisViolation(
                    f"x_{i} - y_{i} = {diff} < 0 at d={d}, N={N}")
            alpha += diff * m
    p1 = lam.get(1, 0)
    p2 = lam.get(2, 0)
    p5 = lam.get(5, 0)
    eps = p2 % 2
    denom = d - N - 1
    if denom < 1:
        raise HypothesisViolation(f"d - N - 1 = {denom} < 1 at d={d}, N={N}")
    beta = (p1 + p5) // denom
    cls = "S1" if p1 + alpha >= (N - 2) * p2 else "S2"
    return PartitionStats(alpha, beta, eps, cls)


def _image(lam: dict[int, int], d: int, N: int, q: dict[int, int],
           piece: str) -> dict[int, int]:
    """The image {i: q_i} over t_set(5, d), checking well-definedness."""
    negative = {i: m for i, m in q.items() if m < 0}
    if negative:
        raise MapViolation(
            f"{piece} produced negative multiplicities at d={d}, N={N}",
            {"piece": piece, "source": lam, "negative": negative})
    image = {i: m for i, m in sorted(q.items()) if m > 0}
    weight = sum(m * y_closed(d, i) for i, m in image.items())
    expected = sum(m * x_closed(d, N, i) for i, m in lam.items())
    if weight != expected:
        raise MapViolation(
            f"{piece} changed the weight {expected} -> {weight} at d={d}, N={N}",
            {"piece": piece, "source": lam,
             "image": image, "weight": weight, "expected": expected})
    return image


def phi1(lam: dict[int, int], d: int, N: int,
         st: PartitionStats | None = None) -> dict[int, int]:
    """The S1 piece: move the class-S1 surplus into parts of size 1."""
    st = st or stats(lam, d, N)
    q = dict(lam)
    q[1] = lam.get(1, 0) + st.alpha - (N - 2) * lam.get(2, 0)
    return _image(lam, d, N, q, "phi1")


def phi2(lam: dict[int, int], d: int, N: int,
         st: PartitionStats | None = None) -> dict[int, int]:
    """The S2 piece: rebalance p_2 into parts y_1, y_2, y_5 guided by beta, eps."""
    st = st or stats(lam, d, N)
    p1 = lam.get(1, 0)
    p2 = lam.get(2, 0)
    p5 = lam.get(5, 0)
    eps, beta = st.epsilon, st.beta
    q = dict(lam)
    q[1] = p1 + st.alpha + (p2 + eps) * (d - 2 * N - 8) // 2 + 28 * beta + (26 + N) * eps
    q[2] = 2 * beta + eps
    q[5] = p5 + (p2 + eps) // 2 - 2 * beta - 2 * eps
    return _image(lam, d, N, q, "phi2")


class InjectionCellReport:
    """Outcome of checking one (d, N, n) cell: ``size`` is |S^N|, the number
    of partitions of n, which ``s1_size`` and ``s2_size`` split by class."""

    def __init__(self, d: int, N: int, n: int, in_hypothesis: bool, evaluated: bool):
        self.d, self.N, self.n = d, N, n
        self.in_hypothesis, self.evaluated = in_hypothesis, evaluated
        self.size = self.rho_s = self.rho_t = self.s1_size = self.s2_size = 0
        self.checks: dict[str, bool] = {}
        self.witnesses: list[dict] = []

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def passed(self) -> bool:
        return self.evaluated and all(self.checks.values())

    @property
    def status(self) -> str:
        if not self.in_hypothesis:
            return "out-of-hypothesis"
        return "holds" if self.passed else "fails"


def _open_cell(d: int, N: int, n: int,
               force: bool) -> tuple[InjectionCellReport, ResidueClassSet | None]:
    """A cell's report before any partition is examined, with S(d, N) if the
    cell is to be checked (None if it is skipped or not constructible)."""
    check_n(n)
    hyp = in_hypothesis(d, N, n)
    report = InjectionCellReport(d, N, n, in_hypothesis=hyp, evaluated=hyp or force)
    if not report.evaluated:
        return report, None

    try:
        y_closed(d, 1)  # the target ordering needs r_of(d) >= 5
        S, T = s_set(d, N), t_set(5, d)
    except RefusedInput as exc:
        report.checks["constructible"] = False
        report.witnesses.append({"error": str(exc)})
        return report, None

    report.rho_s = counting.rho(S, n)
    if report.rho_s > MAX_PARTITIONS:
        raise RefusedInput(f"cell d={d}, N={N}, n={n} has {report.rho_s} "
                           f"partitions, more than {MAX_PARTITIONS}")
    report.rho_t = counting.rho(T, n)
    return report, S


def _check_exhaustively(report: InjectionCellReport, S: ResidueClassSet) -> None:
    """Enumerate every partition of n over S, map it and fill in ``report``."""
    d, N, n = report.d, report.N, report.n
    partitions = enumerate_partitions(S, n)
    report.size = len(partitions)
    images: set[tuple[tuple[int, int], ...]] = set()
    mapped = 0
    image_ok = True
    separation_ok = True
    p2_ok = True
    stats_ok = True

    for lam in partitions:
        try:
            st = stats(lam, d, N)
        except HypothesisViolation as exc:
            stats_ok = False
            report.witnesses.append({"source": lam, "error": str(exc)})
            continue
        if st.cls == "S1":
            report.s1_size += 1
        else:
            report.s2_size += 1
            p2 = lam.get(2, 0)
            if p2 < 8:
                p2_ok = False
                report.witnesses.append(
                    {"check": "p2_lower_bound", "source": lam, "p2": p2})
        try:
            img = phi1(lam, d, N, st) if st.cls == "S1" else phi2(lam, d, N, st)
        except MapViolation as exc:
            image_ok = False
            report.witnesses.append(exc.witness)
            continue
        if st.cls == "S2" and img.get(2, 0) // 2 != st.beta:
            separation_ok = False
            report.witnesses.append(
                {"check": "piece_separation", "source": lam,
                 "beta": st.beta, "q2": img.get(2, 0)})
        mapped += 1
        images.add(tuple(img.items()))

    report.checks["classification_partitions"] = (
        report.s1_size + report.s2_size == report.size)
    report.checks["enumeration_matches_rho"] = report.size == report.rho_s
    report.checks["stats_defined"] = stats_ok
    # _image already rejected any weight drift, so mapped == well-defined
    report.checks["images_valid"] = image_ok and mapped == report.size
    report.checks["injective"] = len(images) == mapped
    report.checks["piece_separation"] = separation_ok
    report.checks["rho_dominates"] = report.rho_t >= report.rho_s
    report.checks["p2_lower_bound"] = p2_ok


def _s2_members(d: int, N: int, n: int, xs: list[int],
                ys: list[int]) -> Iterator[dict[int, int]]:
    """Every class-S2 partition of n over s_set(d, N), given the premises.

    ``xs[i]`` and ``ys[i]`` are x_i and y_i for 1 <= i <= len(xs) - 1, every
    index with x_i <= n (entry 0 is a placeholder).  Fix p_2 = m >= 1 and
    write B = n - m x_2.  A multiset {i: p_i} over i >= 3 with
    sum p_i x_i <= B leaves p_1 = B - sum p_i x_i, and

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
    delta = [x - y for x, y in zip(xs, ys)]
    dmin = list(delta)  # dmin[j] = min(delta[3..j]) for j >= 3
    for j in range(4, len(xs)):
        dmin[j] = min(dmin[j], dmin[j - 1])
    x2 = x_closed(d, N, 2)
    for m in range(1, n // x2 + 1):
        cap = (N - 2) * m - 1
        if cap < 0:
            continue
        stack = [(len(xs) - 1, n - m * x2, 0, ())]
        while stack:
            top, rest, alpha, parts = stack.pop()
            need = rest + alpha - cap
            if need <= 0:
                lam = {1: rest} if rest else {}
                lam[2] = m
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


def _s2_size(d: int, N: int, n: int, S: ResidueClassSet) -> int | None:
    """The number of S2 partitions, if the structural argument settles the
    cell; None if a premise or a check on an S2 member fails."""
    xs = [0, *S.elements_upto(n)]
    ys = [0, *(y_closed(d, i) for i in range(1, len(xs)))]
    if d - N - 1 < 1 or any(x < y for x, y in zip(xs[3:], ys[3:])):
        return None
    images: set[tuple[tuple[int, int], ...]] = set()
    for lam in _s2_members(d, N, n, xs, ys):
        st = stats(lam, d, N)
        try:
            img = phi2(lam, d, N, st)
        except MapViolation:
            return None
        key = tuple(img.items())
        # the phi1-preimage of img; a partition of n, in S1, iff its p_1 >= 0
        p1 = (img.get(1, 0) + (N - 2) * img.get(2, 0)
              - sum((x_closed(d, N, i) - y_closed(d, i)) * m
                    for i, m in img.items() if i >= 3))
        if lam[2] < 8 or img.get(2, 0) // 2 != st.beta or key in images or p1 >= 0:
            return None
        images.add(key)
    return len(images)  # one per S2 member: a repeated image returned None


def verify_injection(d: int, N: int, n: int, force: bool = False) -> InjectionCellReport:
    """Verify the piecewise injection at one (d, N, n) cell.

    Checks, over all partitions of n over s_set(d, N): classification
    consistency, image validity (nonnegative, weight n), global
    injectivity including across pieces, the q_2-separation of the beta
    sub-pieces, the count inequality rho(T) >= rho(S), and the p_2 >= 8
    bound for S2 members.  Failed assertions are collected as witnesses;
    the call itself does not raise on them.

    The cell is settled structurally when it can be (see the module
    docstring): only the S2 members are walked and mapped, and the
    report's size is rho(S, n) read from its count table.  When a premise
    or any check fails, the cell is rerun by
    ``verify_injection_exhaustive``, so the report, witnesses included,
    is always the one the exhaustive check gives.

    Out-of-hypothesis cells are evaluated only when ``force`` is set and
    are labeled as such, never as failures of the inequality.  Raises
    RefusedInput if n < 0 and, for a cell it evaluates, if n is beyond
    ``counting.MAX_HORIZON`` or rho(S, n) exceeds MAX_PARTITIONS; these
    are checked before any partition is examined.
    """
    report, S = _open_cell(d, N, n, force)
    if S is None:
        return report
    s2_size = _s2_size(d, N, n, S)
    if s2_size is None or report.rho_t < report.rho_s:
        _check_exhaustively(report, S)
        return report
    report.size, report.s2_size = report.rho_s, s2_size
    report.s1_size = report.size - s2_size
    report.checks = dict.fromkeys(
        ("classification_partitions", "enumeration_matches_rho", "stats_defined",
         "images_valid", "injective", "piece_separation", "rho_dominates",
         "p2_lower_bound"), True)
    return report


def verify_injection_exhaustive(d: int, N: int, n: int,
                                force: bool = False) -> InjectionCellReport:
    """``verify_injection`` by enumerating and mapping every partition of n.

    The oracle of the structural check and its fallback: slower, and the
    only path that produces witnesses, in enumeration order.
    """
    report, S = _open_cell(d, N, n, force)
    if S is not None:
        _check_exhaustively(report, S)
    return report
