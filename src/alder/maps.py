"""Partitions over S(d, N), their statistics and the two map pieces into T(5, d).

Fix d, N and a target weight n.  Write p_i for the multiplicity of the
i-th smallest element x_i of S(d, N) in a partition lam, and q_i for
multiplicities over the elements y_i of T(5, d).  A partition is the
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

Every function here that reads an element takes the cell's element
table ``els`` (``injection._element_table``): els[i] = (x_i, y_i,
x_i - y_i), so no closed form is evaluated per part.  Both maps preserve
weight identically; nonnegativity of the images and global injectivity
are what ``alder.injection`` checks.  The maps never clamp: a negative
image multiplicity or a weight mismatch is evidence against the claimed
inequality at that cell and surfaces as a MapViolation / report witness,
never silently.
"""

from __future__ import annotations

import array
from typing import Iterator, NamedTuple

from . import counting
from .counting import Elements
from .report import check_n


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


def enumerate_partitions(name: str, n: int) -> Iterator[dict[int, int]]:
    """Every partition of n with parts in the set of the rho table ``name``,
    as {i: p_i} maps, in a canonical order.

    Depth-first over indices from the largest part value downwards,
    taking the highest multiplicity first, so the first result packs as
    much as possible into large parts and the last is all-smallest.  The
    smallest part takes the remainder in one step.  The walk keeps an
    explicit stack of (largest free index, remainder, parts), pushing a
    node's branches in reverse so that they pop in that order.
    """
    check_n(n)
    elements = counting.elements(name, n)
    stack = [(len(elements) - 1, n, ())]
    while stack:
        top, rest, parts = stack.pop()
        if rest == 0:
            yield dict(reversed(parts))
            continue
        if elements and rest % elements[0] == 0:
            stack.append((-1, 0, parts + ((1, rest // elements[0]),)))
        for j in range(1, top + 1):
            v = elements[j]
            stack.extend((j - 1, rest - k * v, parts + ((j + 1, k),))
                         for k in range(1, rest // v + 1))


def _alpha(lam: dict[int, int], els: Elements) -> int:
    """alpha = sum_{i>=3} (x_i - y_i) p_i of {i: p_i}, read from ``els``."""
    return sum(els[i][2] * m for i, m in lam.items() if i >= 3)


def stats(lam: dict[int, int], d: int, N: int, els: Elements) -> PartitionStats:
    """Classification statistics of a partition {i: p_i} over S(d, N).

    Rejects if some held part has x_i < y_i (the alpha >= 0 regime
    requires d >= max(31, 6N-17)) or if d - N - 1 < 1.
    """
    for i in lam:
        if i >= 3 and els[i][2] < 0:
            raise HypothesisViolation(f"x_{i} - y_{i} = {els[i][2]} < 0 at d={d}, N={N}")
    p1, p2, p5 = lam.get(1, 0), lam.get(2, 0), lam.get(5, 0)
    denom = d - N - 1
    if denom < 1:
        raise HypothesisViolation(f"d - N - 1 = {denom} < 1 at d={d}, N={N}")
    alpha = _alpha(lam, els)
    cls = "S1" if p1 + alpha >= (N - 2) * p2 else "S2"
    return PartitionStats(alpha, (p1 + p5) // denom, p2 % 2, cls)


def _image(lam: dict[int, int], d: int, N: int, els: Elements,
           q: dict[int, int], piece: str) -> dict[int, int]:
    """The image {i: q_i} over T(5, d), checking well-definedness."""
    negative = {i: m for i, m in q.items() if m < 0}
    if negative:
        raise MapViolation(
            f"{piece} produced negative multiplicities at d={d}, N={N}",
            {"piece": piece, "source": lam, "negative": negative})
    image = {i: m for i, m in sorted(q.items()) if m > 0}
    weight = sum(m * els[i][1] for i, m in image.items())
    expected = sum(m * els[i][0] for i, m in lam.items())
    if weight != expected:
        raise MapViolation(
            f"{piece} changed the weight {expected} -> {weight} at d={d}, N={N}",
            {"piece": piece, "source": lam,
             "image": image, "weight": weight, "expected": expected})
    return image


def phi1(lam: dict[int, int], d: int, N: int, els: Elements, st: PartitionStats) -> dict[int, int]:
    """The S1 piece: move the class-S1 surplus into parts of size 1."""
    q = {**lam, 1: lam.get(1, 0) + st.alpha - (N - 2) * lam.get(2, 0)}
    return _image(lam, d, N, els, q, "phi1")


def phi2(lam: dict[int, int], d: int, N: int, els: Elements, st: PartitionStats) -> dict[int, int]:
    """The S2 piece: rebalance p_2 into parts y_1, y_2, y_5 guided by beta, eps."""
    p1, p2, p5 = lam.get(1, 0), lam.get(2, 0), lam.get(5, 0)
    eps, beta = st.epsilon, st.beta
    q = {**lam, 1: p1 + st.alpha + (p2 + eps) * (d - 2 * N - 8) // 2 + 28 * beta + (26 + N) * eps,
         2: 2 * beta + eps,
         5: p5 + (p2 + eps) // 2 - 2 * beta - 2 * eps}
    return _image(lam, d, N, els, q, "phi2")


def _map_checked(lam: dict[int, int], d: int, N: int, els: Elements,
                 failed: list[dict]) -> tuple[str | None, dict[int, int] | None]:
    """Classify one partition and map it by its class's piece.

    Appends the witness of each check it fails to ``failed``, in this
    order: its statistics, p_2 >= 8 (an S2 member), the map, and the beta
    piece separation (an S2 image).  Returns the class and the image,
    each None if it is not defined.
    """
    try:
        st = stats(lam, d, N, els)
    except HypothesisViolation as exc:
        failed.append({"source": lam, "error": str(exc)})
        return None, None
    if st.cls == "S2" and lam.get(2, 0) < 8:
        failed.append({"check": "p2_lower_bound", "source": lam, "p2": lam.get(2, 0)})
    try:
        img = (phi1 if st.cls == "S1" else phi2)(lam, d, N, els, st)
    except MapViolation as exc:
        failed.append(exc.witness)
        return st.cls, None
    if st.cls == "S2" and img.get(2, 0) // 2 != st.beta:
        failed.append({"check": "piece_separation", "source": lam,
                       "beta": st.beta, "q2": img.get(2, 0)})
    return st.cls, img


def _key(img: dict[int, int]) -> bytes:
    """An image as packed words, its indices then its multiplicities: equal
    keys are equal images.  Every i and q_i of an image of n is at most n,
    and array raises on a word over 2^32 - 1, so no key is truncated."""
    return array.array("I", [*img, *img.values()]).tobytes()


def _check_exhaustively(report, els: Elements) -> tuple[int, int, list[dict], set[str]]:
    """Stream every partition of n over S(d, N) through ``_map_checked``
    and fill in ``report``'s sizes.  Returns what ``injection._settle``
    takes: how many partitions have an image, how many distinct images
    (held as keys), the first five witnesses (all that a report prints)
    and the names of the checks a witness failed."""
    images: set[bytes] = set()
    witnesses: list[dict] = []
    checks: set[str] = set()
    failed: list[dict] = []
    mapped = 0
    for lam in enumerate_partitions(counting.s_set(report.d, report.N), report.n):
        cls, img = _map_checked(lam, report.d, report.N, els, failed)
        report.size += 1
        report.s1_size += cls == "S1"
        report.s2_size += cls == "S2"
        if img is not None:
            mapped += 1
            images.add(_key(img))
        if failed:
            checks.update(witness["check"] for witness in failed if "check" in witness)
            witnesses += failed[:5 - len(witnesses)]
            failed.clear()
    return mapped, len(images), witnesses, checks
