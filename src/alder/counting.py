"""Exact partition counting.

The counters all live over plain Python integers.  Names follow the
standard notation of the Alder conjecture literature:

    q_d^(a)        parts >= a, successive gaps >= d
    Q_d^(a)        parts == +-a (mod d+3); Q_d^(a,-) also excludes d+3-a,
                   and Q_d^(a,--) both a and d+3-a
    rho(A, n)      partitions of n with parts in the set A

Besides the +-a (mod d+3) sets of the Q counters, two families of part
sets matter downstream, each named by its maker here:

* the comparison targets T(s, d) with x == 1, d+2, d+4, ..., d+2^(s-1)
  (mod 2d), the codomain of the injection arguments (``t_set``),
* the shifted sets S(d, N) with x == +-1 (mod d-N+3) minus the single
  value d-N+2, whose partitions realize Q_{d-N}^(1,-) (``s_set``).

The i-th smallest elements x_i of S(d, N) and y_i of T(5, d), from i = 1,
have closed forms, ``x_closed`` and ``y_closed``: the injection's fast path.

The q_d^(a) table uses the classical staircase bijection: a gap->=d partition
into exactly k parts with minimum >= a corresponds, after removing the
staircase a+(k-j)d from the j-th largest part, to a partition of
n - off_k, off_k = a*k + d*k*(k-1)/2, into at most k parts.  So the
table is the staircase sum over k of x^off_k / ((1-x)...(1-x^k)),
evaluated by Horner's rule from the largest k <= K ~ sqrt(2n/d) down:
one running-sum pass per k, and a shift by off_k - off_(k-1) that
copies references and adds nothing.  ``rho`` over a set
x == +-r (mod M) with 2r != M (every Q-type set and S(d, N)) follows
from the Jacobi triple product as a sparse recurrence with
O(sqrt(n/M)) terms per entry, and each excluded value v is one pass
multiplying by (1 - x^v); over any other set (T(s, d), a single class)
``rho`` is a coin-change pass over the set's elements, which is also
the oracle the triple-product tables are tested against.  Each table is
dense over 0..horizon and read through the one accessor ``column``,
which hands it out whole, for slicing: built once (or loaded from the
cache), grown geometrically on demand, and read-only while held: 64-bit
words only when exact, when every count fits one (p(n) passes 2^64 at
n = 417).  A table's name, such as ``q.a5.d300``, ``rho.m303.r5,298.x298``
or ``g.d63``, is its one identity, here and in the cache, and a rho
name is the one form of its part set: only the name makers here write
one, with their counts' refusals, ``_fields`` reads one back into its
modulus, residues and exclusions, and ``elements`` is the one walk over
a set's members, for the coin-change builds and the walks by largest
part and by partition.  A grid ``release``s a table by name after its
last reader.  ``rho(name, n)`` is one entry of a table, with n < 0
refused (``report.check_n``); callers of ``column`` check their n first.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct

from .report import RefusedInput, check_n

#: largest n a count table is built for; checked before the table is allocated
MAX_HORIZON = 10 ** 5

_cache_dir: str | None = None
_tables: dict[str, memoryview | tuple[int, ...]] = {}  # table name -> counts for 0..horizon


def set_cache_dir(path: str | None) -> None:
    """Point the on-disk table cache at a directory (None disables it)."""
    global _cache_dir
    _cache_dir = str(path) if path is not None else None


def _add_multiples(dp: list[int], v: int) -> None:
    """dp[m] += dp[m - v] for m = v, v+1, ... in turn (dp times 1/(1 - x^v)): by
    running sums along the v residue chains if v*v <= len(dp), else v at a time."""
    if v * v <= len(dp):
        for r in range(v):
            dp[r::v] = itertools.accumulate(dp[r::v])
    else:
        for m in range(v, len(dp), v):
            dp[m:m + v] = map(operator.add, dp[m:m + v], dp[m - v:m])


def _build_part_table(name: str, horizon: int) -> list[int]:
    """rho(A, n) for n <= horizon, A the set of ``name``, by coin change: a pass per element."""
    dp = [0] * (horizon + 1)
    dp[0] = 1
    for v in elements(name, horizon):
        _add_multiples(dp, v)
    return dp


def _build_pm_table(name: str, horizon: int) -> list[int]:
    """rho(A, n) for n <= horizon, A = {x == +-r (mod M)} minus exclusions (``name``), 2r != M.

    By the Jacobi triple product (Andrews, The Theory of Partitions,
    Thm 2.8) the product of 1/(1 - x^v) over v == +-r (mod M) is E/theta,
    where E = sum_j (-1)^j x^(M j(3j-1)/2) (Euler's pentagonal series in
    x^M) and theta = sum_k (-1)^k x^(M k(k-1)/2 + r k), both over all
    integers j, k.  The table solves theta * Q = E entry by entry, then
    each excluded value v multiplies it by (1 - x^v).
    """
    M, residues, exclusions = _fields(name)
    r = min(residues)
    euler = [0] * (horizon + 1)
    euler[0] = 1
    odd, even = [], []  # exponents of theta's terms k != 0, by the parity of k
    k = 1
    # theta's smallest exponent for +-k is M k(k-1)/2 + r k (r < M/2), which
    # is below E's smallest, M k(3k-1)/2, so this bound covers both series
    while M * k * (k - 1) // 2 + r * k <= horizon:
        sign, terms = (-1, odd) if k % 2 else (1, even)
        for e in (M * k * (3 * k - 1) // 2, M * k * (3 * k + 1) // 2):
            if e <= horizon:
                euler[e] = sign
        for e in (M * k * (k - 1) // 2 + r * k, M * k * (k + 1) // 2 - r * k):
            if e <= horizon:
                terms.append(e)
        k += 1
    # theta * Q = E: q[n] = E[n] + sum over odd k - sum over even k of q[n - e_k]
    q = [0] * (horizon + 1)
    start = 0
    for end in sorted({*odd, *even, horizon + 1}):  # the terms in use change only here
        plus = [e for e in odd if e <= start]
        minus = [e for e in even if e <= start]
        for n in range(start, end):
            total = euler[n]
            for e in plus:
                total += q[n - e]
            for e in minus:
                total -= q[n - e]
            q[n] = total
        start = end
    for v in exclusions:
        if v <= horizon:
            q[v:] = map(operator.sub, q[v:], q[:horizon - v + 1])
    return q


def _build_gap_table(a: int, d: int, horizon: int) -> list[int]:
    # off_k = a k + d k(k-1)/2 for k = 0..K, the k with off_k <= horizon
    offsets = list(itertools.takewhile(horizon.__ge__,
                                       itertools.accumulate(itertools.count(a, d), initial=0)))
    # Horner from k = K down, T = 1 at first: T <- 1 + x^(off_k - off_(k-1)) T / (1 - x^k),
    # padded so that T always reaches exponent horizon - off_(k-1)
    table = [1] + [0] * (horizon - offsets[-1])
    for k in range(len(offsets) - 1, 0, -1):
        _add_multiples(table, k)
        table = [1] + [0] * (offsets[k] - offsets[k - 1] - 1) + table
    return table


def _build_g_table(d: int, horizon: int) -> list[int]:
    """G(d, n) for n <= horizon: pairs (D, U) of total weight n, D distinct
    parts == d+2^(r-1) (mod 2d), U an unrestricted multiset over T(r-1, d),
    where r = r_of(d).  For d >= 63 and n >= 5d this sits between q_d^(1)(n)
    above and rho(T(5,d); n) below, which is the chain the tests pin down."""
    r = r_of(d)
    if r < 2:
        raise RefusedInput(f"kind g: need r_of(d) >= 2, got d={d}")
    dp = _build_part_table(t_set(r - 1, d), horizon)
    for v in range(d + 2 ** (r - 1), horizon + 1, 2 * d):  # distinct parts, dp times (1 + x^v)
        dp[v:] = map(operator.add, dp[v:], dp[:horizon - v + 1])
    return dp


def check_horizon(n: int) -> None:
    """Refuse a table over 0..n beyond ``MAX_HORIZON``."""
    if n > MAX_HORIZON:
        raise RefusedInput(f"n={n} is beyond the table horizon cap {MAX_HORIZON}")


def q_name(a: int, d: int) -> str:
    """The name of the q_d^(a) table, refused outside its domain a >= 1, d >= 1."""
    if a < 1 or d < 1:
        raise RefusedInput(f"need a >= 1 and d >= 1, got a={a}, d={d}")
    return f"q.a{a}.d{d}"


def g_name(d: int) -> str:
    """The name of the G(d, .) table (``_build_g_table``)."""
    return f"g.d{d}"


def rho_name(modulus: int, residues, exclusions=()) -> str:
    """The name of rho over {x >= 1 : x mod modulus in residues} minus exclusions,
    each without repeats: the modulus, then the residues and exclusions (if
    any), increasing, such as ``rho.m303.r5,298.x298``."""
    rs = ",".join([str(r) for r in sorted(residues)])
    es = ",".join([str(e) for e in sorted(exclusions)])
    return f"rho.m{modulus}.r{rs}.x{es}" if es else f"rho.m{modulus}.r{rs}"


def big_q_name(a: int, d: int, minus: int) -> str:
    """The name of Q_d^(a) (``minus`` 0), Q_d^(a,-) (1) or Q_d^(a,--) (2), for 1 <= a < d+3."""
    if a < 1:
        raise RefusedInput(f"need 1 <= a < d+3, got a={a}, d={d}")
    if a >= d + 3:
        raise RefusedInput(f"Q undefined for a = {a} >= d+3 = {d + 3}")
    return rho_name(d + 3, {a, d + 3 - a}, ((), {d + 3 - a}, {a, d + 3 - a})[minus])


def t_set(s: int, d: int) -> str:
    """The name of rho over T(s, d): x == 1, d+2, d+4, ..., d+2^(s-1) (mod 2d).

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
    return rho_name(2 * d, {1} | {d + 2 ** j for j in range(1, s)})


def s_set(d: int, N: int) -> str:
    """The name of rho over S(d, N): x == +-1 (mod d-N+3), minus the value d-N+2."""
    return _s_set(d - N + 3)


@functools.lru_cache(maxsize=None)  # for speed: 10^5 shift rows 1.5 s, 1.9 s uncached
def _s_set(m: int) -> str:
    if m < 3:
        raise RefusedInput(f"modulus d-N+3 = {m} < 3")
    return rho_name(m, {1, m - 1}, {m - 1})


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
    """Closed form for the i-th smallest element of S(d, N) (``s_set``).

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
    """Closed form for the i-th smallest element of T(5, d) (``t_set``).

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


def _fields(name: str) -> tuple[int, list[int], list[int]]:
    """The modulus, residues and exclusions of the rho table ``name``."""
    _, m, r, *x = name.split(".")
    ints = lambda field: [int(v) for v in field[1:].split(",")]
    return int(m[1:]), ints(r), ints(x[0]) if x else []


def elements(name: str, limit: int) -> list[int]:
    """The members <= limit of the set of the rho table ``name``, increasing:
    the one enumeration of a part set.  Each residue class is a ``range``
    stepped by the modulus; they are merged and the exclusions dropped."""
    m, residues, exclusions = _fields(name)
    merged = sorted(itertools.chain.from_iterable(
        range(r or m, limit + 1, m) for r in residues))
    return [v for v in merged if v not in exclusions]


def _build(name: str, horizon: int) -> list[int]:
    """The counts 0..horizon of the table ``name``, by the builder it names."""
    kind, *fields = name.split(".")
    if kind == "rho":
        M, residues, _ = _fields(name)
        pm = len(residues) == 2 and sum(residues) == M  # +-r (mod M), 2r != M
        return (_build_pm_table if pm else _build_part_table)(name, horizon)
    build = _build_gap_table if kind == "q" else _build_g_table
    return build(*(int(field[1:]) for field in fields), horizon)


def column(name: str, n: int) -> memoryview | tuple[int, ...]:
    """The table ``name`` over 0..n or more: the held one, or one loaded
    from the cache or built, then held: read-only 64-bit words (a
    ``memoryview``) if every count fits one, else a tuple of ints."""
    tab = _tables.get(name)
    if tab is not None and len(tab) > n:
        return tab
    check_horizon(n)
    # doubling: a caller that reads ascending n builds once per doubling, not per n
    horizon = min(max(n, 64, 2 * (len(tab) - 1) if tab is not None else 0), MAX_HORIZON)
    values = None
    if _cache_dir:
        from . import cache  # only --cache runs load it
        values = cache.load(_cache_dir, name, horizon)
    if values is None:
        values = _build(name, horizon)
        try:  # struct packs exactly the counts in [0, 2^64), so words are exact
            values = memoryview(struct.pack(f"{len(values)}Q", *values)).cast("Q")
        except struct.error:
            values = tuple(values)
        if _cache_dir:
            cache.store(_cache_dir, name, values)
    _tables[name] = values
    return values


def release(name: str) -> None:
    """Drop the table ``name``, if one is held."""
    _tables.pop(name, None)


def rho(name: str, n: int) -> int:
    """Number of partitions of n with all parts in the set of the rho table
    ``name`` (rho(A, 0) = 1)."""
    check_n(n)
    return column(name, n)[n]


def largest_part_counts(name: str, ns, i_max: int) -> list[list[int]]:
    """Count partitions of each n of ``ns`` over the set A of the rho table
    ``name`` by largest part, for parts x_1..x_{i_max}, in one coin-change
    pass to the largest n.

    Entry j (0-based) of n's list counts partitions whose largest part is
    the (j+1)-th smallest element of A; rho(A, n) equals the total plus [n == 0].
    """
    top = max(ns)
    dp = [0] * (top + 1)
    dp[0] = 1
    out = [[0] * i_max for _ in ns]  # an index past the elements up to n counts none
    for j, v in enumerate(elements(name, top)[:i_max]):
        _add_multiples(dp, v)
        for counts, n in zip(out, ns):
            if v <= n:
                counts[j] = dp[n - v]
    return out
