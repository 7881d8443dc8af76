"""Independent oracles that the tests pin the counters to.

Plain recursive enumeration, exponential in n, so each refuses n beyond a
limit unless the caller raises it.
"""

from alder.partset import RefusedInput, ResidueClassSet

#: refuse brute-force enumeration beyond this unless the caller raises it
DEFAULT_BRUTE_LIMIT = 60


def rho_brute(A: ResidueClassSet, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Oracle for rho: plain recursive enumeration of part multisets."""
    if n > limit:
        raise RefusedInput(f"rho_brute: n={n} beyond oracle limit {limit}")
    elements = A.elements_upto(n)

    def walk(remaining: int, max_idx: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for idx in range(max_idx, -1, -1):
            v = elements[idx]
            if v <= remaining:
                total += walk(remaining - v, idx)
        return total

    return walk(n, len(elements) - 1) if n else 1


def q_brute(a: int, d: int, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Oracle for q_count: enumerate gap->=d part lists smallest-part first."""
    if n > limit:
        raise RefusedInput(f"q_brute: n={n} beyond oracle limit {limit}")

    def walk(remaining: int, lo: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for p in range(lo, remaining + 1):
            total += walk(remaining - p, p + d)
        return total

    return walk(n, a)


def q_lower_bound(d: int, n: int) -> int:
    """max(1, floor((n-d)/2) + 1), a floor for q_d^(1)(n): the partition n
    itself plus the two-part splits (n-k) + k with k <= (n-d)/2."""
    if d < 1 or n < 1:
        raise RefusedInput(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    return max(1, (n - d) // 2 + 1)
