"""Exact rule oracles, written from the rules' definitions.

Every function here works in exact rational arithmetic and imports nothing
from `rivershare`, so a test that compares the package with these oracles
compares it with code that shares none of its checks or kernels.  The rule
oracles distribute each inflow to its recipients one by one, a different
shape of computation than the package's running-prefix kernel.
"""

from __future__ import annotations

from fractions import Fraction


def oracle_nt(e):
    return [Fraction(v) for v in e]


def oracle_eft(e):
    n = len(e)
    x = [Fraction(0)] * n
    for j, v in enumerate(e):
        v = Fraction(v)
        receivers = range(j + 1, n)
        if receivers:
            part = v / len(receivers)
            for k in receivers:
                x[k] += part
        else:
            x[j] += v  # the terminal agent has nobody downstream
    return x


def oracle_shapley(e):
    n = len(e)
    x = [Fraction(0)] * n
    for j, v in enumerate(e):
        part = Fraction(v) / (n - j)
        for k in range(j, n):
            x[k] += part
    return x


def oracle_ept(e):
    # literal simulation: cut each inflow into n-1 parts, send one part to
    # each downstream agent, keep the parts matched to upstream agents
    n = len(e)
    x = [Fraction(0)] * n
    for i, v in enumerate(e):
        part = Fraction(v) / (n - 1)
        x[i] += part * i
        for k in range(i + 1, n):
            x[k] += part
    return x


def oracle_mix(weight, a, b):
    w = Fraction(weight)
    return [w * ai + (1 - w) * bi for ai, bi in zip(a, b)]


def oracle_retention(e, alphas):
    n = len(e)
    x = [Fraction(0)] * n
    for i, v in enumerate(e):
        v = Fraction(v)
        keep = v if i == n - 1 else Fraction(alphas[i]) * v
        x[i] += keep
        released = v - keep
        for k in range(i + 1, n):
            x[k] += released / (n - 1 - i)
    return x


def named_shares(kind: str, n: int, weight=None) -> list[Fraction]:
    """The retention share of each non-terminal position k of an n-agent
    river under the named rule, as the rule's definition states it.

    `kind` is a rule label's head: nt keeps everything, eft nothing,
    `compromise` the weight w, ept k/(n-1), `partial` w + (1-w)·k/(n-1),
    and the Shapley rule 1/(n-k).  A float weight is taken at its exact
    value.
    """
    positions = range(n - 1)
    if kind == "nt":
        return [Fraction(1) for _ in positions]
    if kind == "eft":
        return [Fraction(0) for _ in positions]
    if kind == "ept":
        return [Fraction(k, n - 1) for k in positions]
    if kind == "shapley":
        return [Fraction(1, n - k) for k in positions]
    w = Fraction(weight)
    if kind == "compromise":
        return [w for _ in positions]
    if kind == "partial":
        return [w + (1 - w) * Fraction(k, n - 1) for k in positions]
    raise ValueError(f"no named rule {kind!r}")
