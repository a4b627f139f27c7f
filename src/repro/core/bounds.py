"""Pruning-rule mathematics for Quick+ — Section 6.1 of the paper.

Pure functions over a :class:`~repro.core.graph.LocalGraph` and two
vertex-set masks ``S`` and ``ext(S)``. Everything here is exact integer
arithmetic (see :mod:`repro.core.gamma`); the iterative driver that
applies these rules lives in :mod:`repro.core.quickplus`.

Naming follows the paper:

* SS-degree ``d_S(v)`` for ``v ∈ S``; SE-degree ``d_S(u)`` for
  ``u ∈ ext(S)``; ES-degree ``d_ext(v)``; EE-degree ``d_ext(u)``.
* ``U_S`` — Eq (3)/(4) upper bound on how many ext vertices can join S.
* ``L_S`` — Eq (7)/(8) lower bound on how many must join S.

One bounding round counts the SS-, ES- and SE-degrees once, into a
:class:`DegreeSnapshot`; ``U_S``, ``L_S`` and the critical vertices
read them from there, and read ceil(γ·x) from the ceiling table the
caller passes (the miner builds one per task graph). EE-degrees are
only needed by the Type I rules, so the iterative driver counts them
itself. :func:`cover_set` takes its threshold ceil(γ|S|) the same way.
The functions serve the miner's regime γ ≥ 0.5, which
:func:`repro.core.gamma.make_mining_gamma` enforces.
"""
from __future__ import annotations

from itertools import accumulate

from .bitset import bits
from .gamma import Gamma
from .graph import LocalGraph

__all__ = [
    "DegreeSnapshot",
    "upper_bound",
    "lower_bound",
    "critical_vertices",
    "cover_set",
    "best_cover_vertex",
]


class DegreeSnapshot:
    """The degrees of one bounding round over ``(S, ext)``.

    ``s_list``/``ext_list`` hold the vertices in ascending order;
    ``d_ss[i]`` is d_S of ``s_list[i]`` and ``d_all[i]`` its
    d_S + d_ext (its degree in S ∪ ext; d_ext is the difference), and
    ``d_se[j]`` is d_S of ``ext_list[j]``. ``se_prefix[t]`` is the sum
    of the t largest SE-degrees (the order Lemma 2 requires).
    """

    __slots__ = ("s_list", "ext_list", "d_ss", "d_all", "d_se", "sum_ss",
                 "se_prefix")

    def __init__(self, g: LocalGraph, S: int, ext: int):
        adj = g.adj
        both = S | ext
        self.s_list = s_list = bits(S)
        self.ext_list = ext_list = bits(ext)
        self.d_ss = d_ss = [(adj[v] & S).bit_count() for v in s_list]
        self.d_all = d_all = [(adj[v] & both).bit_count() for v in s_list]
        self.d_se = d_se = [(adj[u] & S).bit_count() for u in ext_list]
        self.sum_ss = sum(d_ss)
        self.se_prefix = list(accumulate(sorted(d_se, reverse=True), initial=0))


def upper_bound(snap: DegreeSnapshot, gam: Gamma, ceil: list[int]) -> int | None:
    """U_S of Eq (4), or ``None`` when no valid t exists (a Type II
    pruning of S's *extensions*; G(S) itself stays a candidate).

    ``ceil[x]`` is ``gam.ceil_mul(x)`` for x < |S| + |ext| (the miner's
    table). Requires S non-empty and γ > 0.
    """
    s = len(snap.s_list)
    u_min = gam.floor_div(min(snap.d_all)) + 1 - s  # Eq (3)
    u_cap = min(u_min, len(snap.ext_list))
    if u_cap < 1:
        return None
    sum_ss, prefix = snap.sum_ss, snap.se_prefix
    for t in range(u_cap, 0, -1):  # Eq (4): the max t satisfying Lemma 2
        if sum_ss + prefix[t] >= s * ceil[s + t - 1]:
            return t
    return None


def lower_bound(snap: DegreeSnapshot, ceil: list[int]) -> int | None:
    """L_S of Eq (8), or ``None`` when no valid t exists (a Type II
    pruning of S *and* its extensions). ``ceil`` as in :func:`upper_bound`."""
    s = len(snap.s_list)
    n_ext = len(snap.ext_list)
    d_s_min = min(snap.d_ss)
    l_min = None
    for t in range(0, n_ext + 1):  # Eq (7)
        if d_s_min + t >= ceil[s + t - 1]:
            l_min = t
            break
    if l_min is None:
        return None
    sum_ss, prefix = snap.sum_ss, snap.se_prefix
    for t in range(l_min, n_ext + 1):  # Eq (8): the min t satisfying Lemma 2
        if sum_ss + prefix[t] >= s * ceil[s + t - 1]:
            return t
    return None


def critical_vertices(snap: DegreeSnapshot, l_s: int, ceil: list[int]) -> list[int]:
    """Definition 4: v ∈ S with d_S(v) + d_ext(v) == ceil(γ(|S|+L_S-1)).
    Any valid extension must then absorb all of N_ext(v) (Theorem 9).
    ``ceil`` as in :func:`upper_bound`."""
    need = ceil[len(snap.s_list) + l_s - 1]
    return [v for v, d in zip(snap.s_list, snap.d_all) if d == need]


def cover_set(adj: list[int], S: int, ext: int, thr: int, u: int) -> int | None:
    """C_S(u) of Eq (9) for a candidate cover vertex u ∈ ext, or ``None``
    when (P7)'s applicability conditions fail: d_S(u) ≥ ``thr`` and every
    non-neighbor v ∈ S of u has d_S(v) ≥ ``thr``, where ``thr`` is
    ceil(γ|S|)."""
    if (adj[u] & S).bit_count() < thr:
        return None
    c = adj[u] & ext
    rest = S & ~adj[u]
    while rest:  # lowest bit first; stops at the first failing v
        low = rest & -rest
        a = adj[low.bit_length() - 1]
        if (a & S).bit_count() < thr:
            return None
        c &= a
        rest ^= low
    return c


def best_cover_vertex(
    g: LocalGraph, S: int, ext: int, gam: Gamma
) -> tuple[int | None, int]:
    """(P7): the u ∈ ext maximizing |C_S(u)|, with the short-circuit the
    paper describes — skip u once |N_ext(u)| cannot beat the current
    best. Degenerate case S = ∅: C = N(u) ∩ ext, u of max degree.
    Returns (u, C_mask); (None, 0) when no cover vertex applies."""
    adj = g.adj
    thr = gam.ceil_mul(S.bit_count())
    best_u, best_c, best_sz = None, 0, 0
    for u in bits(ext):
        if (adj[u] & ext).bit_count() <= best_sz:
            continue
        c = cover_set(adj, S, ext, thr, u) if S else (adj[u] & ext)
        if c is not None and c.bit_count() > best_sz:
            best_u, best_c, best_sz = u, c, c.bit_count()
    return best_u, best_c
