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
read them from there. EE-degrees are only needed by the Type I rules,
so the iterative driver counts them itself.
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
    ``d_ss[i]``/``d_es[i]`` are d_S and d_ext of ``s_list[i]``, and
    ``d_se[j]`` is d_S of ``ext_list[j]``. ``se_prefix[t]`` is the sum
    of the t largest SE-degrees (the order Lemma 2 requires).
    """

    __slots__ = ("s_list", "ext_list", "d_ss", "d_es", "d_se", "sum_ss",
                 "se_prefix")

    def __init__(self, g: LocalGraph, S: int, ext: int):
        adj = g.adj
        self.s_list = list(bits(S))
        self.ext_list = list(bits(ext))
        self.d_ss = [(adj[v] & S).bit_count() for v in self.s_list]
        self.d_es = [(adj[v] & ext).bit_count() for v in self.s_list]
        self.d_se = [(adj[u] & S).bit_count() for u in self.ext_list]
        self.sum_ss = sum(self.d_ss)
        self.se_prefix = list(accumulate(sorted(self.d_se, reverse=True), initial=0))


def upper_bound(snap: DegreeSnapshot, gam: Gamma) -> int | None:
    """U_S of Eq (4), or ``None`` when no valid t exists (a Type II
    pruning of S's *extensions*; G(S) itself stays a candidate).

    Requires S non-empty and γ > 0 (the paper's regime is γ ≥ 0.5).
    """
    s = len(snap.s_list)
    d_min = min(a + b for a, b in zip(snap.d_ss, snap.d_es))
    u_min = gam.floor_div(d_min) + 1 - s  # Eq (3)
    u_cap = min(u_min, len(snap.ext_list))
    if u_cap < 1:
        return None
    sum_ss, prefix = snap.sum_ss, snap.se_prefix
    for t in range(u_cap, 0, -1):  # Eq (4): the max t satisfying Lemma 2
        if sum_ss + prefix[t] >= s * gam.ceil_mul(s + t - 1):
            return t
    return None


def lower_bound(snap: DegreeSnapshot, gam: Gamma) -> int | None:
    """L_S of Eq (8), or ``None`` when no valid t exists (a Type II
    pruning of S *and* its extensions)."""
    s = len(snap.s_list)
    n_ext = len(snap.ext_list)
    d_s_min = min(snap.d_ss)
    l_min = None
    for t in range(0, n_ext + 1):  # Eq (7)
        if d_s_min + t >= gam.ceil_mul(s + t - 1):
            l_min = t
            break
    if l_min is None:
        return None
    sum_ss, prefix = snap.sum_ss, snap.se_prefix
    for t in range(l_min, n_ext + 1):  # Eq (8): the min t satisfying Lemma 2
        if sum_ss + prefix[t] >= s * gam.ceil_mul(s + t - 1):
            return t
    return None


def critical_vertices(snap: DegreeSnapshot, gam: Gamma, l_s: int) -> list[int]:
    """Definition 4: v ∈ S with d_S(v) + d_ext(v) == ceil(γ(|S|+L_S-1)).
    Any valid extension must then absorb all of N_ext(v) (Theorem 9)."""
    need = gam.ceil_mul(len(snap.s_list) + l_s - 1)
    return [
        v for v, d_ss, d_es in zip(snap.s_list, snap.d_ss, snap.d_es)
        if d_ss + d_es == need
    ]


def cover_set(g: LocalGraph, S: int, ext: int, gam: Gamma, u: int) -> int | None:
    """C_S(u) of Eq (9) for a candidate cover vertex u ∈ ext, or ``None``
    when (P7)'s applicability conditions fail:
    d_S(u) ≥ ceil(γ|S|) and every non-neighbor v ∈ S of u has
    d_S(v) ≥ ceil(γ|S|)."""
    s = S.bit_count()
    thr = gam.ceil_mul(s)
    if (g.adj[u] & S).bit_count() < thr:
        return None
    c = g.adj[u] & ext
    for v in bits(S & ~g.adj[u]):
        if (g.adj[v] & S).bit_count() < thr:
            return None
        c &= g.adj[v]
    return c


def best_cover_vertex(
    g: LocalGraph, S: int, ext: int, gam: Gamma
) -> tuple[int | None, int]:
    """(P7): the u ∈ ext maximizing |C_S(u)|, with the short-circuit the
    paper describes — skip u once |N_ext(u)| cannot beat the current
    best. Degenerate case S = ∅: C = N(u) ∩ ext, u of max degree.
    Returns (u, C_mask); (None, 0) when no cover vertex applies."""
    best_u, best_c, best_sz = None, 0, 0
    for u in bits(ext):
        if (g.adj[u] & ext).bit_count() <= best_sz:
            continue
        c = cover_set(g, S, ext, gam, u) if S else (g.adj[u] & ext)
        if c is not None and c.bit_count() > best_sz:
            best_u, best_c, best_sz = u, c, c.bit_count()
    return best_u, best_c
