"""Quick+ — the paper's recursive maximal quasi-clique miner (Section 6).

One :class:`Miner` instance mines one *task subgraph* (a compact-id
:class:`LocalGraph`). It implements:

* ``iterative_bounding`` — Algorithm 2: the fixed-point loop over the
  (P3)–(P6) rules, including the critical-vertex movement and the
  boundary cases Quick+ fixes.
* ``mine`` — Algorithm 3: cover-vertex ordering (P7), lookahead,
  diameter shrink (P1), recursion. With a ``deadline`` it is
  Algorithm 10: once ``time.perf_counter()`` passes the deadline, every
  surviving branch is wrapped as a subtask instead of recursed into
  (Figure 9). A deadline already past (``-inf``) wraps every surviving
  top-level branch, which is Algorithm 8's one level of eager
  decomposition.

One switch, ``quick_plus``, selects the kernel: ``False`` runs the
original Quick algorithm (Table 15), without the Quick+ additions the
paper lists: multi-critical-vertex batching, the G(S) checks on the
boundary/empty-ext paths and before a critical move, the ascending-d_S
lookahead order, and (in :func:`repro.gthinker.engine.spawn_all`) the
degenerate (P7) spawn rule. The miner refuses γ < 0.5
(:func:`repro.core.gamma.make_mining_gamma`), since the (P1) shrink
assumes diameter ≤ 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from time import perf_counter

from .bitset import bits
from .bounds import (
    DegreeSnapshot,
    best_cover_vertex,
    critical_vertices,
    lower_bound,
    upper_bound,
)
from .gamma import Gamma, make_mining_gamma
from .graph import LocalGraph

__all__ = ["MineStats", "Miner"]


@dataclass
class MineStats:
    """Counters + per-phase timers (Table 16) for one mining run."""

    n_emitted: int = 0
    n_recursive_calls: int = 0
    n_subtasks: int = 0
    n_lookahead_hits: int = 0
    n_type1_pruned: int = 0
    n_type2_pruned: int = 0
    n_critical_moves: int = 0
    n_cover_pruned: int = 0  # ext vertices parked in C_S(u) tails
    t_lookahead: float = 0.0
    t_cover: float = 0.0
    t_critical: float = 0.0
    t_bounds: float = 0.0

    def merge(self, other: "MineStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class Miner:
    """Mines one task subgraph. ``results`` collects vertex-index
    frozensets (compact ids — callers map back to global ids);
    ``subtasks`` collects the (S_mask, ext_mask) pairs :meth:`mine`
    wraps once its deadline has passed. ``quick_plus=False`` mines as Quick.
    Raises ``ValueError`` for γ < 0.5."""

    g: LocalGraph
    gamma: Gamma
    tau_size: int
    quick_plus: bool = True
    results: set = field(default_factory=set)
    subtasks: list = field(default_factory=list)
    stats: MineStats = field(default_factory=MineStats)

    def __post_init__(self):
        self.gamma = make_mining_gamma(self.gamma)
        self._two_hop_cache: dict[int, int] = {}
        # ceil(γ·x) by index for every x the kernel reads, which is at
        # most 2n (n = g.n). Each term below is a count of vertices of g:
        # s = |S| ≤ n; t ≤ |ext| ≤ n for t ∈ {U_S, L_S} and the t the
        # bound loops try; d_ext(v) ≤ n and d_ext(u) ≤ n. So s + t − 1,
        # s − 1 + d_ext(v) (Thm 4) and s + d_ext(u) (Thm 3) are all
        # ≤ 2n, s is ≤ n, and _is_qc reads |mask| − 1 < n. (With S and
        # ext disjoint, as the miner keeps them, all of them are ≤ n.)
        self._ceil = self.gamma.ceil_table(2 * self.g.n + 1)

    # ------------------------------------------------------------ util
    def _two_hop(self, v: int) -> int:
        m = self._two_hop_cache.get(v)
        if m is None:
            m = self.g.two_hop_mask(v)
            self._two_hop_cache[v] = m
        return m

    def _is_qc(self, mask: int) -> bool:
        """Degree test of Definition 1. Connectivity is implied for
        γ ≥ 0.5 (diameter ≤ 2), the only γ the miner accepts."""
        s = mask.bit_count()
        if s == 0:
            return False
        need = self._ceil[s - 1]
        adj = self.g.adj
        rest = mask
        while rest:  # lowest bit first; stops at the first failing v
            low = rest & -rest
            if (adj[low.bit_length() - 1] & mask).bit_count() < need:
                return False
            rest ^= low
        return True

    def emit_if_valid(self, mask: int) -> bool:
        """Add G(mask) to ``results`` if it is a valid candidate (at
        least τ_size vertices, a γ-quasi-clique); returns whether it is."""
        if mask.bit_count() >= self.tau_size and self._is_qc(mask):
            key = frozenset(bits(mask))
            if key not in self.results:
                self.results.add(key)
                self.stats.n_emitted += 1
            return True
        return False

    def _ext_order(self, S: int, ext: int) -> list[int]:
        """Section 6.2 closing remark: ascending d_S, tie-broken by
        d_ext — so high-degree vertices stay in ext longer, maximizing
        lookahead hits. A Quick+ addition: Quick keeps ascending ids."""
        vs = bits(ext)
        if self.quick_plus:
            adj = self.g.adj
            vs.sort(key=lambda u: ((adj[u] & S).bit_count(), (adj[u] & ext).bit_count(), u))
        return vs

    # ------------------------------------------------- Algorithm 2
    def iterative_bounding(self, S: int, ext: int) -> tuple[bool, int, int]:
        """Returns (pruned, S', ext'): ``pruned`` is true iff extending
        S is pruned (Algorithm 2's return value); S may have grown by
        critical-vertex moves and ext may have shrunk. Guarantees
        ext' != 0 when ``pruned`` is false. Emits G(S) on the boundary
        paths exactly as Quick+ specifies."""
        gam, adj, stats, ceil = self.gamma, self.g.adj, self.stats, self._ceil
        while True:
            # --- one degree snapshot per round; bounds (P4, P5); Type II
            # may fire here (boundary fix)
            t0 = perf_counter()
            snap = DegreeSnapshot(self.g, S, ext)
            u_s = upper_bound(snap, gam, ceil)
            l_s = lower_bound(snap, ceil)
            stats.t_bounds += perf_counter() - t0
            if l_s is None:
                stats.n_type2_pruned += 1
                return True, S, ext  # S and extensions pruned, no emit
            if u_s is None:
                stats.n_type2_pruned += 1
                if self.quick_plus:  # Quick+ boundary fix
                    self.emit_if_valid(S)  # extensions pruned, S examined
                return True, S, ext
            if u_s < l_s:
                stats.n_type2_pruned += 1
                return True, S, ext  # L_S ≥ 1 here, so S itself invalid

            # --- critical vertices (P6), batched in Quick+
            t0 = perf_counter()
            crit = critical_vertices(snap, l_s, ceil)
            moved = 0
            for v in crit:
                m = adj[v] & ext
                moved |= m
                if m and not self.quick_plus:
                    break  # Quick moves one critical vertex per round
            stats.t_critical += perf_counter() - t0
            if moved:
                if self.quick_plus:
                    # Quick+ fix: G(S) may be maximal if the forced
                    # expansion leads nowhere — examine it first.
                    self.emit_if_valid(S)
                S |= moved
                ext &= ~moved
                stats.n_critical_moves += 1
                if ext == 0:
                    break  # fall through to the empty-ext epilogue
                continue  # degrees/bounds changed: restart the round

            # Right-hand sides of Theorems 5-8 are the same for every vertex.
            # Thm 6 needs d_S(v) ≥ need_u for v ∈ S, Thm 5 d_S(u) > need_u
            # for u ∈ ext.
            s = len(snap.s_list)
            need_u = ceil[s + u_s - 1] - u_s
            need_l = ceil[s + l_s - 1]  # Thms 7, 8
            need_s = ceil[s]  # Thm 4(i)

            # --- Type II rules (Theorems 4, 6, 8); d_all = d_S + d_ext
            ext_only_pruned = False
            for d_ss, d_all in zip(snap.d_ss, snap.d_all):
                if (
                    d_all < ceil[s - 1 + d_all - d_ss]  # Thm 4(ii)
                    or d_ss < need_u  # Thm 6
                    or d_all < need_l  # Thm 8
                ):
                    stats.n_type2_pruned += 1
                    return True, S, ext
                if d_all == d_ss and d_ss < need_s:  # Thm 4(i): d_ext(v) = 0
                    ext_only_pruned = True
            if ext_only_pruned:
                self.emit_if_valid(S)  # Alg 2 lines 13–16
                return True, S, ext

            # --- Type I rules (Theorems 3, 5, 7); EE-degrees only here
            removed = 0
            for u, d_se in zip(snap.ext_list, snap.d_se):
                if d_se <= need_u:  # Thm 5
                    removed |= 1 << u
                    continue
                d_ee = (adj[u] & ext).bit_count()
                if (
                    d_se + d_ee < ceil[s + d_ee]  # Thm 3
                    or d_se + d_ee < need_l  # Thm 7
                ):
                    removed |= 1 << u
            if removed:
                ext &= ~removed
                stats.n_type1_pruned += removed.bit_count()
            if ext == 0:
                break
            if not removed:
                return False, S, ext  # case C2: stable, extendable

        # case C1: ext exhausted — examine G(S) itself (Alg 2 lines 22–25)
        self.emit_if_valid(S)
        return True, S, ext

    # -------------------------------------------- Algorithms 3, 8, 10
    def mine(self, S: int, ext: int, deadline: float | None = None) -> bool:
        """Depth-first set-enumeration mining; returns True iff some
        valid quasi-clique strictly extending S was emitted. Once
        ``perf_counter() > deadline``, every surviving branch is wrapped
        as a subtask (appended to ``self.subtasks``), not recursed into."""
        gam, g, stats = self.gamma, self.g, self.stats
        stats.n_recursive_calls += 1
        found = False

        # (P7) cover-vertex pruning: park C_S(u) at the tail, never iterated
        t0 = perf_counter()
        _, c_mask = best_cover_vertex(g, S, ext, gam)
        stats.t_cover += perf_counter() - t0
        stats.n_cover_pruned += c_mask.bit_count()

        for v in self._ext_order(S, ext & ~c_mask):
            if not (ext >> v) & 1:
                continue  # pruned from ext by an earlier sibling's shrink
            if S.bit_count() + ext.bit_count() < self.tau_size:
                return found  # Alg 3 lines 6–7
            t0 = perf_counter()
            whole = self._is_qc(S | ext)
            stats.t_lookahead += perf_counter() - t0
            if whole:  # lookahead, Alg 3 lines 8–10
                stats.n_lookahead_hits += 1
                self.emit_if_valid(S | ext)
                return True

            s_new = S | (1 << v)
            ext &= ~(1 << v)  # side effect persists for later iterations
            ext_new = ext & self._two_hop(v)  # (P1) diameter shrink

            if ext_new == 0:
                if self.quick_plus:  # Quick+ fix (missed by Quick)
                    if self.emit_if_valid(s_new):
                        found = True
                continue

            pruned, s2, ext2 = self.iterative_bounding(s_new, ext_new)
            if pruned:
                continue  # any G(S') output happened inside bounding
            if s2.bit_count() + ext2.bit_count() < self.tau_size:
                continue

            if deadline is not None and perf_counter() > deadline:
                # Alg 8 lines 12–21 / Alg 10 lines 18–24: wrap as subtask;
                # the parent cannot see the child's results, so examine
                # G(S') now (postprocessing removes it if non-maximal).
                self.subtasks.append((s2, ext2))
                stats.n_subtasks += 1
                self.emit_if_valid(s2)
                continue

            sub_found = self.mine(s2, ext2, deadline)
            found = found or sub_found
            if not sub_found:  # Alg 3 lines 23–25
                if self.emit_if_valid(s2):
                    found = True
        return found
