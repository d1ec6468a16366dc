"""Reference solver steps: the node-id construction and the
full-recompute descent that ``mswplan.vrp`` replaced, kept verbatim but
for the insertion's starting trips, which ruin and recreate needs.

Every candidate move is priced by recomputing the changed trips in
full with ``drive_cost``, and construction reads each cost by node id
through ``c``. ``tests/test_vrp_delta.py`` requires the position-based
construction and the delta-evaluated descent to return exactly the same
sequences. Run them on ``full_recompute(ctx, matrix)``, which reads
``matrix.cost`` by node id, so the reference shares no cost table with
the code under test.
"""

from __future__ import annotations

from collections.abc import Iterable

from mswplan.network import CostMatrix
from mswplan.vrp import _EPS, _canonical, _Ctx, _seq_feasible


class _FullRecomputeCtx(_Ctx):
    def c(self, a: int, b: int) -> float:
        return self.matrix_cost[self._row[a]][self._col[b]]

    def drive_cost(self, seq: list[int]) -> float:
        nodes = [self.depot] + [self.node_of[s] for s in seq] + [self.depot]
        return sum(self.c(a, b) for a, b in zip(nodes[:-1], nodes[1:]))


def full_recompute(ctx: _Ctx, matrix: CostMatrix) -> _Ctx:
    """The same instance with node-id cost lookups into ``matrix``."""
    ref = object.__new__(_FullRecomputeCtx)
    ref.__dict__.update(ctx.__dict__)
    ref.node_of = {s.id: s.node for s in ctx.stops.values()}
    ref.matrix_cost = matrix.cost
    ref._row = {nid: i for i, nid in enumerate(matrix.origins)}
    ref._col = {nid: i for i, nid in enumerate(matrix.destinations)}
    return ref


def _clarke_wright_seqs(ctx: _Ctx) -> list[list[int]]:
    ids = sorted(ctx.stops)
    routes: dict[int, list[int]] = {sid: [sid] for sid in ids}
    head_of = {sid: sid for sid in ids}  # stop -> route id where it is first
    tail_of = {sid: sid for sid in ids}  # stop -> route id where it is last
    savings = []
    for i in ids:
        for j in ids:
            if i == j:
                continue
            ni, nj = ctx.node_of[i], ctx.node_of[j]
            s = ctx.c(ctx.depot, ni) + ctx.c(nj, ctx.depot) - ctx.c(ni, nj)
            savings.append((s, i, j))
    savings.sort(key=lambda t: (-t[0], t[1], t[2]))
    for s, i, j in savings:
        if s <= 0:
            break
        ra = tail_of.get(i)
        rb = head_of.get(j)
        if ra is None or rb is None or ra == rb:
            continue
        merged = routes[ra] + routes[rb]
        if not _seq_feasible(ctx, merged):
            continue
        routes[ra] = merged
        del routes[rb]
        del tail_of[i]
        del head_of[j]
        tail_of[merged[-1]] = ra
        head_of[merged[0]] = ra
    return _canonical(list(routes.values()))


def _cheapest_insertion_seqs(ctx: _Ctx, order: list[int],
                             seqs: Iterable[list[int]] = ()) -> list[list[int]]:
    seqs = [list(s) for s in seqs if s]
    for sid in order:
        best: tuple[float, int, int] | None = None
        node = ctx.node_of[sid]
        for ti, seq in enumerate(seqs):
            nodes = [ctx.depot] + [ctx.node_of[s] for s in seq] + [ctx.depot]
            for pos in range(len(seq) + 1):
                a, b = nodes[pos], nodes[pos + 1]
                delta = ctx.c(a, node) + ctx.c(node, b) - ctx.c(a, b)
                if best is not None and delta >= best[0]:
                    continue
                cand = seq[:pos] + [sid] + seq[pos:]
                if _seq_feasible(ctx, cand):
                    best = (delta, ti, pos)
        if best is None:
            seqs.append([sid])
        else:
            _, ti, pos = best
            seqs[ti] = seqs[ti][:pos] + [sid] + seqs[ti][pos:]
    return seqs


def _improve_seqs(ctx: _Ctx, seqs: list[list[int]], max_moves: int) -> list[list[int]]:
    """First-improvement descent with 2-opt and Or-opt moves."""
    seqs = [list(s) for s in seqs if s]
    moves = 0

    def try_two_opt() -> bool:
        for t, seq in enumerate(seqs):
            n = len(seq)
            if n < 2:
                continue
            base = ctx.drive_cost(seq)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    cand = seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]
                    if ctx.drive_cost(cand) < base - _EPS and ctx.shift_ok(cand):
                        seqs[t] = cand
                        return True
        return False

    def try_or_opt() -> bool:
        for a, seq_a in enumerate(seqs):
            for seg_len in (1, 2):
                for p in range(len(seq_a) - seg_len + 1):
                    seg = seq_a[p:p + seg_len]
                    rest_a = seq_a[:p] + seq_a[p + seg_len:]
                    cost_a_old = ctx.drive_cost(seq_a)
                    for b in range(len(seqs)):
                        if b == a:
                            for q in range(len(rest_a) + 1):
                                if q == p:
                                    continue
                                cand = rest_a[:q] + seg + rest_a[q:]
                                if (ctx.drive_cost(cand) < cost_a_old - _EPS
                                        and ctx.shift_ok(cand)):
                                    seqs[a] = cand
                                    return True
                        else:
                            seq_b = seqs[b]
                            if not rest_a and not seq_b:
                                continue
                            cost_b_old = ctx.drive_cost(seq_b)
                            cost_a_new = ctx.drive_cost(rest_a) if rest_a else 0.0
                            for q in range(len(seq_b) + 1):
                                cand_b = seq_b[:q] + seg + seq_b[q:]
                                delta = (cost_a_new + ctx.drive_cost(cand_b)
                                         - cost_a_old - cost_b_old)
                                if delta >= -_EPS:
                                    continue
                                if not _seq_feasible(ctx, cand_b):
                                    continue
                                if rest_a and not ctx.shift_ok(rest_a):
                                    continue
                                seqs[a] = rest_a
                                seqs[b] = cand_b
                                return True
        return False

    while moves < max_moves:
        if try_two_opt() or try_or_opt():
            moves += 1
            seqs = [s for s in seqs if s]
            continue
        break
    return _canonical(seqs)
