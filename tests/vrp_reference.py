"""Reference local search: the full-recompute descent that
``mswplan.vrp._improve_seqs`` replaced, kept verbatim.

Every candidate move is priced by recomputing the changed trips in
full with ``drive_cost``. ``tests/test_vrp_delta.py`` requires the
delta-evaluated descent to return exactly the same sequences. Run it on
``full_recompute(ctx)``, whose ``drive_cost`` looks every leg up by node
id as the original did, so the reference shares no cost path with the
code under test.
"""

from __future__ import annotations

from mswplan.vrp import _EPS, _canonical, _Ctx, _seq_feasible


class _FullRecomputeCtx(_Ctx):
    def drive_cost(self, seq: list[int]) -> float:
        nodes = [self.depot] + [self.node_of[s] for s in seq] + [self.depot]
        return sum(self.c(a, b) for a, b in zip(nodes[:-1], nodes[1:]))


def full_recompute(ctx: _Ctx) -> _Ctx:
    """The same instance with the original node-id ``drive_cost``."""
    ref = object.__new__(_FullRecomputeCtx)
    ref.__dict__.update(ctx.__dict__)
    return ref


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
