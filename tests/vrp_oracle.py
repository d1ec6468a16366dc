"""Exact VRP oracle for small instances: every partition of the stops
into trips, and every order within each trip.

It builds the solver's own instance context, so it checks capacity,
shift and reachability as ``mswplan.vrp.solve_vrp`` does, and returns
the plan ``solve_vrp`` would if its search were exhaustive. The tests
hold the heuristic to it.
"""

from __future__ import annotations

import math
from itertools import permutations

from mswplan.coverage import StopPoint
from mswplan.network import CostMatrix
from mswplan.vrp import (FleetSpec, RoutePlan, _Ctx, _pack_plan,
                         _validate_instance)


def _set_partitions(items: list[int]):
    """All partitions of items into non-empty blocks, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]


def brute_force_vrp(
    matrix: CostMatrix,
    stops: list[StopPoint],
    depot: int,
    fleet: FleetSpec,
) -> RoutePlan:
    """Exact optimum by enumerating stop partitions and orderings.

    Refuses more than 8 stops (4140 partitions) with a ValueError.
    """
    if len(stops) > 8:
        raise ValueError(f"{len(stops)} stops exceed the 8-stop oracle limit")
    ctx = _Ctx(matrix, stops, depot, fleet)
    _validate_instance(ctx)
    ids = sorted(ctx.stops)
    best_seqs: list[list[int]] | None = None
    best_cost = math.inf
    for partition in _set_partitions(ids):
        total = 0.0
        orders: list[list[int]] = []
        feasible = True
        for block in partition:
            if not ctx.load_ok(block):
                feasible = False
                break
            block_best: list[int] | None = None
            block_cost = math.inf
            for perm in permutations(block):
                seq = list(perm)
                if not ctx.shift_ok(seq):
                    continue
                c = ctx.drive_cost(seq)
                if c < block_cost:
                    block_cost, block_best = c, seq
            if block_best is None:
                feasible = False
                break
            total += block_cost
            orders.append(block_best)
            if total >= best_cost:
                feasible = False
                break
        if feasible and total < best_cost:
            best_cost, best_seqs = total, orders
    assert best_seqs is not None  # singleton partition is always feasible
    return _pack_plan(ctx, best_seqs)
