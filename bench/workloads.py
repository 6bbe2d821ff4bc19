"""The benchmark's workloads: inputs built through the library, one operation each.

Each workload has ``setup(lib, seed) -> state`` and ``op(lib, state, j) ->
output``, where ``lib`` is the imported ``verialloc`` package and ``j``
numbers the operations of a run (0 is the untimed warm-up).  Library
functions are looked up on ``lib`` at call time so a traced run sees the
wrapped entry points.
"""

from __future__ import annotations

import itertools

import numpy as np

# the optimal guarantee of the paper's instance (n, m, k) = (3, 2, 1),
# uniform types, as solve() reports it; used as a fixed input, not re-solved
PHI_PAPER = 0.3476444268803009

# (n, m, k, alpha); alpha = 1 is the uniform distribution
SOLVE_INSTANCES = (
    (3, 2, 1, 1.0),
    (12, 6, 2, 0.3),
    (40, 10, 3, 4.0),
    (100, 40, 10, 1.0),
)
SIM_TRIALS = 100_000
SYMMETRIC_BINS = 64
AUDIT_BINS = 16
AUDIT_DAMPING = 1e-6
AUDIT_INFLATION = 0.05


def make_instance(lib, n: int, m: int, k: int, alpha: float):
    dist = lib.make_uniform() if alpha == 1.0 else lib.make_power(alpha)
    return lib.ProblemInstance(n, m, k, dist)


def sim_seed(seed: int, j: int) -> int:
    """Seed of operation j: every operation of a run simulates fresh profiles."""
    return seed * 1000 + j


# -- solve -------------------------------------------------------------------

def setup_solve(lib, seed: int) -> dict:
    return {"instances": [make_instance(lib, *spec) for spec in SOLVE_INSTANCES],
            "specs": SOLVE_INSTANCES}


def op_solve(lib, state: dict, j: int):
    return [lib.solve(inst) for inst in state["instances"]]


# -- simulate ----------------------------------------------------------------

def setup_simulate(lib, seed: int) -> dict:
    return {"inst": make_instance(lib, 3, 2, 1, 1.0), "spec": (3, 2, 1, 1.0),
            "phi": PHI_PAPER, "trials": SIM_TRIALS, "seed": seed}


def op_simulate(lib, state: dict, j: int):
    return lib.simulate(state["inst"], state["phi"], state["trials"],
                        sim_seed(state["seed"], j))


# -- check-symmetric ---------------------------------------------------------

def setup_check_symmetric(lib, seed: int) -> dict:
    inst = make_instance(lib, 3, 2, 1, 1.0)
    rules = lib.merit_with_guarantee(PHI_PAPER, inst, lib.partition(PHI_PAPER, inst))
    disc, p_avg = lib.discretize_rules(inst, rules, SYMMETRIC_BINS)
    return {"disc": disc, "p_avg": p_avg}


def op_check_symmetric(lib, state: dict, j: int):
    return lib.check_interim_allocation(state["disc"], state["p_avg"])


# -- check-audit -------------------------------------------------------------

def snapped_grid(lib, inst, part, bins: int):
    """Equal-width bins with edges moved onto the region cutoffs.

    Every bin then lies in one region; per-agent offsets of 1e-7 keep every
    profile free of ties, so the merit stage is deterministic on the grid.
    """
    cuts = [c for c in (part.gamma1, part.gamma3) if 0.0 < c < 1.0]
    width = 1.0 / bins
    edges = [i * width for i in range(bins + 1)
             if all(abs(i * width - c) > 0.45 * width for c in cuts)]
    edges = sorted(set(edges) | set(cuts))
    mids = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    masses = [float(inst.dist.cdf(b)) - float(inst.dist.cdf(a))
              for a, b in zip(edges[:-1], edges[1:])]
    total = sum(masses)
    masses = tuple(w / total for w in masses)
    grids = tuple(tuple(t + (i + 1) * 1e-7 for t in mids) for i in range(inst.n))
    disc = lib.DiscreteInstance(grids=grids, masses=(masses,) * inst.n,
                                capacity_default=inst.m)
    labels = [part.region_of(t) for t in mids]
    return disc, labels


def setup_check_audit(lib, seed: int) -> dict:
    inst = make_instance(lib, 3, 2, 1, 1.0)
    part = lib.partition(PHI_PAPER, inst)
    disc, labels = snapped_grid(lib, inst, part, AUDIT_BINS)
    n, size = inst.n, len(labels)
    mass = disc.masses[0]

    # merit-stage winners of every grid profile, and their interim rate
    p_merit = []
    interim = [[0.0] * size for _ in range(n)]
    for prof in itertools.product(range(size), repeat=n):
        types = [disc.grids[i][prof[i]] for i in range(n)]
        winners = lib.merit_allocate(types, part, inst)
        p_merit.append([i in winners for i in range(n)])
        for i in winners:
            w = 1.0
            for a in range(n):
                if a != i:
                    w *= mass[prof[a]]
            interim[i][prof[i]] += w

    # the mechanism audits every audit-region winner and a share P - phi of
    # supply-region winners
    A = [[max(interim[i][t] - (PHI_PAPER if labels[t] == "allo" else 0.0), 0.0)
          for t in range(size)] for i in range(n)]
    A_feasible = [[x * (1.0 - AUDIT_DAMPING) for x in row] for row in A]
    top_supply = max(t for t in range(size) if labels[t] == "allo")
    A_infeasible = [list(row) for row in A]
    for row in A_infeasible:
        row[top_supply] = min(1.0, row[top_supply] + AUDIT_INFLATION)
    return {"disc": disc, "p_merit": np.array(p_merit, dtype=bool), "k": inst.k,
            "A_feasible": A_feasible, "A_infeasible": A_infeasible}


def op_check_audit(lib, state: dict, j: int):
    disc, p_merit, k = state["disc"], state["p_merit"], state["k"]
    return (lib.check_interim_audit(disc, p_merit, state["A_feasible"], k),
            lib.check_interim_audit(disc, p_merit, state["A_infeasible"], k))


WORKLOADS = {
    "solve": (setup_solve, op_solve),
    "simulate": (setup_simulate, op_simulate),
    "check-symmetric": (setup_check_symmetric, op_check_symmetric),
    "check-audit": (setup_check_audit, op_check_audit),
}
