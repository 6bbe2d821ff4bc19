"""Exact feasibility of interim rules with profile-dependent capacities.

A finite-type instance specifies, for every profile of types t, how many
objects h(t) are available and which agents J(t) may receive one.  An
interim rule P = (P_i) is implementable by an ex-post rule iff for every
collection E = (E_1, ..., E_n) of per-agent type sets

    sum_i  sum_{tau in E_i} P_i(tau) mass_i(tau)
        <=  E[ min(|J(t) cap I(t, E)|, h(t)) ]

where I(t, E) is the set of agents whose type lies in their E_i.  The
check runs as a max-flow problem with one row node per footprint
F = (h, {(i, t_i) : i in J(t)}), the part of a profile that its arcs see:

    source --(W_F h)--> row F --(W_F)--> (agent i, type tau)
           --(P_i(tau) mass_i(tau))--> sink          for (i, tau) in F

where W_F is the total probability of the profiles with footprint F.
Each such profile alone would carry outflows prob(t) x with x in
Q_F = {x in [0, 1]^F : sum x <= h}; their sum is W_F Q_F, so one row
gives the same max flow, min cuts and marginals.  All capacities are
scaled to exact integers, so verdicts are exact for the given masses and
the rule max(P - TOLERANCE, 0): it is feasible iff the max flow saturates
every demand arc.  On success each row's flow gives the allocation
probabilities of all its profiles; on failure the sink side of a min cut
yields a violated set E, reported with its sides under P.
Symmetric rules on symmetric instances with constant capacity need no
flow: sorted by P they are monotone, an exact threshold screen decides
them, and a feasible one is built as a mixture of pooled-efficient rules.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._maxflow import MaxFlow
from .distributions import cell_grid

DEFAULT_MAX_PROFILES = 1_000_000
# verdicts are exact for max(P - TOLERANCE, 0), a dyadic shrink: a rule
# that sits on a binding constraint up to float error passes, one above it
# by 1e-10 fails
_TAU_DENOM = 2**40
TOLERANCE = 1 / _TAU_DENOM


@dataclass(frozen=True, eq=False)
class DiscreteInstance:
    """Finite-type universe: per-agent grids with masses, h(t) and J(t).

    ``capacity`` and ``eligible`` are sparse overrides keyed by tuples of
    type indices; profiles not listed use ``capacity_default`` objects and
    allow every agent.
    """

    grids: tuple[tuple[float, ...], ...]
    masses: tuple[tuple[float, ...], ...]
    capacity_default: int
    capacity: dict = field(default_factory=dict)
    eligible: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.grids) != len(self.masses):
            raise ValueError("grids and masses must have one row per agent")
        if len(self.grids) < 1:
            raise ValueError("need at least one agent")
        for g, w in zip(self.grids, self.masses):
            if len(g) != len(w) or len(g) == 0:
                raise ValueError("each grid needs a matching nonempty mass row")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ValueError("grids must be strictly increasing")
            if any(x <= 0 for x in w):
                raise ValueError("masses must be positive")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError(f"masses must sum to 1, got {sum(w)}")
        if self.capacity_default < 0 or int(self.capacity_default) != self.capacity_default:
            raise ValueError("capacity must be a nonnegative integer")
        # each override table is checked in one pass over its distinct values;
        # the entry named in an error is looked up only once one is found
        self._check_profile_keys(self.capacity)
        for h in set(self.capacity.values()):
            if h < 0 or int(h) != h:
                prof = next(p for p, v in self.capacity.items() if v == h)
                raise ValueError(f"capacity override {h!r} at {prof} is not a nonnegative integer")
        self._check_profile_keys(self.eligible)
        agents = set(range(len(self.grids)))
        if not set(itertools.chain.from_iterable(self.eligible.values())) <= agents:
            prof, named = next((p, a) for p, a in self.eligible.items() if not set(a) <= agents)
            raise ValueError(f"eligibility override {named!r} at {prof} names unknown agents")

    def _check_profile_keys(self, table: dict) -> None:
        keys = list(table)
        if not keys:
            return
        if set(map(len, keys)) != {len(self.grids)}:
            prof = next(p for p in keys if len(p) != len(self.grids))
            raise ValueError(f"profile key {prof} has wrong length")
        idx = np.array(keys)
        # a fractional index names no profile
        bad = (idx < 0) | (idx >= np.array(self.sizes)) | (idx % 1 != 0)
        if bad.any():
            r, j = np.argwhere(bad)[0].tolist()
            raise ValueError(f"profile key {keys[r]} out of range for agent {j}")

    @property
    def n_agents(self) -> int:
        return len(self.grids)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grids)

    @property
    def n_profiles(self) -> int:
        return math.prod(self.sizes)

    def h(self, prof: tuple[int, ...]) -> int:
        return int(self.capacity.get(tuple(prof), self.capacity_default))

    def J(self, prof: tuple[int, ...]) -> tuple[int, ...]:
        agents = self.eligible.get(tuple(prof))
        if agents is None:
            return tuple(range(self.n_agents))
        return tuple(sorted(agents))

    def profiles(self):
        return itertools.product(*(range(s) for s in self.sizes))

    def profile_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """h(t) and J(t) of every profile, in the order of ``profiles()``.

        Returns an int64 array of shape (n_profiles,) and a bool eligibility
        mask of shape (n_profiles, n_agents).  A capacity above n_agents is
        stored as n_agents: no profile can use more.
        """
        n = self.n_agents
        h = np.full(self.n_profiles, min(int(self.capacity_default), n), dtype=np.int64)
        if self.capacity:
            h[self._override_rows(self.capacity)] = [min(int(c), n)
                                                     for c in self.capacity.values()]
        J = np.ones((self.n_profiles, n), dtype=bool)
        if self.eligible:
            rows = self._override_rows(self.eligible)
            counts = np.fromiter(map(len, self.eligible.values()), np.intp, len(rows))
            agents = np.fromiter(itertools.chain.from_iterable(self.eligible.values()),
                                 np.intp, int(counts.sum()))
            J[rows] = False
            J[np.repeat(rows, counts), agents] = True
        return h, J

    def _override_rows(self, table: dict) -> np.ndarray:
        """Profile indices of the keys of an override table."""
        keys = np.array(list(table), dtype=np.intp).reshape(len(table), self.n_agents)
        return np.ravel_multi_index(tuple(keys.T), self.sizes)

    def is_symmetric(self) -> bool:
        return all(g == self.grids[0] for g in self.grids) and all(
            w == self.masses[0] for w in self.masses
        )

    @classmethod
    def symmetric(cls, n: int, grid: Sequence[float], masses: Sequence[float],
                  capacity: int, **kw) -> "DiscreteInstance":
        return cls(
            grids=tuple(tuple(float(x) for x in grid) for _ in range(n)),
            masses=tuple(tuple(float(x) for x in masses) for _ in range(n)),
            capacity_default=capacity,
            **kw,
        )

    def to_json_dict(self) -> dict:
        return {
            "grids": [list(g) for g in self.grids],
            "masses": [list(w) for w in self.masses],
            "capacity": {
                "default": self.capacity_default,
                "entries": [
                    {"profile": list(prof), "h": int(h)}
                    for prof, h in sorted(self.capacity.items())
                ],
            },
            "eligible": {
                "default": "all",
                "entries": [
                    {"profile": list(prof), "agents": sorted(agents)}
                    for prof, agents in sorted(self.eligible.items())
                ],
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteInstance":
        if not (isinstance(data, dict) and "grids" in data and "masses" in data):
            raise ValueError('an instance file needs the keys "grids" and "masses"')

        def read(key, parse, default=None):
            """``parse`` of the value under ``key``, whose malformed values
            raise a ValueError that names the key."""
            try:
                return parse(data.get(key, default))
            except (TypeError, KeyError, AttributeError, ValueError) as exc:
                raise ValueError(f'malformed "{key}" in the instance file: '
                                 f'{type(exc).__name__}: {exc}') from None

        def numbers(rows):
            return tuple(tuple(float(x) for x in row) for row in rows)

        cap = read("capacity", lambda c: (int(c.get("default", 0)), {
            tuple(e["profile"]): int(e["h"]) for e in c.get("entries", [])}), {})
        return cls(
            grids=read("grids", numbers),
            masses=read("masses", numbers),
            capacity_default=cap[0],
            capacity=cap[1],
            eligible=read("eligible", lambda c: {
                tuple(e["profile"]): frozenset(e["agents"]) for e in c.get("entries", [])}, {}),
        )

    @classmethod
    def load(cls, path) -> "DiscreteInstance":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)


CheckSet = tuple  # tuple[frozenset[int], ...]: per-agent sets of type indices


def make_check_set(inst: DiscreteInstance, sets: Sequence[Sequence[int]]) -> CheckSet:
    if len(sets) != inst.n_agents:
        raise ValueError("need one type set per agent")
    out = []
    for j, s in enumerate(sets):
        s = frozenset(int(x) for x in s)
        if not all(0 <= x < inst.sizes[j] for x in s):
            raise ValueError(f"set {sorted(s)} out of range for agent {j}")
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class ViolatingSet:
    check_set: CheckSet
    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class ExPostRule:
    """Per-profile allocation probabilities realizing an interim rule."""

    inst: DiscreteInstance
    alloc: np.ndarray  # shape (n_profiles, n_agents), row order = inst.profiles()

    def marginals(self) -> list[np.ndarray]:
        """Interim rule induced by the ex-post rule, one array per agent.

        Entry (i, tau) is the sum, over the profiles with t_i = tau, of the
        other agents' masses times the allocation, added up by ``math.fsum``
        so that only the products are rounded.
        """
        inst = self.inst
        sizes, n = inst.sizes, inst.n_agents
        alloc = self.alloc.reshape(*sizes, n)
        out = []
        for i in range(n):
            weighted = alloc[..., i]
            for j, w in enumerate(inst.masses):
                if j != i:
                    weighted = weighted * np.reshape(w, [-1 if a == j else 1 for a in range(n)])
            terms = np.moveaxis(weighted, i, 0).reshape(sizes[i], -1).tolist()
            out.append(np.array([math.fsum(row) for row in terms]))
        return out

    def max_violation(self) -> float:
        """Largest breach of the per-profile constraints (0 for a valid rule)."""
        h, J = self.inst.profile_arrays()
        alloc = self.alloc
        return max(float(alloc.max(initial=0.0)) - 1.0,
                   -float(alloc.min(initial=0.0)),
                   float(alloc[~J].max(initial=0.0)),
                   float((alloc.sum(axis=1) - h).max(initial=0.0)))


@dataclass(frozen=True)
class FeasibilityVerdict:
    """A verdict with its certificate: an ex-post rule or a violated set.

    ``stats`` says how it was reached: ``path`` ("screen", "pooled" or
    "flow"), ``profiles``, for a pooled construction its ``rules`` and
    distinct ``pools``, and for a flow its footprint ``rows`` and ``arcs``.
    It holds counts the check has at hand and nothing else.
    """

    feasible: bool
    violating_set: Optional[ViolatingSet] = None
    expost: Optional[ExPostRule] = None
    stats: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# exact integer scaling
# ---------------------------------------------------------------------------

class _Scaled:
    """Exact integer view of an instance plus interim rule.

    Every float is an integer over a power of two, so each agent's masses,
    as given, are integers over one power of two D_i, and all of P over
    another, ``p_denom``.  Verdicts are decided on ``demand``, the rule
    max(P - TOLERANCE, 0) (exact, as TOLERANCE is dyadic); ``given`` holds
    the demands of P itself, the sides a witness reports.  All capacities
    share the common denominator p_denom * prod_i D_i.
    """

    def __init__(self, inst: DiscreteInstance, P: Sequence[Sequence[float]]):
        if len(P) != inst.n_agents:
            raise ValueError("need one interim rule row per agent")
        for row, size in zip(P, inst.sizes):
            if len(row) != size:
                raise ValueError("interim rule row length must match the grid")
            for p in row:
                if not -TOLERANCE <= p <= 1.0 + TOLERANCE:
                    raise ValueError(f"interim probability {p} outside [0, 1]")
        self.inst = inst
        self.units, self.denoms = [], []
        for row in inst.masses:
            ratios = [float(w).as_integer_ratio() for w in row]
            d = max(q for _, q in ratios)
            self.units.append([u * (d // q) for u, q in ratios])
            self.denoms.append(d)
        self.denom_prod = math.prod(self.denoms)
        ratios = [[Fraction(float(p)) for p in row] for row in P]
        self.p_denom = max(_TAU_DENOM, *(x.denominator for row in ratios for x in row))
        tau = self.p_denom // _TAU_DENOM
        p_given = [[int(x * self.p_denom) for x in row] for row in ratios]
        self.p_units = [[max(p - tau, 0) for p in row] for row in p_given]
        self.common = self.p_denom * self.denom_prod
        # demand for (i, tau) in common-denominator units
        self.demand, self.given = (
            [[p[t] * u[t] * (self.denom_prod // d) for t in range(len(u))]
             for p, u, d in zip(rows, self.units, self.denoms)]
            for rows in (self.p_units, p_given))

    def lhs_units(self, E: CheckSet, given: bool = False) -> int:
        """Demand of E under the decided rule, or with ``given`` under P."""
        demand = self.given if given else self.demand
        return sum(demand[i][t] for i, Ei in enumerate(E) for t in Ei)

    def footprints(self) -> tuple[list, np.ndarray]:
        """The profiles grouped by footprint (h(t), ((i, t_i) for i in J(t))).

        Returns ``rows``, one (h, types, W) per distinct footprint, where
        types[i] is t_i for i in J(t) and -1 for the other agents, and W is
        the exact sum of its profiles' weights (products of mass units);
        and ``row_of``, the row of each profile in the order of
        ``profiles()``.  Profiles of one footprint have the same arcs, and
        capacities proportional to their weights, in the flow network, and
        the same terms in every check set's supply, so a row stands for all
        of them.  Built once, in array passes.
        """
        cached = getattr(self, "_footprints", None)
        if cached is None:
            inst = self.inst
            h, J = inst.profile_arrays()
            types = np.indices(inst.sizes).reshape(inst.n_agents, -1).T
            keys, row_of = _unique_rows(np.column_stack([h, np.where(J, types, -1)]))
            weight = np.ones(1, dtype=object)
            for u in self.units:
                weight = np.multiply.outer(weight, np.array(u, dtype=object)).ravel()
            W = np.zeros(len(keys), dtype=object)
            np.add.at(W, row_of, weight)
            rows = list(zip(keys[:, 0].tolist(), keys[:, 1:].tolist(), W.tolist()))
            cached = self._footprints = (rows, row_of)
        return cached

    def rhs_units(self, E: CheckSet) -> int:
        total = 0
        for cap, types, w in self.footprints()[0]:
            if not cap:
                continue
            # -1, an ineligible agent, lies in no E_i
            hit = sum(t in Ei for t, Ei in zip(types, E))
            if hit:
                total += w * min(hit, cap)
        return total * self.p_denom

    def to_float(self, units: int) -> float:
        return units / self.common


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, and the
    index among them of each row: ``np.unique(a, axis=0,
    return_inverse=True)`` by one lexsort, several times faster on ints."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _require_enumerable(inst: DiscreteInstance, max_profiles: int) -> None:
    if inst.n_profiles > max_profiles:
        raise ValueError(
            f"instance has {inst.n_profiles} profiles, above the cap of "
            f"{max_profiles}; shrink the grids or raise max_profiles"
        )


# Rows of at most _NETWORK_MAX_N entries are sorted by whole-column numpy
# calls, above by a per-row sort.  100,000 random float rows, one core,
# medians of 15: the network takes 2.1-3.1 ms against np.sort's 4.5-5.9 ms
# at n = 3, 5.5-5.7 against 5.9-6.6 at n = 6, and loses from n = 7
# (6.7-7.0 against 4.8-5.0; 9.1-9.2 against 3.4-6.4 at n = 8).
_NETWORK_MAX_N = 6


def _sorted_columns(a: np.ndarray):
    """The entries of each row of the 2-d ``a`` in ascending order, as its
    n sorted columns (a list of them, or the rows of an n x rows array;
    no NaN).  Short rows run an insertion network of column
    compare-exchanges (Knuth, TAOCP vol. 3, 5.3.4): n(n-1)/2
    ``np.minimum``/``np.maximum`` pairs on whole columns, where a per-row
    sort pays a call's overhead on every row of n entries."""
    n = a.shape[1]
    if n > _NETWORK_MAX_N:
        return np.sort(a, axis=1).T
    cols = list(a.T)
    for i in range(1, n):
        for j in range(i, 0, -1):
            lo, hi = cols[j - 1], cols[j]
            cols[j - 1], cols[j] = np.minimum(lo, hi), np.maximum(lo, hi)
    return cols


def _refuted(sc: _Scaled, E: CheckSet, rhs: int, stats: dict) -> FeasibilityVerdict:
    """The infeasible verdict with witness E and its exact sides under the
    given P (E refutes the decided rule, which P dominates)."""
    return FeasibilityVerdict(feasible=False, violating_set=ViolatingSet(
        check_set=E, lhs=sc.to_float(sc.lhs_units(E, given=True)), rhs=sc.to_float(rhs)),
        stats=stats)


def _tightest_report(sc: _Scaled, family) -> dict:
    """``all_hold`` on max(P - TOLERANCE, 0), as check_feasible decides, and
    the first set of ``family`` with the least slack under the given P, with
    its exact sides.  (Under the shrunk rule the empty set, of slack 0,
    would be tighter than every set on which P binds exactly.)"""
    all_hold, best = True, None
    for E in family:
        rhs = sc.rhs_units(E)
        all_hold = all_hold and sc.lhs_units(E) <= rhs
        lhs = sc.lhs_units(E, given=True)
        if best is None or rhs - lhs < best[0]:
            best = (rhs - lhs, E, lhs, rhs)
    slack, E, lhs, rhs = best
    return {
        "all_hold": all_hold,
        "tightest_set": E,
        "lhs": sc.to_float(lhs),
        "rhs": sc.to_float(rhs),
        "slack": sc.to_float(slack),
    }


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------

def border_lhs(inst: DiscreteInstance, P: Sequence[Sequence[float]],
               E: CheckSet) -> float:
    """Demand side: sum_i sum_{tau in E_i} P_i(tau) mass_i(tau)."""
    total = 0.0
    for i, Ei in enumerate(E):
        for t in Ei:
            total += float(P[i][t]) * inst.masses[i][t]
    return total


def border_rhs(inst: DiscreteInstance, E: CheckSet, *,
               max_profiles: int = DEFAULT_MAX_PROFILES) -> float:
    """Supply side: E[min(|J(t) cap I(t, E)|, h(t))] by profile enumeration."""
    _require_enumerable(inst, max_profiles)
    E = make_check_set(inst, E)
    sc = _Scaled(inst, [[0.0] * s for s in inst.sizes])
    return sc.to_float(sc.rhs_units(E))


def check_feasible(inst: DiscreteInstance, P: Sequence[Sequence[float]], *,
                   max_profiles: int = DEFAULT_MAX_PROFILES,
                   want_expost: bool = True) -> FeasibilityVerdict:
    """Decide whether the interim rule P is implementable; construct or refute.

    The verdict is exact for the given masses and for max(P - TOLERANCE, 0).
    Feasible: returns the flow decomposition as an ex-post rule whose
    marginals reproduce that rule, so they miss P by at most TOLERANCE.
    Infeasible: returns a violated check set extracted from a minimum cut,
    with its sides under P.  One row node per footprint (``_Scaled.
    footprints``), one type node per (agent, type); every profile takes the
    shares of its footprint's row.
    """
    _require_enumerable(inst, max_profiles)
    sc = _Scaled(inst, P)
    rows, row_of = sc.footprints()
    n, sizes = inst.n_agents, inst.sizes
    demand = [d for row in sc.demand for d in row]
    # nodes: source 0, footprint rows 1..len(rows), then one per (agent, type)
    first_type = 1 + len(rows)
    sink = first_type + len(demand)
    offset = [first_type + sum(sizes[:i]) for i in range(n)]
    mf = MaxFlow(sink + 1)
    # demand arcs first: every row arc then has an id above 2 * len(demand)
    for node, d in enumerate(demand):
        mf.add_edge(first_type + node, sink, d)
    for row, (cap, types, w) in enumerate(rows, start=1):
        unit = w * sc.p_denom
        mf.add_edge(0, row, unit * cap)
        for i, t in enumerate(types):
            if t >= 0:
                mf.add_edge(row, offset[i] + t, unit)
    stats = {"path": "flow", "profiles": inst.n_profiles, "rows": len(rows),
             "arcs": len(mf.cap) // 2}

    if mf.max_flow(0, sink) != sum(demand):
        reachable = mf.reachable_from(0)
        E = tuple(frozenset(t for t in range(s) if not reachable[offset[i] + t])
                  for i, s in enumerate(sizes))
        rhs = sc.rhs_units(E)
        if sc.lhs_units(E) <= rhs:
            raise RuntimeError(
                "min-cut extraction produced a non-violating set; "
                "this indicates a flow construction bug"
            )
        return _refuted(sc, E, rhs, stats)
    if not want_expost:
        return FeasibilityVerdict(feasible=True, stats=stats)
    # past the demand arcs, a forward arc's flow is its reverse residual and
    # its capacity the sum of both; int / int rounds as float(Fraction) does
    first = 2 * len(demand)
    to = np.frombuffer(mf.to, dtype=np.int64)
    flow, left = mf.cap[first + 1::2], mf.cap[first::2]
    tail, head = to[first + 1::2], to[first::2]
    used = np.flatnonzero(np.fromiter(map(bool, flow), bool, len(flow)) & (tail != 0))
    shares = np.zeros((len(rows), n))
    shares[tail[used] - 1, np.repeat(np.arange(n), sizes)[head[used] - first_type]] = [
        flow[a] / (flow[a] + left[a]) for a in used.tolist()]
    return FeasibilityVerdict(feasible=True, expost=ExPostRule(inst=inst, alloc=shares[row_of]),
                              stats=stats)


def brute_force_verdict(inst: DiscreteInstance,
                        P: Sequence[Sequence[float]]) -> FeasibilityVerdict:
    """Exhaustive check over all 2^(sum of grid sizes) check sets.

    Exponential; intended as an oracle for desk-size instances.  Decides
    the same rule max(P - TOLERANCE, 0) as check_feasible, so the two
    verdicts agree at knife-edge inputs; the witness is the first violated
    set in enumeration order.
    """
    if sum(inst.sizes) > 14:
        raise ValueError("brute force limited to 14 total grid points")
    sc = _Scaled(inst, P)
    subsets_per_agent = [
        [frozenset(c) for r in range(s + 1) for c in itertools.combinations(range(s), r)]
        for s in inst.sizes
    ]
    for E in itertools.product(*subsets_per_agent):
        rhs = sc.rhs_units(E)
        if sc.lhs_units(E) > rhs:
            return _refuted(sc, E, rhs, {})
    return FeasibilityVerdict(feasible=True)


def upper_set_report(inst: DiscreteInstance, P: Sequence[Sequence[float]], *,
                     max_profiles: int = DEFAULT_MAX_PROFILES) -> dict:
    """Check only per-agent upper sets E_i = {tau : tau >= threshold_i}.

    Necessary but not sufficient when capacities depend on the profile;
    the returned record carries the tightest set so callers can show how
    close the family comes to detecting infeasibility.
    """
    _require_enumerable(inst, max_profiles)
    combos = math.prod(s + 1 for s in inst.sizes)
    if combos > 200_000:
        raise ValueError(f"{combos} upper-set combinations is above the cap")
    return _tightest_report(_Scaled(inst, P), (
        tuple(frozenset(range(th, s)) for th, s in zip(thresholds, inst.sizes))
        for thresholds in itertools.product(*(range(s + 1) for s in inst.sizes))
    ))


def check_interim_allocation(inst: DiscreteInstance, P: Sequence[float], *,
                             max_profiles: int = DEFAULT_MAX_PROFILES,
                             construct: bool = True) -> FeasibilityVerdict:
    """Feasibility of a symmetric interim allocation rule under h(t) = m.

    On a symmetric instance with constant capacity and universal
    eligibility, feasibility depends on the types only through their
    masses and P, and checking the sets of the types with the highest P
    suffices (Border 1991).  Sorted by P, the rule is monotone: its
    threshold sets are screened exactly via a binomial count expansion, and
    without ``construct`` that screen is the whole answer.  With it, a
    feasible rule is built without a flow, as a mixture of pooled-efficient
    rules (``_pooled_rules``) whose shares are summed straight onto every
    profile (``_pooled_alloc``); construction refuses instances above
    ``max_profiles`` profiles.
    """
    if not inst.is_symmetric():
        raise ValueError("check_interim_allocation expects a symmetric instance")
    if inst.capacity or inst.eligible:
        raise ValueError("check_interim_allocation expects constant capacity and full eligibility")
    n = inst.n_agents
    size = inst.sizes[0]
    if len(P) > 0 and hasattr(P[0], "__len__"):
        if len(P) != n:
            raise ValueError("need one interim rule row per agent")
        rows = [list(map(float, row)) for row in P]
        if any(rows[0] != r for r in rows[1:]):
            raise ValueError("per-agent rows must agree for the symmetric check")
        p_row = rows[0]
    else:
        p_row = [float(x) for x in P]
    if len(p_row) != size:
        raise ValueError("interim rule length must match the grid")
    return _symmetric_flow_verdict(_Scaled(inst, [p_row] * n),
                                   construct=construct, max_profiles=max_profiles)


def _symmetric_flow_verdict(sc: _Scaled, *, construct: bool,
                            max_profiles: int) -> FeasibilityVerdict:
    """Decide, and with ``construct`` build, a symmetric rule on a
    symmetric instance with constant capacity and full eligibility.

    No flow runs: the name is the one the benchmark's tracer wraps.  The
    types are stable-sorted by their P in exact units (the identity for a
    monotone rule), the sorted threshold sets {order[e:]} are screened
    exactly, and a feasible rule is peeled into pooled-efficient rules on
    the sorted types, whose mixture is summed onto every profile in one pass
    per distinct pool.
    """
    inst = sc.inst
    n, size, m = inst.n_agents, inst.sizes[0], inst.capacity_default
    order = sorted(range(size), key=sc.p_units[0].__getitem__)
    p_units, units, demand = ([row[t] for t in order]
                              for row in (sc.p_units[0], sc.units[0], sc.demand[0]))
    # exact binomial screen over thresholds, in units of sc.common, on
    # suffix sums of the mass units and the demands in sorted order
    mass_above = list(itertools.accumulate(reversed(units), initial=0))[::-1]
    demand_above = list(itertools.accumulate(reversed(demand), initial=0))[::-1]
    supply = [
        sc.p_denom * sum(math.comb(n, x) * above**x * (mass_above[0] - above) ** (n - x)
                         * min(x, m) for x in range(1, n + 1))
        for above in mass_above
    ]
    stats = {"path": "screen", "profiles": inst.n_profiles}
    for e in range(size + 1):
        if n * demand_above[e] > supply[e]:
            return _refuted(sc, (frozenset(order[e:]),) * n, supply[e], stats)
    if not construct:
        return FeasibilityVerdict(feasible=True, stats=stats)
    _require_enumerable(inst, max_profiles)
    rules = _pooled_rules(p_units, mass_above, supply, n * sc.denoms[0] ** (n - 1))
    alloc, pools = _pooled_alloc(rules, order, n, m)
    return FeasibilityVerdict(feasible=True, expost=ExPostRule(inst=inst, alloc=alloc),
                              stats={**stats, "path": "pooled", "rules": len(rules),
                                     "pools": pools})


def _pooled_rules(p_units: Sequence[int], mass_above: Sequence[int],
                  supply: Sequence[int], unit: int) -> list[tuple[Fraction, list]]:
    """Write a feasible monotone rule as a mixture of pooled-efficient rules.

    A pooled-efficient rule groups adjacent types into pools, serves the
    pools from the top with min(1, objects left / agents in the pool) per
    agent, and gives nothing to the types below its lowest pool.  In terms
    of X(e) = n * demand of {tau >= e}, it interpolates the supply curve
    G(e) = ``supply[e]`` at the pool edges and is flat below them; a rule
    that passes the threshold screen has X concave, nondecreasing and at
    most G, so it is weakly majorized by the efficient rule and such
    mixtures reach it (Hart & Reny 2015; Kleiner, Moldovanu & Strack 2021).

    The walk is Caratheodory's: the pools of the next rule are the maximal
    runs of equal positive residual value, and its weight is the largest
    that keeps the residual nondecreasing and nonnegative, so each step
    merges two pools or empties the lowest one and at most size + 1 rules
    come out.  The residual is exact: ``p_units`` in units of 1/p_denom,
    ``mass_above[e]`` the mass units of {tau >= e}, and ``unit`` turns a
    pool's supply per mass unit into an interim probability in 1/p_denom.
    Returns (weight, pools) pairs with pools as inclusive (lo, hi) type
    ranges, bottom to top; the weights are positive and sum to 1.
    """
    pools = []  # [lo, hi, residual value], bottom to top
    for t, p in enumerate(p_units):
        if not p:
            continue
        if pools and pools[-1][2] == p:
            pools[-1][1] = t
        else:
            pools.append([t, t, Fraction(p)])
    rules = []
    left = Fraction(1)
    for _ in range(len(p_units) + 1):
        y = [Fraction(supply[lo] - supply[hi + 1], unit * (mass_above[lo] - mass_above[hi + 1]))
             for lo, hi, _ in pools]
        w = left
        for (_, _, v), yv in zip(pools, y):
            if yv * w > v:
                w = v / yv
        for (_, _, v0), (_, _, v1), y0, y1 in zip(pools, pools[1:], y, y[1:]):
            if (y1 - y0) * w > v1 - v0:
                # unless y rises, no positive weight keeps this pair in order
                w = (v1 - v0) / (y1 - y0) if y1 > y0 else Fraction(0)
        if w <= 0:
            raise RuntimeError(f"pooled-rule walk took a step of weight {w}; "
                               "the rule is not monotone and feasible")
        rules.append((w, [(lo, hi) for lo, hi, _ in pools]))
        left -= w
        residual = []
        for (lo, hi, v), yv in zip(pools, y):
            v -= w * yv
            if not v:
                continue
            if residual and residual[-1][2] == v:
                residual[-1][1] = hi
            else:
                residual.append([lo, hi, v])
        pools = residual
        if not left:
            break
    if pools or sum(w for w, _ in rules) != 1:
        raise RuntimeError("pooled-rule walk left a residual or weights that do not sum "
                           "to 1; the threshold screen does not imply feasibility here")
    return rules


def _pooled_alloc(rules: list[tuple[Fraction, list]], order: Sequence[int],
                  n: int, m: int) -> tuple[np.ndarray, int]:
    """Per-profile shares of a mixture of pooled-efficient rules on the
    types sorted as ``order``, and the number of distinct pools.

    Under one rule an agent of pool (lo, hi) gets min(1, max(0, m - above)
    / within), where above counts the agents whose type ranks past hi and
    within those ranked in [lo, hi], itself included.  That depends on the
    rule only through the pool, so each distinct pool is visited once, with
    the summed weight of the rules that hold it (exact, in units of one
    common denominator, and rounded once): its share over the other n - 1
    agents' types, read from one broadcast sum of their per-type codes, is
    added to agent 0's share at the pool's place in the sorted types.
    Agent 0's share is symmetric in the others, so agent i's column is it
    with i's type axis put first.
    """
    size = len(order)
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    denom = math.lcm(*(w.denominator for w, _ in rules))
    weight = {}
    for w, pools in rules:
        units = w.numerator * (denom // w.denominator)
        for pool in pools:
            weight[pool] = weight.get(pool, 0) + units
    # share by above * (n + 1) + within; within = 0 marks a type outside every pool
    per_agent = np.zeros((n + 1) ** 2)
    for above in range(n + 1):
        for within in range(1, n + 1 - above):
            per_agent[above * (n + 1) + within] = min(1.0, max(0, m - above) / within)
    axes = [[-1 if a == j else 1 for a in range(n - 1)] for j in range(n - 1)]
    # agent 0's type axis in sorted order until the pools are all added
    share = np.zeros((size,) * n)
    for (lo, hi), units in weight.items():
        code = (n + 1) * (rank > hi) + ((rank >= lo) & (rank <= hi))
        # the sum starts at 1: agent 0 itself is within the pool
        share[lo:hi + 1] += units / denom * per_agent[sum((code.reshape(a) for a in axes), 1)]
    # the weights sum to 1 exactly but their floats need not, so a share
    # that is exactly 1 can come out one ulp above it
    share = np.minimum(share, 1.0, out=share)[rank]
    alloc = np.empty((size**n, n))
    for i in range(n):
        alloc.reshape(share.shape + (n,))[..., i] = np.moveaxis(share, 0, i)
    return alloc, len(weight)


def construct_expost(inst: DiscreteInstance, P: Sequence[Sequence[float]], *,
                     max_profiles: int = DEFAULT_MAX_PROFILES) -> ExPostRule:
    """Build an ex-post rule realizing P within TOLERANCE; raises if P is
    infeasible."""
    verdict = check_feasible(inst, P, max_profiles=max_profiles, want_expost=True)
    if not verdict.feasible:
        v = verdict.violating_set
        raise ValueError(
            f"interim rule is infeasible: set {tuple(sorted(s) for s in v.check_set)} "
            f"demands {v.lhs:.6g} but at most {v.rhs:.6g} is deliverable"
        )
    return verdict.expost


def check_interim_audit(inst: DiscreteInstance, p_merit: np.ndarray,
                        A: Sequence[Sequence[float]], k: int, *,
                        max_profiles: int = DEFAULT_MAX_PROFILES,
                        want_expost: bool = True) -> FeasibilityVerdict:
    """Feasibility of an interim audit rule given a deterministic allocation.

    Only agents holding an object can be audited and at most k audits run
    per profile, so the audit problem is the allocation problem with
    capacity k and eligibility J(t) = {i : p_merit_i(t) = 1}.
    """
    _require_enumerable(inst, max_profiles)
    return check_feasible(_audit_instance(inst, p_merit, k), A,
                          max_profiles=max_profiles, want_expost=want_expost)


def _audit_instance(inst: DiscreteInstance, p_merit: np.ndarray,
                    k: int) -> DiscreteInstance:
    """The audit problem as an allocation problem: capacity k, J(t) the
    merit winners at t."""
    p_merit = np.asarray(p_merit, dtype=bool)
    if p_merit.shape != (inst.n_profiles, inst.n_agents):
        raise ValueError(
            f"p_merit must have shape {(inst.n_profiles, inst.n_agents)}, "
            f"got {p_merit.shape}"
        )
    # one frozenset per distinct row of winners; rows with all agents are
    # the default and stay out of the overrides
    rows, code = _unique_rows(p_merit)
    winners = [frozenset(np.flatnonzero(row).tolist()) for row in rows]
    partial = np.flatnonzero(~rows.all(axis=1)[code])
    profs = zip(*(ix.tolist() for ix in np.unravel_index(partial, inst.sizes)))
    eligible = dict(zip(profs, map(winners.__getitem__, code[partial].tolist())))
    return DiscreteInstance(
        grids=inst.grids,
        masses=inst.masses,
        capacity_default=int(k),
        eligible=eligible,
    )


def discretize_rules(cont_inst, rules, bins: int) -> tuple[DiscreteInstance, list[float]]:
    """Project a continuum instance and interim rule onto a finite grid.

    Types are binned into ``bins`` equal-width cells; each cell carries its
    probability mass and is represented by its midpoint.  The discrete
    interim value on a cell is the conditional average of P over the cell
    (the cell's demand then integrates exactly), not the midpoint sample:
    midpoint sampling overstates demand wherever P is concave and falsely
    breaks feasibility at binding thresholds.  Empty bins (see
    ``cell_grid``) carry no type and are left out of the grid.
    """
    breakpoints = (
        [iv.lo for iv in rules.partition.intervals]
        if rules.partition is not None else []
    )
    grid = cell_grid(cont_inst.dist, bins, breakpoints)
    keep = grid.bin_mass > 0
    p_avg = grid.bin_mean(grid.integrate(rules.P))[keep].tolist()
    edges = np.linspace(0.0, 1.0, bins + 1)
    mids = (0.5 * (edges[:-1] + edges[1:]))[keep]
    masses = grid.bin_mass[keep].tolist()
    total = sum(masses)
    masses = tuple(w / total for w in masses)
    n = cont_inst.n
    disc = DiscreteInstance(
        grids=(tuple(mids.tolist()),) * n,
        masses=(masses,) * n,
        capacity_default=cont_inst.m,
    )
    return disc, p_avg


def audit_threshold_report(inst: DiscreteInstance, p_merit: np.ndarray,
                           A: Sequence[Sequence[float]], k: int,
                           aud_lo: int, aud_hi: int) -> dict:
    """Check audit feasibility on threshold-form sets only.

    For merit-stage allocations the binding sets have the form
    E = [g, aud_hi) union [g', size) with g at or below the audit region's
    start and g' at or past its end; this screens that family exactly and
    reports the tightest member.  The general flow check remains the
    oracle.
    """
    return _tightest_report(_Scaled(_audit_instance(inst, p_merit, k), A), (
        tuple(frozenset([*range(g, min(aud_hi, s)), *range(g_hi, s)]) for s in inst.sizes)
        for g in range(aud_lo + 1)
        for g_hi in range(aud_hi, max(inst.sizes) + 1)
    ))
