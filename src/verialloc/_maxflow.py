"""Dinic max-flow on integer capacities.

Capacities are Python ints, so flows computed from exactly-scaled rational
data are exact: feasibility verdicts carry no floating-point ambiguity.
The graph is stored as flat arrays (forward star) to keep the inner loops
cheap; reverse arcs live at pairing index arc^1.
"""

from __future__ import annotations

from array import array
from collections import deque


class MaxFlow:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head = array("q", [-1] * num_nodes)
        self.to = array("q")
        self.nxt = array("q")
        self.cap: list[int] = []  # residual capacities; Python ints stay exact

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add arc u->v with the given capacity; returns the arc id."""
        if capacity < 0:
            raise ValueError("negative capacity")
        arc = len(self.cap)
        self.to.append(v)
        self.nxt.append(self.head[u])
        self.head[u] = arc
        self.cap.append(capacity)
        self.to.append(u)
        self.nxt.append(self.head[v])
        self.head[v] = arc + 1
        self.cap.append(0)
        return arc

    def _bfs_levels(self, s: int, t: int) -> bool:
        self.level = array("q", [-1] * self.n)
        self.level[s] = 0
        dq = deque([s])
        head, to, nxt, cap, level = self.head, self.to, self.nxt, self.cap, self.level
        while dq:
            u = dq.popleft()
            lu = level[u] + 1
            a = head[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = lu
                    dq.append(v)
                a = nxt[a]
        return self.level[t] >= 0

    def _blocking_flow(self, s: int, t: int) -> int:
        to, nxt, cap, level = self.to, self.nxt, self.cap, self.level
        it = array("q", self.head)
        total = 0
        # iterative DFS; stack holds the arc taken into each node on the path
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                total += pushed
                # retreat to the first saturated arc on the path
                for i, a in enumerate(path):
                    if cap[a] == 0:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            a = it[u]
            advanced = False
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] == level[u] + 1:
                    it[u] = a
                    path.append(a)
                    u = v
                    advanced = True
                    break
                a = nxt[a]
            if not advanced:
                it[u] = -1
                level[u] = -2  # dead end for this phase
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
        return total

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs_levels(s, t):
            total += self._blocking_flow(s, t)
        return total

    def reachable_from(self, s: int) -> list[bool]:
        """Nodes reachable from s in the residual graph (source side of a min cut)."""
        seen = [False] * self.n
        seen[s] = True
        dq = deque([s])
        head, to, nxt, cap = self.head, self.to, self.nxt, self.cap
        while dq:
            u = dq.popleft()
            a = head[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    dq.append(v)
                a = nxt[a]
        return seen
