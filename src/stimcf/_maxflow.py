"""Dinic max-flow on float capacities, small graphs.

Each node keeps a list of its edge ids; edge e and its reverse e ^ 1 are
added together.  A phase builds the BFS levels and then pushes a blocking
flow by an iterative depth-first search with a current-arc pointer per
node, so a path as long as the graph needs no Python recursion (and no
change of the process-wide recursion limit).  Returns the minimal
source-side min cut (reachable set in the residual graph), which for our
submodular set problems is the unique inclusion-minimal minimizer.
"""

import numpy as np

EPS_FLOW = 1e-15            # residual capacity at or below which an edge is full


class MaxFlow:
    def __init__(self, n_nodes):
        self.n = n_nodes + 2
        self.source = n_nodes
        self.sink = n_nodes + 1
        self.head = []
        self.cap = []
        self.adj = [[] for _ in range(self.n)]

    def add_edge(self, u, v, cap_uv, cap_vu=0.0):
        e = len(self.head)
        self.head += [v, u]
        self.cap += [float(cap_uv), float(cap_vu)]
        self.adj[u].append(e)
        self.adj[v].append(e + 1)

    def _levels(self):
        """BFS distance from the source over edges with residual capacity,
        -1 where unreachable."""
        head, cap, adj = self.head, self.cap, self.adj
        level = [-1] * self.n
        level[self.source] = 0
        queue = [self.source]
        for u in queue:
            for e in adj[u]:
                v = head[e]
                if cap[e] > EPS_FLOW and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _blocking_flow(self, level):
        """Push source-sink paths of the level graph until none is left;
        returns the flow pushed.  ``it[u]`` is u's current arc: the arcs
        before it are full or lead to dead ends."""
        head, cap, adj, sink = self.head, self.cap, self.adj, self.sink
        it = [0] * self.n
        flow = 0.0
        path = []               # edge ids from the source to node u
        u = self.source
        while True:
            arcs, i, next_level = adj[u], it[u], level[u] + 1
            while i < len(arcs):
                e = arcs[i]
                v = head[e]
                if cap[e] > EPS_FLOW and level[v] == next_level:
                    break
                i += 1
            else:
                # dead end: retreat, and the arc into u is spent
                it[u] = i
                if not path:
                    return flow
                u = head[path.pop() ^ 1]
                it[u] += 1
                continue
            it[u] = i
            path.append(e)
            if v != sink:
                u = v
                continue
            pushed = min(cap[e] for e in path)
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            flow += pushed
            # resume at the tail of the first edge the push filled
            j = next(j for j, e in enumerate(path) if cap[e] <= EPS_FLOW)
            u = head[path[j] ^ 1]
            del path[j:]

    def solve(self):
        flow = 0.0
        while True:
            level = self._levels()
            if level[self.sink] < 0:
                return flow
            flow += self._blocking_flow(level)

    def source_side(self):
        """Nodes reachable from the source in the residual graph."""
        head, cap, adj = self.head, self.cap, self.adj
        seen = np.zeros(self.n, bool)
        seen[self.source] = True
        stack = [self.source]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 1e-12 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen[:-2]
