"""The one graph kernel behind every exact verdict in :mod:`repro.core`.

A :class:`Graph` indexes a total adjacency mapping once (every successor
must itself be a key, as in a :class:`~repro.core.system.TransitionSystem`):
states get dense int ids in the mapping's iteration order, and the edges go
into an ``array`` CSR whose row ``i`` holds state ``i``'s children sorted by
``repr``.  Every question a verdict asks is then a linear pass over ints:

* :meth:`Graph.components` -- one iterative Tarjan, restricted to a node
  mask (edges leaving the mask are ignored);
* :meth:`Graph.stays_forever` -- one backward reach, inside a mask, from
  the mask's cycles: who has an infinite walk that never leaves it;
* :meth:`Graph.fair_components` -- weak fairness per action: which
  components hold a computation fair to every action (DESIGN §3,
  decision 16).

Child order is fixed when the graph is indexed, so traversal is
deterministic: Tarjan takes roots in mapping order and children in
``repr`` order, and component lists are stable across runs (tests assert
on them).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Iterator, Mapping

Node = Hashable
Mask = bytearray  # mask[i] != 0 iff node i is inside


class Graph:
    """Dense-id CSR index of a total adjacency mapping.

    ``nodes[i]`` is the state with id ``i`` and ``index`` its inverse;
    state ``i``'s children are ``targets[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(self, adjacency: Mapping[Node, Iterable[Node]]):
        self.nodes: list[Node] = list(adjacency)
        self.index: dict[Node, int] = {s: i for i, s in enumerate(self.nodes)}
        index = self.index
        self.offsets = array("q", [0])
        self.targets = array("q")
        for s in self.nodes:
            self.targets.extend(index[t] for t in sorted(adjacency[s], key=repr))
            self.offsets.append(len(self.targets))

    def components(
        self, mask: Mask | None = None
    ) -> tuple[list[int], list[list[int]]]:
        """Tarjan's algorithm, iterative, over the nodes of ``mask`` (all
        nodes when ``None``).

        Returns ``(comp, comps)``: ``comps`` lists the strongly connected
        components in the order Tarjan completes them (every component
        after all components it can reach), and ``comp[i]`` is node ``i``'s
        position in that list, ``-1`` outside the mask.
        """
        offsets, targets = self.offsets, self.targets
        n = len(self.nodes)
        order = [-1] * n
        low = [0] * n
        comp = [-1] * n
        comps: list[list[int]] = []
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if order[root] >= 0 or (mask is not None and not mask[root]):
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            path, cursor = [root], [offsets[root]]
            while path:
                v = path[-1]
                e, end = cursor[-1], offsets[v + 1]
                while e < end:
                    w = targets[e]
                    e += 1
                    if order[w] < 0:
                        if mask is None or mask[w]:
                            break
                    elif comp[w] < 0 and order[w] < low[v]:
                        low[v] = order[w]
                else:
                    path.pop()
                    cursor.pop()
                    if path and low[v] < low[path[-1]]:
                        low[path[-1]] = low[v]
                    if low[v] == order[v]:
                        members = []
                        while not members or members[-1] != v:
                            members.append(stack.pop())
                            comp[members[-1]] = len(comps)
                        comps.append(members)
                    continue
                cursor[-1] = e
                order[w] = low[w] = counter
                counter += 1
                stack.append(w)
                path.append(w)
                cursor.append(offsets[w])
        return comp, comps

    def internal_edges(self, comp: list[int]) -> Iterator[tuple[int, int]]:
        """The edges whose endpoints share a component of ``comp``: exactly
        the edges that lie on a cycle inside the mask ``comp`` was computed
        for (self-loops included)."""
        offsets, targets = self.offsets, self.targets
        for i, c in enumerate(comp):
            if c >= 0:
                for j in targets[offsets[i] : offsets[i + 1]]:
                    if comp[j] == c:
                        yield i, j

    def stays_forever(self, mask: Mask) -> Mask:
        """The nodes of ``mask`` with an infinite walk inside ``mask``.

        One SCC pass finds the mask's cycles, then one backward reach from
        them: Tarjan completes every component after each component it can
        reach, so a single pass in completion order carries "reaches a
        cycle" back along the edges, with no predecessor index.
        """
        offsets, targets = self.offsets, self.targets
        comp, comps = self.components(mask)
        stays = bytearray(len(self.nodes))
        for c, members in enumerate(comps):
            if any(
                comp[w] == c or stays[w]
                for v in members
                for w in targets[offsets[v] : offsets[v + 1]]
            ):
                for v in members:
                    stays[v] = 1
        return stays

    def fair_components(
        self, comp: list[int], actions: Iterable[Iterable[tuple[int, int]]]
    ) -> Mask:
        """Weak fairness per action over the components ``comp`` of the full
        graph: ``fair[c]`` is 1 iff every action -- given as its edges, id
        pairs that are edges of this graph -- is taken on an edge inside
        component ``c`` or disabled at some state of it.  Then the walk that
        covers every edge of ``c`` forever is fair (decision 16)."""
        count = max(comp, default=-1) + 1
        fair = bytearray(b"\x01") * count
        for action in actions:
            enabled = bytearray(len(self.nodes))
            excused = bytearray(count)
            for i, j in action:
                enabled[i] = 1
                if comp[i] == comp[j]:
                    excused[comp[i]] = 1
            for i, c in enumerate(comp):
                if not enabled[i]:
                    excused[c] = 1
            for c in range(count):
                if not excused[c]:
                    fair[c] = 0
        return fair
