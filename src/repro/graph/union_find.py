"""Incremental union-find with dirty-component tracking and per-component tallies.

The streaming resolver (:mod:`repro.streaming`) maintains the pair graph's
connected components *incrementally*: every arriving candidate pair is a
``union`` of its two records, and any component touched by a new record or
new pair since the last :meth:`IncrementalUnionFind.clear_dirty` is marked
**dirty**.  Each component also carries a few integer *tallies* (the
session counts its pairs, voted pairs and posteriors), summed when two
components merge, so what a set of dirty components holds is read in
O(components) instead of by walking their members.

Union by size with path halving gives effectively O(alpha(n)) amortised
operations, so maintaining components across thousands of record batches
costs far less than re-running a BFS over the full pair graph per batch
(:func:`repro.graph.components.connected_components` stays the batch-mode
primitive).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set


class IncrementalUnionFind:
    """Disjoint sets over string ids with dirty-set bookkeeping.

    A component is *dirty* when, since the last :meth:`clear_dirty`, it
    gained a vertex, gained an edge (even an internal one between already
    connected vertices — re-verification may be wanted) or was merged with
    another component.  Dirtiness is tracked per current *root*, and
    survives merges: a clean component absorbed by a dirty one (or vice
    versa) becomes dirty.

    ``width`` is the number of tallies each component carries, all zero
    for a new vertex: :meth:`tally` adds to one of a component's,
    :meth:`union` sums the two components', and :meth:`totals` sums them
    over a set of roots.
    """

    def __init__(self, width: int = 0) -> None:
        self._parent: Dict[str, str] = {}
        self._size: Dict[str, int] = {}
        # root -> member list, merged smaller-into-larger on union so total
        # relinking work is O(n log n); lets callers enumerate one dirty
        # component without scanning the whole store.
        self._members: Dict[str, List[str]] = {}
        self._dirty: Set[str] = set()
        self._width = width
        # root -> its tallies; a root without an entry tallies zeros.
        self._tallies: Dict[str, List[int]] = {}

    # ------------------------------------------------------------ mutation
    def add(self, item: str) -> bool:
        """Add a new singleton component (dirty by definition).

        Returns True if the item was new, False if it already existed.
        """
        if item in self._parent:
            return False
        self._parent[item] = item
        self._size[item] = 1
        self._members[item] = [item]
        self._dirty.add(item)
        return True

    def union(self, a: str, b: str) -> str:
        """Union the components of ``a`` and ``b``; both become dirty.

        Unknown items are added on the fly.  Returns the root of the merged
        component.  A union of two already-connected items still dirties the
        component (a new edge arrived inside it).
        """
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            self._dirty.add(root_a)
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        del self._size[root_b]
        self._members[root_a].extend(self._members.pop(root_b))
        absorbed = self._tallies.pop(root_b, None)
        if absorbed is not None:
            kept = self._tallies.setdefault(root_a, [0] * self._width)
            for column, amount in enumerate(absorbed):
                kept[column] += amount
        # The merged component is dirty (it gained an edge), and root_b no
        # longer names a component.
        self._dirty.discard(root_b)
        self._dirty.add(root_a)
        return root_a

    def tally(self, item: str, column: int, amount: int = 1) -> None:
        """Add ``amount`` to tally ``column`` of ``item``'s component (item must exist)."""
        root = self.find(item)
        counts = self._tallies.get(root)
        if counts is None:
            counts = self._tallies[root] = [0] * self._width
        counts[column] += amount

    def detach(self, items: Iterable[str]) -> List[str]:
        """Remove ``items`` from the structure entirely.

        Union-find cannot delete a vertex in place, so every component that
        contains a detached item is dissolved: the detached items vanish and
        the *surviving* members of those components are re-added as dirty
        singletons with zero tallies.  The caller is responsible for
        re-unioning the surviving edges and re-tallying what they carry
        (the streaming resolver replays each survivor's candidate pairs),
        after which the touched components are exactly the connected
        components of the surviving edge set.

        Returns the surviving members, in their original membership order,
        so the caller knows whose edges to replay.  Unknown items are
        ignored.
        """
        doomed = {item for item in items if item in self._parent}
        if not doomed:
            return []
        roots = {self.find(item) for item in doomed}
        survivors: List[str] = []
        for root in roots:
            members = self._members.pop(root)
            del self._size[root]
            self._tallies.pop(root, None)
            self._dirty.discard(root)
            for member in members:
                del self._parent[member]
                if member not in doomed:
                    survivors.append(member)
        for member in survivors:
            self.add(member)  # dirty singleton
        return survivors

    def clear_dirty(self) -> None:
        """Declare every component clean (end of a batch round)."""
        self._dirty.clear()

    # ------------------------------------------------------------- queries
    def find(self, item: str) -> str:
        """Return the root of ``item``'s component (with path halving)."""
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def __contains__(self, item: object) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint components."""
        return len(self._size)

    def dirty_roots(self) -> Set[str]:
        """Roots of all currently dirty components."""
        return set(self._dirty)

    def totals(self, roots: Iterable[str]) -> List[int]:
        """Each tally summed over the components with the given roots: O(roots)."""
        sums = [0] * self._width
        for root in roots:
            for column, amount in enumerate(self._tallies.get(root, ())):
                sums[column] += amount
        return sums

    def members(self, root: str) -> List[str]:
        """The members of the component whose root is ``root``.

        O(component size): read off the maintained member list, no scan of
        the other components.  ``root`` must be a current root (as returned
        by :meth:`find` or :meth:`dirty_roots`).
        """
        return list(self._members[root])
