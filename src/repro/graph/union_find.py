"""Incremental union-find with dirty-component tracking.

The streaming resolver (:mod:`repro.streaming`) maintains the pair graph's
connected components *incrementally*: every arriving candidate pair is a
``union`` of its two records, and any component touched by a new record or
new pair since the last :meth:`IncrementalUnionFind.clear_dirty` is marked
**dirty**.  Only dirty components need their HITs regenerated and their
votes re-aggregated; clean components keep their cached posteriors.

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
    connected vertices — re-verification may be wanted), was merged with
    another component, or was explicitly marked via :meth:`mark_dirty`.
    Dirtiness is tracked per current *root*, and survives merges: a clean
    component absorbed by a dirty one (or vice versa) becomes dirty.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._size: Dict[str, int] = {}
        # root -> member list, merged smaller-into-larger on union so total
        # relinking work is O(n log n); lets callers enumerate one dirty
        # component without scanning the whole store.
        self._members: Dict[str, List[str]] = {}
        self._dirty: Set[str] = set()

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
        # The merged component is dirty (it gained an edge), and root_b no
        # longer names a component.
        self._dirty.discard(root_b)
        self._dirty.add(root_a)
        return root_a

    def mark_dirty(self, item: str) -> None:
        """Mark the component containing ``item`` dirty (item must exist)."""
        self._dirty.add(self.find(item))

    def detach(self, items: Iterable[str]) -> List[str]:
        """Remove ``items`` from the structure entirely.

        Union-find cannot delete a vertex in place, so every component that
        contains a detached item is dissolved: the detached items vanish and
        the *surviving* members of those components are re-added as dirty
        singletons.  The caller is responsible for re-unioning the surviving
        edges (the streaming resolver replays each survivor's candidate
        pairs), after which the touched components are exactly the connected
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

    def connected(self, a: str, b: str) -> bool:
        """True if both items exist and share a component."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def __contains__(self, item: object) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint components."""
        return len(self._size)

    def component_size(self, item: str) -> int:
        """Size of the component containing ``item``."""
        return self._size[self.find(item)]

    def dirty_roots(self) -> Set[str]:
        """Roots of all currently dirty components."""
        return set(self._dirty)

    def is_dirty(self, item: str) -> bool:
        """True if ``item``'s component is dirty."""
        return self.find(item) in self._dirty

    def roots(self) -> List[str]:
        """All component roots, in no particular order."""
        return list(self._size)

    def members(self, root: str) -> List[str]:
        """The members of the component whose root is ``root``.

        O(component size): read off the maintained member list, no scan of
        the other components.  ``root`` must be a current root (as returned
        by :meth:`find`, :meth:`dirty_roots` or :meth:`roots`).
        """
        return list(self._members[root])

    def components(self, items: Iterable[str] = ()) -> Dict[str, List[str]]:
        """Group items by component root.

        With no argument, every component's maintained member list is
        returned; with ``items``, only those items are grouped.  Output is
        deterministic for a deterministic operation sequence.
        """
        if not items:
            return {root: list(members) for root, members in self._members.items()}
        grouped: Dict[str, List[str]] = {}
        for item in items:
            grouped.setdefault(self.find(item), []).append(item)
        return grouped
