"""Finite posets given by generating relations.

A Poset is built from a list of elements and a list of (a, b) pairs read
as a <= b.  Construction takes the reflexive-transitive closure and
rejects any antisymmetry violation (a cycle through two or more distinct
elements), so every constructed instance is a genuine partial order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence


class Poset:
    __slots__ = ("elements", "_index", "_up")

    def __init__(self, elements: Sequence[Hashable],
                 relations: Iterable[tuple[Hashable, Hashable]]):
        ordered: list[Hashable] = []
        for e in elements:
            if e not in ordered:
                ordered.append(e)
        self.elements: tuple = tuple(ordered)
        self._index = {e: k for k, e in enumerate(self.elements)}

        succ: dict = {e: set() for e in self.elements}
        pairs = list(relations)
        for a, b in pairs:
            if a not in self._index or b not in self._index:
                missing = a if a not in self._index else b
                raise ValueError(f"relation mentions unknown element {missing!r}")
            if a != b:
                succ[a].add(b)

        # _up[e] = all elements >= e, computed by BFS along generating edges
        self._up: dict = {}
        for e in self.elements:
            seen = {e}
            queue = deque([e])
            while queue:
                cur = queue.popleft()
                for nxt in succ[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            self._up[e] = frozenset(seen)

        for a in self.elements:
            for b in self._up[a]:
                if b != a and a in self._up[b]:
                    raise ValueError(
                        f"relations force {a!r} <= {b!r} and {b!r} <= {a!r}")

    def leq(self, a, b) -> bool:
        """a <= b in the partial order."""
        if a not in self._index or b not in self._index:
            missing = a if a not in self._index else b
            raise ValueError(f"unknown element {missing!r}")
        return b in self._up[a]

    def comparable(self, a, b) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def incomparable_pairs(self) -> list[tuple]:
        """All unordered incomparable pairs, in element-list order."""
        out = []
        for k, a in enumerate(self.elements):
            for b in self.elements[k + 1:]:
                if not self.comparable(a, b):
                    out.append((a, b))
        return out

    def covers(self) -> list[tuple]:
        """Edges (a, b) of the Hasse diagram: a < b with nothing between."""
        out = []
        for a in self.elements:
            strictly_above = [b for b in self._up[a] if b != a]
            for b in sorted(strictly_above, key=self._index.__getitem__):
                if not any(c != a and c != b and b in self._up[c]
                           for c in strictly_above):
                    out.append((a, b))
        return out

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self._index

    def to_json_dict(self) -> dict:
        return {
            "elements": [str(e) for e in self.elements],
            "covers": [[str(a), str(b)] for a, b in self.covers()],
        }

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram in DOT form, edges drawn lower -> higher."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for e in self.elements:
            lines.append(f'  "{e}";')
        for a, b in self.covers():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers())} covers)"
