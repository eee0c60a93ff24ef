"""Finite posets given by generating relations.

A Poset is built from a list of elements and a list of (a, b) pairs read
as a <= b.  The constructor takes the reflexive-transitive closure as
bitmasks over element positions, once: ``up[k]`` holds the elements
>= element k, and ``comparable_masks[k]`` those comparable with it; it
also lists the incomparable pairs.  Every query reads these.  Any
antisymmetry violation (a cycle through two or more distinct elements)
is rejected, so every constructed instance is a genuine partial order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence


class Poset:
    __slots__ = ("elements", "_index", "up", "comparable_masks",
                 "_incomparable")

    def __init__(self, elements: Sequence[Hashable],
                 relations: Iterable[tuple[Hashable, Hashable]]):
        self.elements: tuple = tuple(dict.fromkeys(elements))
        self._index = {e: k for k, e in enumerate(self.elements)}
        nv = len(self.elements)

        up = [1 << k for k in range(nv)]
        for a, b in relations:
            if a not in self._index or b not in self._index:
                missing = a if a not in self._index else b
                raise ValueError(f"relation mentions unknown element {missing!r}")
            up[self._index[a]] |= 1 << self._index[b]
        # Warshall's closure: each element below k gets k's up-set
        for k in range(nv):
            above = up[k]
            up = [u | above if u >> k & 1 else u for u in up]
        down = [sum(1 << i for i in range(nv) if up[i] >> k & 1)
                for k in range(nv)]

        for k, a in enumerate(self.elements):
            both = up[k] & down[k] & ~(1 << k)
            if both:
                b = self.elements[(both & -both).bit_length() - 1]
                raise ValueError(
                    f"relations force {a!r} <= {b!r} and {b!r} <= {a!r}")
        self.up: tuple[int, ...] = tuple(up)
        self.comparable_masks: tuple[int, ...] = tuple(
            u | d for u, d in zip(up, down))
        masks = self.comparable_masks
        self._incomparable = tuple(
            (a, self.elements[q]) for p, a in enumerate(self.elements)
            for q in range(p + 1, nv) if not masks[p] >> q & 1)

    def _position(self, e) -> int:
        if e not in self._index:
            raise ValueError(f"unknown element {e!r}")
        return self._index[e]

    def leq(self, a, b) -> bool:
        """a <= b in the partial order."""
        p, q = self._position(a), self._position(b)
        return bool(self.up[p] >> q & 1)

    def comparable(self, a, b) -> bool:
        p, q = self._position(a), self._position(b)
        return bool(self.comparable_masks[p] >> q & 1)

    def incomparable_pairs(self) -> tuple[tuple, ...]:
        """All unordered incomparable pairs, in element-list order."""
        return self._incomparable

    def covers(self) -> list[tuple]:
        """Edges (a, b) of the Hasse diagram: a < b with nothing between.

        The interval [a, b] is up[a] AND down[b], where down[b] is b plus
        the elements comparable with b and not above it; b covers a when
        that interval holds exactly a and b.
        """
        elements, up = self.elements, self.up
        down = [m & ~u | 1 << k
                for k, (m, u) in enumerate(zip(self.comparable_masks, up))]
        return [(a, b) for p, a in enumerate(elements)
                for q, b in enumerate(elements)
                if (up[p] & down[q]).bit_count() == 2]

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
