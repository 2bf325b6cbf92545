"""Device topologies: coupling maps and standard lattice constructors.

The QEC agent (paper Section III-A, Agent #3) consumes a
:class:`CouplingMap` to decide whether a surface code can be laid out on the
device, and the transpiler uses it for SWAP routing.  ``heavy_hex`` builds the
IBM Eagle-class lattice used by :class:`repro.quantum.backend.FakeBrisbane`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from repro.errors import TranspilerError
from repro.utils import graphs


class CouplingMap:
    """An undirected qubit-connectivity graph.

    Two-qubit gates are permitted only between coupled qubits once a circuit
    has been routed.  Construction from an edge list::

        cmap = CouplingMap([(0, 1), (1, 2)])
    """

    def __init__(self, edges: Iterable[tuple[int, int]], name: str = "custom") -> None:
        self.name = name
        # Qubit -> {neighbour: None}, both in insertion order: routing walks
        # this order and layout walks its copy's (see ``graph``).
        self._adj: dict[int, dict[int, None]] = {}
        for a, b in edges:
            if a == b:
                raise TranspilerError(f"self-loop edge ({a}, {b}) in coupling map")
            graphs.add_edge(self._adj, _qubit_id(a), _qubit_id(b))
        if not self._adj:
            raise TranspilerError("coupling map has no edges")
        # Ensure node ids are contiguous 0..n-1.
        nodes = sorted(self._adj)
        if nodes != list(range(len(nodes))):
            raise TranspilerError(
                "coupling map qubit ids must be contiguous integers from 0"
            )

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self._adj)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted((min(a, b), max(a, b)) for a, b, _ in graphs.edges(self._adj))

    @property
    def adjacency(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each qubit with its neighbours, both in insertion order: all that
        layout and routing read, so two maps with equal adjacencies
        transpile alike."""
        return tuple((q, tuple(nbrs)) for q, nbrs in self._adj.items())

    @property
    def graph(self) -> dict[int, dict[int, None]]:
        """A fresh ``{qubit: {neighbour: None}}`` adjacency dict, in the
        order of networkx's ``Graph.copy()`` (:func:`graphs.copied`)."""
        return graphs.copied(self._adj)

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self._adj[self._on_map(qubit)])

    def degree(self, qubit: int) -> int:
        return len(self._adj[self._on_map(qubit)])

    def are_coupled(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def is_connected(self) -> bool:
        return len(graphs.bfs(self._adj, next(iter(self._adj)))) == len(self._adj)

    def distance(self, a: int, b: int) -> int:
        return len(self.shortest_path(a, b)) - 1

    def shortest_path(self, a: int, b: int) -> list[int]:
        path = graphs.shortest_path(self._adj, self._on_map(a), self._on_map(b))
        if path is None:
            raise TranspilerError(f"qubits {a} and {b} are not connected")
        return path

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self._adj.values())

    def subgraph_has_grid(self, rows: int, cols: int) -> bool:
        """Check whether a ``rows x cols`` grid embeds as a subgraph.

        Used by the QEC agent to decide if a surface-code patch fits the
        device.  The search is exact and exponential in the worst case, so
        sizes are kept small by callers (code distances <= 7).  It maps the
        grid's cells column by column along its shorter side onto distinct
        qubits, each coupled to its mapped upper and left neighbours and of
        at least its cell's degree, backtracking on a dead end.
        """
        if rows * cols > self.num_qubits:
            return False
        short, long = sorted((rows, cols))
        # Cell k is (k % short, k // short); its degree within the grid.
        need = [
            (i > 0) + (i < short - 1) + (j > 0) + (j < long - 1)
            for j in range(long)
            for i in range(short)
        ]
        adj = self._adj
        image: list[int] = []
        used: set[int] = set()

        def extend(k: int) -> bool:
            if k == len(need):
                return True
            up = image[k - 1] if k % short else None
            left = image[k - short] if k >= short else None
            anchor = left if left is not None else up
            for q in adj if anchor is None else adj[anchor]:
                if q in used or len(adj[q]) < need[k]:
                    continue
                if up is not None and up not in adj[q]:
                    continue
                image.append(q)
                used.add(q)
                if extend(k + 1):
                    return True
                image.pop()
                used.discard(q)
            return False

        return extend(0)

    def _on_map(self, qubit) -> int:
        q = _qubit_id(qubit)
        if q not in self._adj:
            raise TranspilerError(
                f"qubit {qubit!r} is not on coupling map '{self.name}' "
                f"(qubits 0..{self.num_qubits - 1})"
            )
        return q

    def __repr__(self) -> str:
        num_edges = sum(len(nbrs) for nbrs in self._adj.values()) // 2
        return (
            f"CouplingMap(name='{self.name}', qubits={self.num_qubits}, "
            f"edges={num_edges})"
        )

    # -- constructors ------------------------------------------------------------

    @classmethod
    def linear(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 2:
            raise TranspilerError("linear coupling map needs >= 2 qubits")
        return cls([(i, i + 1) for i in range(num_qubits - 1)], name=f"linear-{num_qubits}")

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 3:
            raise TranspilerError("ring coupling map needs >= 3 qubits")
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(edges, name=f"ring-{num_qubits}")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise TranspilerError("grid coupling map needs >= 2 qubits")
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(edges, name=f"grid-{rows}x{cols}")

    @classmethod
    def full(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 2:
            raise TranspilerError("full coupling map needs >= 2 qubits")
        edges = [
            (i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)
        ]
        return cls(edges, name=f"full-{num_qubits}")

    @classmethod
    def heavy_hex(
        cls, long_rows: int = 7, row_length: int = 15, name: str | None = None
    ) -> "CouplingMap":
        """IBM Eagle-style heavy-hex lattice.

        The lattice alternates *long rows* (horizontal chains of
        ``row_length`` qubits; the first and last rows are one qubit shorter,
        as on the 127-qubit Eagle) with rows of four *connector* qubits that
        bridge vertically.  Connector attachment columns alternate between
        ``0, 4, 8, ...`` and ``2, 6, 10, ...`` on successive connector rows,
        reproducing the heavy-hex unit cell.

        ``heavy_hex(7, 15)`` yields exactly 127 qubits (Brisbane-class).
        """
        if long_rows < 2 or row_length < 5:
            raise TranspilerError("heavy-hex needs >= 2 long rows of >= 5 qubits")
        edges: list[tuple[int, int]] = []
        next_id = 0
        row_ids: list[list[int]] = []
        for r in range(long_rows):
            length = row_length - 1 if r in (0, long_rows - 1) else row_length
            ids = list(range(next_id, next_id + length))
            next_id += length
            row_ids.append(ids)
            edges.extend((ids[i], ids[i + 1]) for i in range(len(ids) - 1))
            if r < long_rows - 1:
                # Connector columns alternate by row parity.
                offset = 0 if r % 2 == 0 else 2
                cols = list(range(offset, row_length, 4))
                connector_ids = list(range(next_id, next_id + len(cols)))
                next_id += len(cols)
                row_ids.append(connector_ids)
                for cid, col in zip(connector_ids, cols):
                    upper = row_ids[-2]
                    upper_col = min(col, len(upper) - 1)
                    edges.append((upper[upper_col], cid))
                # Defer lower attachments until the next long row exists.
        # Second pass: attach connectors downward.
        long_positions = [i for i in range(len(row_ids)) if i % 2 == 0]
        for idx, pos in enumerate(long_positions[:-1]):
            connector = row_ids[pos + 1]
            lower = row_ids[long_positions[idx + 1]]
            offset = 0 if idx % 2 == 0 else 2
            cols = list(range(offset, row_length, 4))
            for cid, col in zip(connector, cols):
                lower_col = min(col, len(lower) - 1)
                edges.append((cid, lower[lower_col]))
        cmap = cls(edges, name=name or f"heavy-hex-{long_rows}x{row_length}")
        return cmap

    @classmethod
    def brisbane(cls) -> "CouplingMap":
        """The 127-qubit Brisbane-class heavy-hex lattice."""
        return cls.heavy_hex(7, 15, name="brisbane")


def _qubit_id(qubit) -> int:
    """``qubit`` as an int id; any integer type (numpy's too) passes."""
    try:
        return operator.index(qubit)
    except TypeError:
        raise TranspilerError(f"qubit id {qubit!r} is not an integer") from None
