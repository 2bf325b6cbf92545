"""The rotated surface code (Fowler et al., Phys. Rev. A 86, 032324 — the
paper's reference [18]).

Data qubits sit on a d x d grid; weight-4 plaquette stabilizers tile the bulk
in a checkerboard of X and Z types, with weight-2 boundary checks: X-type
checks terminate on the top/bottom boundaries and Z-type on the left/right.
Logical Z runs along the top row (crossing every X-boundary column), logical X
down the left column.

The construction is fully coordinate-based so Figure-2-style lattice renders
and the QEC agent's device layout can share the same geometry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeConstructionError
from repro.qec.codes.base import CSSCode


class SurfaceCode(CSSCode):
    """[[d^2, 1, d]] rotated surface code."""

    def __init__(self, distance: int) -> None:
        if distance < 3 or distance % 2 == 0:
            raise CodeConstructionError(
                f"surface code distance must be odd and >= 3, got {distance}"
            )
        self._d = distance
        hx_rows, hz_rows = [], []
        x_coords, z_coords = [], []
        d = distance
        n = d * d

        def data_index(row: int, col: int) -> int:
            return row * d + col

        # Plaquette corners live at (r, c) with r, c in 0..d; the plaquette
        # covers the up-to-four data qubits NW/NE/SW/SE of the corner.
        for r in range(d + 1):
            for c in range(d + 1):
                cells = [
                    (rr, cc)
                    for rr, cc in [(r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c)]
                    if 0 <= rr < d and 0 <= cc < d
                ]
                if len(cells) < 2:
                    continue  # corners of the patch host no check
                is_x_type = (r + c) % 2 == 0
                is_bulk = len(cells) == 4
                if not is_bulk:
                    # Boundary rule: X checks only on top/bottom edges,
                    # Z checks only on left/right edges.
                    on_top_bottom = r == 0 or r == d
                    on_left_right = c == 0 or c == d
                    if is_x_type and not on_top_bottom:
                        continue
                    if not is_x_type and not on_left_right:
                        continue
                row_vec = np.zeros(n, dtype=bool)
                for rr, cc in cells:
                    row_vec[data_index(rr, cc)] = True
                if is_x_type:
                    hx_rows.append(row_vec)
                    x_coords.append((r, c))
                else:
                    hz_rows.append(row_vec)
                    z_coords.append((r, c))

        hx = np.array(hx_rows, dtype=bool)
        hz = np.array(hz_rows, dtype=bool)
        expected = (d * d - 1) // 2
        if hx.shape[0] != expected or hz.shape[0] != expected:
            raise CodeConstructionError(
                f"surface-{d}: built {hx.shape[0]} X and {hz.shape[0]} Z "
                f"checks, expected {expected} each"
            )

        logical_z = np.zeros(n, dtype=bool)
        logical_z[[data_index(0, c) for c in range(d)]] = True  # top row
        logical_x = np.zeros(n, dtype=bool)
        logical_x[[data_index(r, 0) for r in range(d)]] = True  # left column

        data_coords = np.array([[r, c] for r in range(d) for c in range(d)], float)
        super().__init__(
            name=f"surface-{distance}",
            hx=hx,
            hz=hz,
            logical_x=logical_x,
            logical_z=logical_z,
            distance=distance,
            data_coords=data_coords,
            x_check_coords=np.array(x_coords, float),
            z_check_coords=np.array(z_coords, float),
        )

    def data_index(self, row: int, col: int) -> int:
        """Index of the data qubit at lattice position (row, col)."""
        d = self._d
        if not (0 <= row < d and 0 <= col < d):
            raise CodeConstructionError(f"({row}, {col}) outside a d={d} lattice")
        return row * d + col

    def ascii_lattice(
        self,
        error_bits: np.ndarray | None = None,
        highlight_checks: set[int] | None = None,
        error_type: str = "x",
    ) -> str:
        """Render the lattice: data qubits, checks, errors and fired checks.

        Data qubits print as ``.`` (or ``X``/``Z`` when errored); checks of
        the type that detects ``error_type`` print as ``o`` (or ``*`` when in
        ``highlight_checks``).  This drives the Figure-2 style decoder trace.
        """
        d = self._d
        coords = self.z_check_coords if error_type == "x" else self.x_check_coords
        fired = highlight_checks or set()
        err = (
            np.asarray(error_bits, dtype=bool)
            if error_bits is not None
            else np.zeros(d * d, dtype=bool)
        )
        # Canvas indexed by half-integer lattice positions, scaled by 2.
        size = 2 * d + 1
        canvas = [[" "] * size for _ in range(size)]
        for r in range(d):
            for c in range(d):
                mark = error_type.upper() if err[self.data_index(r, c)] else "."
                canvas[2 * r + 1][2 * c + 1] = mark
        for idx, (r, c) in enumerate(coords):
            mark = "*" if idx in fired else "o"
            canvas[int(2 * r)][int(2 * c)] = mark
        return "\n".join("".join(row).rstrip() for row in canvas)
