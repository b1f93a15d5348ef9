"""Modified nodal analysis over complex frequency.

Element stamps accumulate into a conductance matrix ``G`` and a capacitance
matrix ``C``; an AC solve at angular frequency ``w`` solves ``G + jwC``
for any number of right-hand sides, and a sweep solves every frequency
in one stacked call.  Every solve runs through numpy's LAPACK
(``np.linalg.solve``), whose results do not depend on the BLAS thread
count; scipy's ``lu_solve`` rounds differently at one and two OpenBLAS
threads, which made simulated metrics depend on the host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.reliability.errors import SimulationError

#: Conductance from every node to ground, keeping G non-singular at DC for
#: nodes reached only through capacitors or MOS gates.
G_MIN = 1e-10


class MnaSystem:
    """A linear(ized) circuit ready for AC analysis.

    Nodes are referenced by string name; the ground node is the reserved
    name ``"0"``.  Stamps may be added in any order before solving.
    """

    GROUND = "0"

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._g_entries: list[tuple[int, int, float]] = []
        self._c_entries: list[tuple[int, int, float]] = []
        self._g: np.ndarray | None = None
        self._c: np.ndarray | None = None
        # (frequency bytes, matrix stack) of the last sweep.
        self._sweep: tuple[bytes, np.ndarray] | None = None

    # -- node management --------------------------------------------------------

    def node(self, name: str) -> int:
        """Index of a node, creating it on first use.  Ground is -1."""
        if name == self.GROUND:
            return -1
        if name not in self._index:
            self._index[name] = len(self._index)
            self._g = None
        return self._index[name]

    @property
    def num_nodes(self) -> int:
        return len(self._index)

    def has_node(self, name: str) -> bool:
        return name in self._index

    # -- stamps -------------------------------------------------------------------

    def _stamp_pair(
        self, entries: list[tuple[int, int, float]], a: int, b: int, value: float
    ) -> None:
        if a >= 0:
            entries.append((a, a, value))
        if b >= 0:
            entries.append((b, b, value))
        if a >= 0 and b >= 0:
            entries.append((a, b, -value))
            entries.append((b, a, -value))
        self._g = None

    def add_conductance(self, a: str, b: str, g: float) -> None:
        """Conductance ``g`` siemens between nodes ``a`` and ``b``."""
        if g < 0:
            raise ValueError(f"negative conductance {g}")
        self._stamp_pair(self._g_entries, self.node(a), self.node(b), g)

    def add_resistance(self, a: str, b: str, r: float) -> None:
        if r <= 0:
            raise ValueError(f"non-positive resistance {r}")
        self.add_conductance(a, b, 1.0 / r)

    def add_capacitance(self, a: str, b: str, c: float) -> None:
        """Capacitance ``c`` farads between nodes ``a`` and ``b``."""
        if c < 0:
            raise ValueError(f"negative capacitance {c}")
        self._stamp_pair(self._c_entries, self.node(a), self.node(b), c)

    def add_vccs(self, out_p: str, out_n: str, in_p: str, in_n: str, gm: float) -> None:
        """Voltage-controlled current source: I(out_p -> out_n) = gm * V(in_p, in_n)."""
        op, on = self.node(out_p), self.node(out_n)
        ip, in_ = self.node(in_p), self.node(in_n)
        for row, sign_row in ((op, 1.0), (on, -1.0)):
            if row < 0:
                continue
            for col, sign_col in ((ip, 1.0), (in_, -1.0)):
                if col < 0:
                    continue
                self._g_entries.append((row, col, gm * sign_row * sign_col))
        self._g = None

    # -- assembly and solving -------------------------------------------------------

    def _assemble(self) -> None:
        n = self.num_nodes
        g = np.zeros((n, n))
        c = np.zeros((n, n))
        for i, j, v in self._g_entries:
            g[i, j] += v
        for i, j, v in self._c_entries:
            c[i, j] += v
        g[np.diag_indices(n)] += G_MIN
        self._g, self._c = g, c

    def _system_matrices(self, freqs: np.ndarray) -> np.ndarray:
        """``G + j*2*pi*f*C`` at each frequency, stacked (F, n, n).

        The stack of the last frequency grid is kept until a stamp
        changes the system, so an AC sweep and a noise sweep over the
        same grid build it once.

        Raises:
            SimulationError: a system matrix has non-finite entries.
        """
        if self._g is None:
            self._assemble()
            self._sweep = None
        key = freqs.tobytes()
        if self._sweep is not None and self._sweep[0] == key:
            return self._sweep[1]
        omega = 2.0 * np.pi * freqs
        matrices = (self._g.astype(complex)
                    + 1j * omega[:, None, None] * self._c)
        finite = np.isfinite(matrices).all(axis=(1, 2))
        if not finite.all():
            freq = float(freqs[np.argmin(finite)])
            raise SimulationError(
                f"MNA matrix has non-finite entries at {freq:g} Hz",
                stage="simulation", details={"freq_hz": freq})
        self._sweep = (key, matrices)
        return matrices

    def solve_sweep(self, freqs: Sequence[float],
                    injections: Sequence[dict[str, complex]],
                    transposed: bool = False) -> np.ndarray:
        """Node voltages for several injection sets at every frequency.

        Args:
            freqs: analysis frequencies in hertz.
            injections: per right-hand side, the current (amperes)
                injected *into* each named node.
            transposed: solve the transposed (adjoint) systems instead.
                With one right-hand side of output weights ``w_k`` on
                nodes ``k``, entry ``[f, node(n), 0]`` is then the output
                ``sum_k w_k * V(k)`` that 1 A injected into node ``n``
                produces: noise analysis prices every source with one
                solve.

        Returns:
            (F, num_nodes, K) complex voltages, in node-index order
            (:meth:`node`), for F frequencies and K injection sets.

        Raises:
            SimulationError: a system matrix has non-finite entries, is
                singular, or solves to non-finite node voltages.
        """
        freqs = np.asarray(freqs, dtype=float).reshape(-1)
        matrices = self._system_matrices(freqs)
        if transposed:
            matrices = matrices.transpose(0, 2, 1)
        rhs = np.zeros((self.num_nodes, len(injections)), dtype=complex)
        for k, currents in enumerate(injections):
            for name, current in currents.items():
                idx = self.node(name)
                if idx >= 0:
                    rhs[idx, k] += current
        try:
            solution = np.linalg.solve(
                matrices, np.broadcast_to(rhs, (len(freqs), *rhs.shape)))
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"MNA solve failed between {freqs.min():g} and "
                f"{freqs.max():g} Hz: {exc}", stage="simulation",
                details={"freq_hz": float(freqs.min())}) from exc
        finite = np.isfinite(solution).all(axis=(1, 2))
        if not finite.all():
            # A numerically singular matrix can pass the solve but
            # back-substitute to inf/nan node voltages.
            freq = float(freqs[np.argmin(finite)])
            raise SimulationError(
                f"singular MNA system at {freq:g} Hz "
                f"(non-finite node voltages)",
                stage="simulation", details={"freq_hz": freq})
        return solution

    def solve(self, freq: float,
              injections: dict[str, complex]) -> dict[str, complex]:
        """Node voltages for current injections at one frequency.

        Args:
            freq: analysis frequency in hertz.
            injections: current (amperes) injected *into* each named node.

        Returns:
            Mapping of node name to complex voltage (ground excluded).
        """
        solution = self.solve_sweep([freq], [injections])[0, :, 0]
        return {name: solution[i] for name, i in self._index.items()}
