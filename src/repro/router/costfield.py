"""Cost lists for the A* inner loop.

The router's per-node arithmetic — occupancy/blockage tests, history and
present-penalty lookups, per-direction guidance-scaled step costs, and the
heuristic — is held in flat lists so the expansion loop is pure lookups.
The lists come in two layers:

* :class:`CostState` holds the grid-dependent *entry* costs of every
  cell: the weighted history, the hard-mode entry cost (``inf`` on
  impassable cells, so one comparison replaces the bounds / blocked /
  ownership branch cascade) and the soft-mode present penalty.
  :meth:`IterativeRouter.route_all
  <repro.router.iterative.IterativeRouter.route_all>` keeps one instance
  live for the whole run: it builds the lists once and then rewrites only
  the cells a commit, a rip-up or a history bump changes.  A standalone
  ``route_connection`` takes a fresh snapshot.
* :class:`CostField` adds one connection's guidance: per-layer planar step
  costs (wire cost, wrong-way penalty and guidance ``C[d]`` premultiplied),
  the via cost, and the admissible heuristic
  ``man * h_scale + |l - l_t| * via`` toward the connection's one target:
  two per-axis lists of unscaled distances, from which the engines add
  up the Manhattan term once per expansion, plus a per-layer list of
  layer terms.

All lists use a **padded** layout: the grid is embedded in an
``(nx + 2, ny + 2, nl + 2)`` box whose border cells are impassable.
Neighbor indices of in-grid cells are then always valid, so the expansion
loop needs no bounds checks at all.

:meth:`CostField.quantize` detects when the step-cost alphabet lies on a
dyadic lattice (all costs are exact multiples of ``2**-k``).  Integer cost
arithmetic is then *bit-exact* with the float arithmetic of the seed
router, which is what lets the bucketed queue engine (see
``repro.router.pqueue``) batch equal-priority frontier nodes without
changing a single routed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.reliability.errors import RoutingError
from repro.router.grid import BLOCKED, FREE, GridNode, RoutingGrid

INF = float("inf")

#: Candidate dyadic quantization scales, coarse to fine.
_QUANT_SCALES = tuple(2 ** k for k in range(0, 21))

#: Integer cost values must keep every partial sum below this bound so the
#: equivalent float sums are exact (dyadics below 2**52 add without
#: rounding).
_EXACT_SUM_BOUND = 1 << 52

#: Cached marker for "this field's costs do not quantize".
_NO_QUANT = ("no-quant",)

#: Open-net index while no net is open: no cell holds it.
_NO_NET = BLOCKED - 1


def validate_connection_inputs(
    guidance_vec: "np.ndarray | None",
) -> tuple[float, float, float]:
    """Validate one connection's guidance vector.

    A NaN, infinite or negative guidance entry would silently poison every
    g-score it touches, so it raises
    :class:`~repro.reliability.errors.RoutingError` naming the offending
    value.  A shape error keeps raising ``ValueError`` (API contract).
    """
    if guidance_vec is None:
        return (1.0, 1.0, 1.0)
    arr = np.asarray(guidance_vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(
            f"guidance_vec must have shape (3,), got {arr.shape}")
    values = arr.tolist()
    if not all(math.isfinite(v) for v in values):
        raise RoutingError(
            f"non-finite guidance_vec entry: {values}",
            stage="routing", details={"guidance_vec": values})
    if any(v < 0.0 for v in values):
        raise RoutingError(
            f"negative guidance_vec entry: {values}",
            stage="routing", details={"guidance_vec": values})
    return (values[0], values[1], values[2])


def _dyadic_scale(values) -> "int | None":
    """Smallest candidate scale making every value an integer, or None.

    Fast-fail probe first: a value that isn't dyadic at the finest scale
    isn't dyadic at any coarser one (power-of-two scaling is exact).  The
    valid scales of one value are closed upward, so the scale of a union
    of value sets is the largest of their scales.
    """
    finest = _QUANT_SCALES[-1]
    if not all((v * finest).is_integer() for v in values):
        return None
    for cand in _QUANT_SCALES:
        if all((v * cand).is_integer() for v in values):
            return cand
    return None


@dataclass
class QuantizedField:
    """Integer twin of a :class:`CostField` on a dyadic cost lattice.

    Every per-cell and per-layer field is a plain list: the bucketed
    engine indexes them one element at a time, where Python list
    indexing beats numpy scalar indexing by ~10x.

    Attributes:
        scale: ``int_cost = float_cost * scale`` for every alphabet member.
        entry: integer entry costs (padded flat); ``impassable`` marks
            blocked cells (any value >= it is unreachable).
        h_x / h_y: unscaled distance to the target per *padded* x and y
            index; their sum, the Manhattan term, is multiplied by
            ``h_factor`` per push.
        h_layer: layer term per *padded* layer index.
        h_factor: ``h_scale * scale``, an exact integer.
        step_x / step_y: planar step cost per *padded* layer index.
        via: via step cost.
        impassable: sentinel entry cost for blocked cells.
        f_bound: exclusive upper bound on any reachable f value; the bucket
            queue packs ``(f, g)`` keys with this modulus.
    """

    scale: int
    entry: list
    h_x: list
    h_y: list
    h_layer: list
    h_factor: int
    step_x: list
    step_y: list
    via: int
    impassable: int
    f_bound: int


def _pad(volume: np.ndarray, fill: float) -> np.ndarray:
    nx, ny, nl = volume.shape
    padded = np.full((nx + 2, ny + 2, nl + 2), fill, dtype=np.float64)
    padded[1:-1, 1:-1, 1:-1] = volume
    return padded.reshape(-1)


class CostState:
    """Padded entry-cost lists of a routing grid, with at most one net open.

    The lists follow the seed router's cost chain
    ``((g + step) + extra) + history`` term for term, so sums over them
    round exactly as the seed's do.

    Attributes:
        hist: ``history_weight * history``; 0 on border cells.
        hard: hard-mode entry cost: ``hist`` on free cells and on the
            open net's own, ``inf`` on every other cell.
        extra: soft-mode present penalty: 0 on free and own cells,
            ``present_penalty`` on other nets' cells, ``inf`` on blocked
            and border cells.
        net: the open net, or None.

    The lists are mutated in place and never replaced, so a
    :class:`CostField` holds them by reference.  The state mirrors the
    grid only as far as its owner reports changes: every change to
    ``grid.occupancy`` or ``grid.history`` must be followed by
    :meth:`refresh_cells` on the changed cells.  Integer twins of the
    entry lists (:meth:`quantized_entry`) and every cached
    :class:`CostField` live and die with the instance.

    Args:
        grid: the grid whose costs the lists hold.
        params: cost knobs (:class:`~repro.router.astar.CostParams`).
    """

    def __init__(self, grid: RoutingGrid, params) -> None:
        self.grid = grid
        self.params = params
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        self.nyp, self.nlp = ny + 2, nl + 2
        self.dix = self.nyp * self.nlp  # +x neighbor stride (padded)
        self.net: "str | None" = None
        self._net_idx = _NO_NET
        self._own: set[GridNode] = set()  # the open net's cells
        # Per-layer (x, y) planar base cost: wire cost, times the
        # wrong-way penalty off the preferred axis.
        wire = params.wire_cost
        self.layer_base = []
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            self.layer_base.append(tuple(
                wire if axis == pref_axis else wire * params.wrong_way_penalty
                for axis in range(2)))

        occ = grid.occupancy
        hist = grid.history * params.history_weight
        free = occ == FREE
        self.hist = _pad(hist, 0.0).tolist()
        self.hard = _pad(np.where(free, hist, INF), INF).tolist()
        self.extra = _pad(np.where(
            occ == BLOCKED, INF,
            np.where(free, 0.0, params.present_penalty)), INF).tolist()

        # Bumped whenever a history value changes (entry_terms' cache).
        self._hist_version = 0
        self._hist_terms: "tuple | None" = None
        # (soft, scale) -> (impassable, integer entry list), kept live.
        self._quantized: dict[tuple[bool, int], tuple[int, list]] = {}
        # (guidance, soft) -> CostField.
        self._fields: dict[tuple, "CostField"] = {}

    # -- coordinates ---------------------------------------------------------

    def encode(self, cell: GridNode) -> int:
        """Padded flat index of a grid cell."""
        return (((cell[0] + 1) * self.nyp + cell[1] + 1) * self.nlp
                + cell[2] + 1)

    def decode(self, node: int) -> GridNode:
        """Grid cell of a padded flat index."""
        layer = node % self.nlp
        rem = node // self.nlp
        return (rem // self.nyp - 1, rem % self.nyp - 1, layer - 1)

    # -- live updates --------------------------------------------------------

    def open_net(self, net: str) -> None:
        """Make ``net``'s own cells passable until :meth:`close_net`."""
        if self.net is not None:
            raise ValueError(f"net {self.net!r} is still open")
        idx = self.grid.net_index[net]
        self.net, self._net_idx = net, idx
        self.refresh_cells(
            map(tuple, np.argwhere(self.grid.occupancy == idx).tolist()))

    def close_net(self) -> None:
        """Give the open net's cells other nets' costs again."""
        own = self._own
        self.net, self._net_idx, self._own = None, _NO_NET, set()
        self.refresh_cells(own)

    def refresh_cells(self, cells) -> None:
        """Re-read the given cells' occupancy and history from the grid."""
        occ = self.grid.occupancy
        history = self.grid.history
        weight = self.params.history_weight
        present = self.params.present_penalty
        own_idx, own = self._net_idx, self._own
        hist, hard, extra = self.hist, self.hard, self.extra
        nyp, nlp = self.nyp, self.nlp
        changed = []
        for cell in cells:
            i = ((cell[0] + 1) * nyp + cell[1] + 1) * nlp + cell[2] + 1
            changed.append(i)
            h = history.item(cell) * weight
            if h != hist[i]:
                hist[i] = h
                self._hist_version += 1
            owner = occ.item(cell)
            if owner == FREE:
                hard[i] = h
                extra[i] = 0.0
            elif owner == own_idx:
                hard[i] = h
                extra[i] = 0.0
                own.add(cell)
            elif owner == BLOCKED:
                hard[i] = INF
                extra[i] = INF
            else:
                hard[i] = INF
                extra[i] = present
        self._sync_quantized(changed)

    # -- derived lists -------------------------------------------------------

    def cost_field(self, guid: tuple[float, float, float],
                   soft: bool) -> "CostField":
        """The :class:`CostField` of one guidance and mode, cached."""
        key = (guid, soft)
        field = self._fields.get(key)
        if field is None:
            field = self._fields[key] = CostField(self, guid, soft)
        return field

    def entry_terms(self, soft: bool) -> "tuple[int, float] | None":
        """(Dyadic scale, largest value) of the finite entry costs.

        The values are every cell's weighted history, 0 (the entry term of
        free and own cells) and, in soft mode while another net holds a
        cell, the present penalty.  None when one of them is not dyadic.
        The history part is cached until a history value changes.
        """
        if self._hist_terms is None or self._hist_terms[0] != (
                self._hist_version):
            values = np.unique(
                self.grid.history * self.params.history_weight).tolist()
            scale = _dyadic_scale(values)
            terms = None if scale is None else (scale, max(max(values), 0.0))
            self._hist_terms = (self._hist_version, terms)
        terms = self._hist_terms[1]
        if terms is None or not soft:
            return terms
        occ = self.grid.occupancy
        if not np.any((occ >= 0) & (occ != self._net_idx)):
            return terms  # no other net holds a cell
        present = self.params.present_penalty
        scale = _dyadic_scale((present,))
        if scale is None:
            return None
        return max(terms[0], scale), max(terms[1], present)

    def quantized_entry(self, soft: bool, scale: int,
                        impassable: int) -> list:
        """Integer entry costs at ``scale`` for one mode, kept live.

        Soft mode folds ``hist + extra`` into one integer: integer sums are
        association-free.  The list is built once per (mode, scale,
        impassable) and then updated with every cell the state rewrites.
        """
        cached = self._quantized.get((soft, scale))
        if cached is not None and cached[0] == impassable:
            return cached[1]
        if soft:
            gate = np.array(self.extra)
            values = np.array(self.hist) + gate
        else:
            gate = values = np.array(self.hard)
        entry = np.where(np.isfinite(gate), values * scale,
                         float(impassable)).astype(np.int64).tolist()
        self._quantized[(soft, scale)] = (impassable, entry)
        return entry

    def _sync_quantized(self, indices: list) -> None:
        """Carry rewritten cells into every live integer entry list."""
        for (soft, scale), (imp, entry) in self._quantized.items():
            if soft:
                hist, extra = self.hist, self.extra
                for i in indices:
                    e = extra[i]
                    entry[i] = imp if e == INF else int((hist[i] + e) * scale)
            else:
                hard = self.hard
                for i in indices:
                    a = hard[i]
                    entry[i] = imp if a == INF else int(a * scale)


class CostField:
    """One guidance vector and mode over a :class:`CostState`.

    Both engines (scalar, bucketed) read their costs from here so their
    arithmetic — and therefore their tie-breaking — cannot diverge.  The
    entry-cost lists are the state's own, so a field stays valid while the
    state changes; only :meth:`retarget` and :meth:`quantize` are
    per-connection.
    """

    def __init__(self, costs: CostState,
                 guid: tuple[float, float, float], soft: bool) -> None:
        self.costs = costs
        self.soft = soft
        self.nyp = costs.nyp
        self.nlp = costs.nlp
        self.dix = costs.dix
        # Per-(layer, axis) planar step cost, matching the seed router's
        # arithmetic term for term (identical float rounding).
        planar = [(bx * guid[0], by * guid[1]) for bx, by in costs.layer_base]
        self.via = costs.params.via_cost * guid[2]
        self.h_scale = min(min(pair) for pair in planar)
        # Padded per-layer planar step costs, indexed by ``node % nlp``.
        self.step_x = [0.0] + [pair[0] for pair in planar] + [0.0]
        self.step_y = [0.0] + [pair[1] for pair in planar] + [0.0]
        # Target-independent quantization: the step scale, probed once,
        # and the last (entry terms, core) pair built on it.
        self._step_scale: "int | None | tuple" = None
        self._quant: "tuple | None" = None

    def retarget(self, target: GridNode) -> None:
        """Point the heuristic at a new target cell.

        The heuristic ``man * h_scale + |l - l_t| * via`` is the seed
        router's exact float expression: the Manhattan term ``man`` is
        ``h_x[px] + h_y[py]`` for a node's padded x and y, which the
        engines add up per expansion and multiply by ``h_scale`` per
        push, plus the layer term from ``h_layer`` (indexed by padded
        layer).
        """
        self.target_node = self.costs.encode(target)
        tx, ty = target[0] + 1, target[1] + 1
        self.h_x = [abs(px - tx) for px in range(self.costs.grid.nx + 2)]
        self.h_y = [abs(py - ty) for py in range(self.nyp)]
        self.h_layer = [abs(lp - 1 - target[2]) * self.via
                        for lp in range(self.nlp)]

    def encode(self, cell: GridNode) -> int:
        """Padded flat index of a grid cell."""
        return self.costs.encode(cell)

    def decode(self, node: int) -> GridNode:
        """Grid cell of a padded flat index."""
        return self.costs.decode(node)

    # -- quantization --------------------------------------------------------

    def quantize(self) -> QuantizedField | None:
        """Integer twin of this field, or None when costs don't quantize.

        Succeeds when every member of the step-cost alphabet (planar costs,
        via cost, entry costs, heuristic scale) is an exact dyadic
        multiple of ``2**-k`` for some ``k <= 20`` *and* the worst-case
        accumulated path cost stays below ``2**52`` in integer units — the
        regime where float and integer cost arithmetic agree bit for bit.

        The step costs are probed once per field; continuous guidance
        fails there, before any grid-wide work.  The entry-cost part is
        the state's (:meth:`CostState.entry_terms`), and the integer core
        built on it is reused until those terms change.  The per-axis
        distance lists are already integer and unscaled, and the integer
        ``h_factor`` folds ``h_scale * scale`` (exact dyadic).
        """
        if self._step_scale is None:
            self._step_scale = self._probe_steps()
        if self._step_scale is _NO_QUANT:
            return None
        terms = self.costs.entry_terms(self.soft)
        if terms is None:
            return None
        if self._quant is None or self._quant[0] != terms:
            self._quant = (terms, self._build_quant_core(terms))
        core = self._quant[1]
        if core is _NO_QUANT:
            return None
        scale, via_i, impassable, f_bound, sx_i, sy_i, h_factor = core
        return QuantizedField(
            scale=scale,
            entry=self.costs.quantized_entry(self.soft, scale, impassable),
            h_x=self.h_x,
            h_y=self.h_y,
            h_layer=[int(t * scale) for t in self.h_layer],
            h_factor=h_factor,
            step_x=sx_i,
            step_y=sy_i,
            via=via_i,
            impassable=impassable,
            f_bound=f_bound,
        )

    def _probe_steps(self):
        """Dyadic scale of the step costs, or the no-quant marker."""
        planar = self.step_x[1:-1] + self.step_y[1:-1]
        if min(min(planar), self.via) <= 0.0:
            # A zero step cost would let a relaxation re-enter the (f, g)
            # bucket currently being expanded, breaking the monotone-queue
            # invariant; the heap engine handles that regime instead.
            return _NO_QUANT
        scale = _dyadic_scale(planar + [self.via, self.h_scale])
        return _NO_QUANT if scale is None else scale

    def _build_quant_core(self, terms: tuple[int, float]):
        """Integer step costs and bounds on the entry terms' lattice."""
        add_scale, add_max = terms
        scale = max(self._step_scale, add_scale)
        planar = self.step_x[1:-1] + self.step_y[1:-1]
        max_step = max(max(planar), self.via)
        # Upper bound on any finite entry cost (history + extra).
        max_add = 2.0 * add_max
        costs = self.costs
        grid = costs.grid
        cells = grid.nx * grid.ny * grid.num_layers
        g_bound = int((cells + 1) * (max_step + max_add + 1.0) * scale) + 1
        h_bound = int((grid.nx + grid.ny) * self.h_scale * scale
                      + grid.num_layers * self.via * scale) + 1
        f_bound = g_bound + h_bound
        if f_bound >= _EXACT_SUM_BOUND:
            return _NO_QUANT
        return (scale, int(self.via * scale), f_bound + 1, f_bound,
                [int(c * scale) for c in self.step_x],
                [int(c * scale) for c in self.step_y],
                int(self.h_scale * scale))
