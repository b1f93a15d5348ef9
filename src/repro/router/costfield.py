"""Precomputed cost fields for the A* inner loop.

The router's per-node arithmetic — occupancy/blockage tests, history and
present-penalty lookups, per-direction guidance-scaled step costs, and the
multi-target heuristic — is folded into flat arrays once per
``route_connection`` so the expansion loop is pure lookups:

* ``add``: additive cost of *entering* a cell (``history_weight * history``
  plus the soft-mode present penalty), with ``inf`` marking impassable
  cells.  One comparison against ``inf`` replaces the bounds / blocked /
  ownership branch cascade.
* ``h`` / ``h_layer``: the admissible heuristic
  ``man * h_scale + |l - l_t| * via``.  A single-target search reads an
  unscaled Manhattan field shared across connections plus a per-layer
  list of layer terms, so each push costs two lookups; a multi-target
  search reads a full precomputed field (a vectorized ``min`` over the
  target coordinate arrays) and a zero layer list.
* ``step_x`` / ``step_y``: per-layer planar step costs (wire cost, wrong-way
  penalty and guidance ``C[d]`` premultiplied).

All fields use a **padded** layout: the grid is embedded in an
``(nx + 2, ny + 2, nl + 2)`` box whose border cells carry ``add = inf``.
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
    if not np.all(np.isfinite(arr)):
        raise RoutingError(
            f"non-finite guidance_vec entry: {arr.tolist()}",
            stage="routing", details={"guidance_vec": arr.tolist()})
    if np.any(arr < 0.0):
        raise RoutingError(
            f"negative guidance_vec entry: {arr.tolist()}",
            stage="routing", details={"guidance_vec": arr.tolist()})
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass
class QuantizedField:
    """Integer twin of a :class:`CostField` on a dyadic cost lattice.

    Every per-cell and per-layer field is a plain list: the bucketed
    engine indexes them one element at a time, where Python list
    indexing beats numpy scalar indexing by ~10x.

    Attributes:
        scale: ``int_cost = float_cost * scale`` for every alphabet member.
        add: additive-entry costs (padded flat); ``impassable`` marks
            blocked cells (any value >= it is unreachable).
        h: heuristic (padded flat), multiplied by ``h_factor`` per push.
        h_layer: layer term per *padded* layer index (zero for a
            multi-target field, whose ``h`` already holds it).
        h_factor: folds ``h_scale * scale`` when ``h`` is the shared
            unscaled Manhattan field; 1 when ``h`` is a full field.
        step_x / step_y: planar step cost per *padded* layer index.
        via: via step cost.
        impassable: sentinel additive cost for blocked cells.
        f_bound: exclusive upper bound on any reachable f value; the bucket
            queue packs ``(f, g)`` keys with this modulus.
    """

    scale: int
    add: list
    h: list
    h_layer: list
    h_factor: int
    step_x: list
    step_y: list
    via: int
    impassable: int
    f_bound: int


class CostField:
    """Flat per-connection cost arrays over the padded grid.

    Built once per :meth:`AStarRouter.route_connection
    <repro.router.astar.AStarRouter.route_connection>`; both engines
    (scalar, bucketed) read their costs from here so their arithmetic —
    and therefore their tie-breaking — cannot diverge.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        *,
        net: str,
        guid: tuple[float, float, float],
        soft: bool,
        targets: "set[GridNode] | frozenset[GridNode]",
        wire_cost: float,
        wrong_way_penalty: float,
        via_cost: float,
        present_penalty: float,
        history_weight: float,
        add_core: "AddField | None" = None,
        man_cache: "dict | None" = None,
    ) -> None:
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        self.nx, self.ny, self.nl = nx, ny, nl
        self.nyp, self.nlp = ny + 2, nl + 2
        self.dix = self.nyp * self.nlp  # +x neighbor stride (padded)
        self.soft = soft

        # Per-(layer, axis) planar step cost, matching the seed router's
        # arithmetic term for term (identical float rounding).
        planar = np.empty((nl, 2), dtype=np.float64)
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            for axis in range(2):
                base = wire_cost if axis == pref_axis else (
                    wire_cost * wrong_way_penalty)
                planar[layer, axis] = base * guid[axis]
        self.planar = planar
        self.via = via_cost * guid[2]
        self.h_scale = float(planar.min())

        # Padded per-layer planar step costs, indexed by ``node % nlp``.
        pad_x = np.zeros(self.nlp, dtype=np.float64)
        pad_y = np.zeros(self.nlp, dtype=np.float64)
        pad_x[1:-1] = planar[:, 0]
        pad_y[1:-1] = planar[:, 1]
        self.step_x = pad_x.tolist()
        self.step_y = pad_y.tolist()

        # Additive entry costs.  The scalar engine keeps the history and
        # present-penalty terms separate in soft mode so its float sums
        # associate exactly like the seed router's
        # ``((g + step) + extra) + history`` chain; the combined array is
        # what the integer (bucketed) engine and the quantization probe
        # use — integer sums are association-free.  The list mirrors are
        # exposed lazily (see the properties below): a bucketed route
        # never touches the float lists and skips their ``tolist`` cost.
        if add_core is None:
            add_core = build_add_core(
                grid, net=net, soft=soft,
                present_penalty=present_penalty,
                history_weight=history_weight)
        self._add_core = add_core
        self.add = add_core.padded_combined()

        self._man_cache = man_cache
        self._quant_core: "tuple | None" = None
        self.retarget(targets)

    @property
    def add_list(self) -> list:
        """Float combined-cost list (scalar engine only), lazily built."""
        return self._add_core.padded_combined_list()

    @property
    def extra_list(self) -> "list | None":
        """Soft-mode present-penalty list; None in hard mode."""
        return self._add_core.padded_split()[0] if self.soft else None

    @property
    def hist_list(self) -> list:
        """History term list in the seed router's association order."""
        if self.soft:
            return self._add_core.padded_split()[1]
        return self._add_core.padded_combined_list()

    def retarget(self, targets: "set[GridNode] | frozenset[GridNode]"
                 ) -> None:
        """Point the target-dependent fields at a new target set.

        Everything else (step costs, additive costs, quantization core)
        depends only on (grid state, guidance, mode) and is
        reused across the connections of one net attempt — the router
        caches the field per that key and calls this per connection.
        """
        nx, ny, nl = self.nx, self.ny, self.nl
        self.target_nodes = frozenset(self.encode(t) for t in targets)
        self.single_target = (next(iter(self.target_nodes))
                              if len(self.target_nodes) == 1 else None)

        # Heuristic ``man * h_scale + |l - l_t| * via``, the seed router's
        # exact float expression.  Single-target searches (the iterative
        # router's only shape) read an *unscaled* integer Manhattan field,
        # cacheable across connections/guidance in ``man_cache``, which
        # the engines multiply by ``h_factor`` per push, and add the
        # layer term from ``h_layer`` (indexed by padded layer).
        # Multi-target searches precompute the full field as a vectorized
        # min over the target coordinate arrays, with a zero layer list.
        if self.single_target is not None:
            target = next(iter(targets))
            key = (target[0], target[1])
            man_cache = self._man_cache
            cached = None if man_cache is None else man_cache.get(key)
            if cached is None:
                mx = np.abs(np.arange(-1, nx + 1, dtype=np.int64)
                            - target[0])
                my = np.abs(np.arange(-1, ny + 1, dtype=np.int64)
                            - target[1])
                cached = np.broadcast_to(
                    (mx[:, None] + my[None, :])[:, :, None],
                    (nx + 2, self.nyp, self.nlp)).reshape(-1).tolist()
                if man_cache is not None:
                    man_cache[key] = cached
            self.h_list = cached
            self.h_factor = self.h_scale
            self.h_layer = [abs(lp - 1 - target[2]) * self.via
                            for lp in range(self.nlp)]
            self._h_is_man = True
            return

        txs = np.fromiter((t[0] for t in targets), dtype=np.int64,
                          count=len(targets))
        tys = np.fromiter((t[1] for t in targets), dtype=np.int64,
                          count=len(targets))
        tls = np.fromiter((t[2] for t in targets), dtype=np.int64,
                          count=len(targets))
        man = (np.abs(np.arange(nx)[:, None] - txs[None, :])[:, None, :]
               + np.abs(np.arange(ny)[:, None] - tys[None, :])[None, :, :])
        h_t = man * self.h_scale  # (nx, ny, T)
        ldist = np.abs(np.arange(nl)[:, None] - tls[None, :])  # (nl, T)
        h = np.zeros((nx + 2, self.nyp, self.nlp), dtype=np.float64)
        h[1:-1, 1:-1, 1:-1] = (
            h_t[:, :, None, :] + ldist[None, None, :, :] * self.via
        ).min(axis=3)
        self.h_list = h.reshape(-1).tolist()
        self.h_factor = 1.0
        self.h_layer = [0.0] * self.nlp
        self._h_is_man = False

    # -- coordinates ---------------------------------------------------------

    def encode(self, cell: GridNode) -> int:
        """Padded flat index of a grid cell."""
        return ((cell[0] + 1) * self.nyp + cell[1] + 1) * self.nlp + cell[2] + 1

    def decode(self, node: int) -> GridNode:
        """Grid cell of a padded flat index."""
        layer = node % self.nlp
        rem = node // self.nlp
        return (rem // self.nyp - 1, rem % self.nyp - 1, layer - 1)

    # -- quantization --------------------------------------------------------

    def quantize(self) -> QuantizedField | None:
        """Integer twin of this field, or None when costs don't quantize.

        Succeeds when every member of the step-cost alphabet (planar costs,
        via cost, additive entry costs, heuristic scale) is an exact dyadic
        multiple of ``2**-k`` for some ``k <= 20`` *and* the worst-case
        accumulated path cost stays below ``2**52`` in integer units — the
        regime where float and integer cost arithmetic agree bit for bit.

        The target-independent part (scale probe, bounds, integer cost
        arrays) is computed once per field and survives :meth:`retarget`;
        only the heuristic packaging is per-target.
        """
        core = self._quant_core
        if core is None:
            core = self._quant_core = self._build_quant_core()
        if core is _NO_QUANT:
            return None
        scale, via_i, impassable, f_bound, add_i, sx_i, sy_i, h_factor_man = (
            core)
        if self._h_is_man:
            # The cached Manhattan field is already integer and unscaled;
            # the integer factor folds ``h_scale * scale`` (exact dyadic).
            h_i = self.h_list
            h_factor = h_factor_man
        else:
            h_i = (np.array(self.h_list) * scale).astype(np.int64).tolist()
            h_factor = 1
        return QuantizedField(
            scale=scale,
            add=add_i,
            h=h_i,
            h_layer=[int(t * scale) for t in self.h_layer],
            h_factor=h_factor,
            step_x=sx_i,
            step_y=sy_i,
            via=via_i,
            impassable=impassable,
            f_bound=f_bound,
        )

    def _build_quant_core(self):
        """Target-independent quantization pieces, or the no-quant marker."""
        # Probe the *separate* terms of the seed engine's float chain
        # ``((g + step) + extra) + history`` — each must be dyadic for the
        # chain to be rounding-free under any association.
        if float(min(self.planar.min(), self.via)) <= 0.0:
            # A zero step cost would let a relaxation re-enter the (f, g)
            # bucket currently being expanded, breaking the monotone-queue
            # invariant; the heap engine handles that regime instead.
            return _NO_QUANT
        steps = np.concatenate([
            self.planar.reshape(-1),
            np.array([self.via, self.h_scale], dtype=np.float64),
        ])
        # Fast-fail probe: if a value isn't dyadic at the finest scale it
        # isn't dyadic at any coarser one (power-of-two scaling is exact),
        # so continuous-guidance connections pay one check, not 21.  The
        # step costs go first: continuous guidance fails there, before
        # the grid-wide scan of the additive-cost alphabet.
        finest = steps * _QUANT_SCALES[-1]
        if not np.all(finest == np.floor(finest)):
            return _NO_QUANT
        add_alphabet = self._add_core.alphabet()
        alphabet = np.concatenate([steps, add_alphabet])
        finest = alphabet * _QUANT_SCALES[-1]
        if not np.all(finest == np.floor(finest)):
            return _NO_QUANT
        scale = None
        for cand in _QUANT_SCALES:
            scaled = alphabet * cand  # exact: power-of-two scaling
            if np.all(scaled == np.floor(scaled)):
                scale = cand
                break
        if scale is None:
            return _NO_QUANT
        max_step = float(max(self.planar.max(), self.via))
        # Upper bound on any finite additive entry cost (history + extra).
        max_add = 2.0 * float(add_alphabet.max()) if add_alphabet.size else 0.0
        cells = self.nx * self.ny * self.nl
        g_bound = int((cells + 1) * (max_step + max_add + 1.0) * scale) + 1
        h_bound = int((self.nx + self.ny) * self.h_scale * scale
                      + self.nl * self.via * scale) + 1
        f_bound = g_bound + h_bound
        if f_bound >= _EXACT_SUM_BOUND:
            return _NO_QUANT
        impassable = f_bound + 1
        return (scale, int(self.via * scale), impassable, f_bound,
                self._add_core.quantized_add(scale, impassable),
                [int(c * scale) for c in self.step_x],
                [int(c * scale) for c in self.step_y],
                int(self.h_scale * scale))


class AddField:
    """Additive-entry cost volumes for one (net, mode) grid state.

    Holds the occupancy/ownership-derived parts of the cost field — the
    only parts that rescan the grid — and caches their padded / quantized
    forms so :class:`~repro.router.iterative.IterativeRouter` can reuse
    one instance across every connection of a net attempt (the grid is
    static within one attempt).  Instances must be discarded whenever
    occupancy or history change.

    Attributes:
        combined: ``history + extra`` with ``inf`` on impassable cells
            (bucketed engine / quantization probe).
        history: the weighted history term alone (finite everywhere).
        extra: present penalty on foreign cells (soft mode), ``inf`` on
            impassable cells.
    """

    def __init__(self, combined: np.ndarray, history: np.ndarray,
                 extra: np.ndarray) -> None:
        self.combined = combined
        self.history = history
        self.extra = extra
        #: (guidance, mode) -> reusable :class:`CostField`
        #: (see ``AStarRouter.route_connection``); dies with the instance,
        #: so it can never outlive the grid state it was built from.
        self.field_cache: dict = {}
        self._padded: "np.ndarray | None" = None
        self._padded_list: "list | None" = None
        self._split: "tuple[list, list] | None" = None
        self._alphabet: "np.ndarray | None" = None
        self._quant: dict[tuple[int, int], list] = {}

    def _pad(self, volume: np.ndarray, fill: float) -> np.ndarray:
        nx, ny, nl = self.combined.shape
        padded = np.full((nx + 2, ny + 2, nl + 2), fill, dtype=np.float64)
        padded[1:-1, 1:-1, 1:-1] = volume
        return padded.reshape(-1)

    def padded_combined(self) -> np.ndarray:
        """Padded flat combined costs (array), cached."""
        if self._padded is None:
            self._padded = self._pad(self.combined, INF)
        return self._padded

    def padded_combined_list(self) -> list:
        """Plain-list mirror of :meth:`padded_combined`, cached."""
        if self._padded_list is None:
            self._padded_list = self.padded_combined().tolist()
        return self._padded_list

    def padded_split(self) -> "tuple[list, list]":
        """Padded flat (extra, history) lists for soft mode, cached."""
        if self._split is None:
            self._split = (self._pad(self.extra, INF).tolist(),
                           self._pad(self.history, 0.0).tolist())
        return self._split

    def alphabet(self) -> np.ndarray:
        """Distinct finite history and extra values, cached."""
        if self._alphabet is None:
            self._alphabet = np.concatenate([
                np.unique(self.history),
                np.unique(self.extra[np.isfinite(self.extra)]),
            ])
        return self._alphabet

    def quantized_add(self, scale: int, impassable: int) -> list:
        """Integer padded combined costs at ``scale`` (a list), cached."""
        key = (scale, impassable)
        cached = self._quant.get(key)
        if cached is None:
            flat = self.padded_combined()
            cached = np.where(np.isfinite(flat), flat * scale,
                              float(impassable)).astype(np.int64).tolist()
            self._quant[key] = cached
        return cached


def build_add_core(
    grid: RoutingGrid,
    *,
    net: str,
    soft: bool,
    present_penalty: float,
    history_weight: float,
) -> AddField:
    """The unpadded additive-entry cost volumes for one (net, mode).

    Split out of :class:`CostField` so
    :class:`~repro.router.iterative.IterativeRouter` can reuse it across
    the guidance-dependent connections of one net attempt (occupancy and
    history only change between net attempts, never inside one).
    """
    occ = grid.occupancy
    hist = grid.history * history_weight
    net_idx = grid.net_index[net]
    foreign = (occ != FREE) & (occ != BLOCKED) & (occ != net_idx)
    if soft:
        extra = np.where(occ == BLOCKED, INF,
                         foreign * present_penalty)
        combined = np.where(occ == BLOCKED, INF,
                            hist + foreign * present_penalty)
    else:
        impassable = (occ == BLOCKED) | foreign
        extra = np.where(impassable, INF, 0.0)
        combined = np.where(impassable, INF, hist)
    return AddField(combined=combined, history=hist, extra=extra)
