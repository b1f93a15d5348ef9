"""ASCII rendering of layouts and guidance (Figures 1 and 6)."""

from __future__ import annotations

import numpy as np

from repro.router.grid import BLOCKED, RoutingGrid
from repro.router.guidance import RoutingGuidance
from repro.router.result import RoutingResult

#: Characters assigned to nets, cycling when there are many.
_NET_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_layout(
    result: RoutingResult, grid: RoutingGrid, layer: int = 0
) -> str:
    """Render one routing layer as ASCII art (Figure 6 style).

    ``#`` marks blocked device bodies, ``.`` free cells, letters routed
    nets, ``*`` access points.
    """
    if not 0 <= layer < grid.num_layers:
        raise ValueError(f"layer {layer} out of range [0, {grid.num_layers})")
    net_char = {
        name: _NET_CHARS[i % len(_NET_CHARS)]
        for i, name in enumerate(sorted(result.routes))
    }
    canvas = np.full((grid.nx, grid.ny), ".", dtype="<U1")
    canvas[grid.occupancy[:, :, layer] == BLOCKED] = "#"
    for name, route in result.routes.items():
        for ix, iy, l in route.cells():
            if l == layer:
                canvas[ix, iy] = net_char[name]
        for ap in route.access_points:
            if ap.cell[2] == layer:
                canvas[ap.cell[0], ap.cell[1]] = "*"
    rows = []
    for iy in range(grid.ny - 1, -1, -1):
        rows.append("".join(canvas[ix, iy] for ix in range(grid.nx)))
    legend = "  ".join(f"{c}={n}" for n, c in sorted(net_char.items(), key=lambda kv: kv[1]))
    return "\n".join([f"layer M{layer + 1}"] + rows + [f"legend: {legend}"])


def render_guidance(guidance: RoutingGuidance, grid: RoutingGrid) -> str:
    """List per-AP guidance vectors with the preferred direction marked
    (Figure 1(a)/(b) as text: each access point and its 1x3 cost vector)."""
    dir_names = ("x", "y", "z")
    lines = ["Non-uniform routing guidance (per pin access point):",
             f"{'net':<10} {'pin':<16} {'cell':<14} {'C[x]':>6} {'C[y]':>6} "
             f"{'C[z]':>6}  prefers"]
    for net_name in sorted(grid.access_points):
        for ap in grid.access_points[net_name]:
            vec = guidance.get(ap.key)
            pref = dir_names[int(np.argmin(vec))]
            cell = f"({ap.cell[0]},{ap.cell[1]},{ap.cell[2]})"
            lines.append(
                f"{net_name:<10} {ap.device + '.' + ap.pin:<16} {cell:<14} "
                f"{vec[0]:>6.2f} {vec[1]:>6.2f} {vec[2]:>6.2f}  {pref}"
            )
    return "\n".join(lines)


def guidance_histogram(guidance: RoutingGuidance, bins: int = 8) -> str:
    """Distribution of guidance components per direction (Figure 2(b) aid)."""
    if not guidance.vectors:
        return "empty guidance"
    stacked = np.stack(list(guidance.vectors.values()))
    lines = ["Guidance component distribution:"]
    for d, name in enumerate(("x", "y", "z")):
        hist, edges = np.histogram(stacked[:, d], bins=bins,
                                   range=(0.0, guidance.c_max))
        bar = " ".join(f"{int(c):3d}" for c in hist)
        lines.append(f"  {name}: [{edges[0]:.1f}..{edges[-1]:.1f}]  {bar}")
    return "\n".join(lines)
