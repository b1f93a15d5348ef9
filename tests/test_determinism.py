"""Cross-process determinism: results must not depend on PYTHONHASHSEED
or on the BLAS thread count.

Set iteration order varies with string-hash randomization; the router
sorts wherever that order could leak into results.  One test pins the
guarantee by hashing a routed solution under two different hash seeds in
separate interpreters.  Another simulates routed layouts in interpreters
running one and two OpenBLAS threads and compares the metrics' bits:
database targets and fold results must not depend on the host.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

_SNIPPET = """
import hashlib
from repro.netlist import build_benchmark
from repro.placement import place_benchmark
from repro.tech import generic_40nm
from repro.router import RoutingGrid, IterativeRouter

c = build_benchmark("OTA1")
p = place_benchmark(c, variant="A", iterations=100)
g = RoutingGrid(p, generic_40nm())
r = IterativeRouter(g).route_all()
cells = sorted((n, tuple(sorted(rt.cells()))) for n, rt in r.routes.items())
print(hashlib.md5(repr(cells).encode()).hexdigest())
"""


def _routing_hash(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _SNIPPET], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return out.stdout.strip()


@pytest.mark.slow
def test_routing_identical_across_hash_seeds():
    assert _routing_hash("1") == _routing_hash("424242")


_SIMULATE_SNIPPET = """
from repro import build_benchmark, generic_40nm, place_benchmark
from repro import simulate_performance
from repro.extraction import extract
from repro.router import IterativeRouter, RoutingGrid

for name in ("OTA1", "OTA3"):
    circuit = build_benchmark(name)
    placement = place_benchmark(circuit, variant="A", seed=0, iterations=60)
    tech = generic_40nm()
    grid = RoutingGrid(placement, tech)
    routing = IterativeRouter(grid).route_all()
    m = simulate_performance(circuit, extract(routing, grid, tech))
    print(name, [float(v).hex() for v in (m.offset_uv, m.cmrr_db,
                                          m.bandwidth_mhz, m.gain_db,
                                          m.noise_uvrms)])
"""


def _simulated_metric_bits(threads: int) -> str:
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _SIMULATE_SNIPPET], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return out.stdout


@pytest.mark.slow
def test_simulated_metrics_identical_across_blas_threads():
    """The AC solves once rounded differently at one and two threads
    (OTA1's and OTA3's CMRR moved in the last bits)."""
    one = _simulated_metric_bits(1)
    assert one.count("\n") == 2
    assert one == _simulated_metric_bits(2)


def test_placement_hash_stable_in_process(ota1):
    """Same-seed placements hash identically within a process."""
    from repro.placement import place_benchmark

    def digest():
        p = place_benchmark(ota1, variant="A", seed=11, iterations=50)
        payload = sorted(
            (n, round(d.x, 9), round(d.y, 9)) for n, d in p.positions.items())
        return hashlib.md5(repr(payload).encode()).hexdigest()

    assert digest() == digest()
