"""Figure 5: runtime breakdown of the AnalogFold flow on OTA1.

Regenerates the paper's pie chart as a text table.  Expected shape: model
training dominates total runtime (paper: 80.22%), database construction
plus inference stages are minor, guided detailed routing is a small
fraction (paper: 2.22%).

Note: at reduced REPRO_SCALE the training share shrinks (fewer epochs);
the assertion only requires training to be the single largest ML stage.
"""

import time

from conftest import write_result

from repro import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    build_benchmark,
    generic_40nm,
    place_benchmark,
)
from repro.core import RelaxationConfig
from repro.eval.runtime import runtime_breakdown, runtime_breakdown_table
from repro.model import Gnn3dConfig, TrainConfig
from repro.obs import RunContext
from repro.perf import bench_payload


def test_fig5_runtime_breakdown(benchmark, scale):
    circuit = build_benchmark("OTA1")
    tech = generic_40nm()

    place_start = time.perf_counter()
    placement = place_benchmark(circuit, variant="A", seed=0,
                                iterations=scale.placement_iterations)
    placement_seconds = time.perf_counter() - place_start

    obs = RunContext.recording()
    fold = AnalogFold(
        circuit, placement, tech,
        config=AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=scale.dataset_samples, seed=0),
            gnn=Gnn3dConfig(seed=0),
            training=TrainConfig(epochs=max(scale.train_epochs, 10), seed=0),
            relaxation=RelaxationConfig(
                n_restarts=scale.relax_restarts, pool_size=scale.relax_pool,
                n_derive=min(3, scale.relax_pool), seed=0),
        ),
        obs=obs,
    )

    result = benchmark.pedantic(fold.run, rounds=1, iterations=1)

    table = runtime_breakdown_table(result, placement_seconds)
    write_result("fig5_runtime.txt", table + "\n")
    fractions = runtime_breakdown(result, placement_seconds)
    for stage, frac in fractions.items():
        benchmark.extra_info[stage] = round(frac, 4)
    # Hot-path seconds from the run's span aggregates, projected as
    # bench_perf.py projects them into BENCH_perf.json.
    stages = bench_payload(obs.manifest()["spans"])["stages"]
    for stage, stats in stages.items():
        benchmark.extra_info[f"span_{stage}_s"] = round(stats["seconds"], 4)

    # Shape: guided routing is a small slice; at representative scales
    # (fast and above) training is the largest ML stage, as in the paper.
    assert fractions["guided_routing"] < 0.5
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    if scale.train_epochs >= 20:
        assert fractions["model_training"] >= fractions["guide_generation"]
