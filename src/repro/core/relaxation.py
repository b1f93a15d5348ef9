"""Pool-assisted potential relaxation (Section 4.3, Figure 2(b)).

L-BFGS minimizes ``V(C)`` from many initializations while a pool keeps
the ``pool_size`` lowest-potential solutions.  The restarts run in two
*waves*, each one joint L-BFGS-B over the concatenated restart variables:

1. the pool-building wave starts from the caller's seed points, then
   from uniform draws, until the pool can fill;
2. the pool-seeded wave re-initializes a fraction ``p_relax`` of the
   remaining restarts from a pool member with Gaussian noise added (the
   paper's noisy-restart escape from local optima), and the rest from
   uniform draws.

A wave minimizes the *sum* of its restarts' potentials.  The gradient
blocks are independent, so the joint L-BFGS walks every restart downhill
while each function evaluation costs one batched GNN forward-backward
over the whole wave (see ``docs/PERFORMANCE.md``).  The paper reseeds
restart by restart; here the second wave reseeds from the pool as it
stood after the first (a deviation recorded in ``DESIGN.md``).  The top
``n_derive`` solutions are returned.

Failures degrade instead of aborting the run, and are recorded in the
trace.  A restart whose final potential or guidance is non-finite is
dropped on its own.  A :class:`~repro.reliability.errors.RelaxationError`
raised by the potential evaluation stops the joint optimization, so it
drops every restart of that wave.  Only when *no* restart survives does
:meth:`PotentialRelaxer.run` raise, with the trace attached for diagnosis.
"""

from __future__ import annotations

import time

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from repro.core.potential import PotentialFunction
from repro.obs import NULL_CONTEXT, RunContext
from repro.reliability.errors import RelaxationError
from repro.reliability.faults import poison


@dataclass(frozen=True)
class RelaxationConfig:
    """Relaxation knobs.

    Attributes:
        n_restarts: total L-BFGS runs.
        pool_size: ``N_pool``, retained lowest-potential solutions.
        p_relax: fraction of restarts seeded from the pool once full.
        n_derive: ``N_derive``, solutions returned.
        noise_sigma: std of the noise added to pool-seeded restarts.
        maxiter: L-BFGS iteration cap per restart.
        init_low: lower bound of the uniform initial distribution.
        init_high: upper bound of the uniform initial distribution.
        seed_points: how many restarts are initialized from caller-provided
            guidance points (Figure 2(b): restarts sample from the routing
            guidance distributions of the database, not only from a uniform
            prior).
        seed: RNG seed.
    """

    n_restarts: int = 12
    pool_size: int = 6
    p_relax: float = 0.5
    n_derive: int = 3
    noise_sigma: float = 0.3
    maxiter: int = 40
    init_low: float = 0.5
    init_high: float = 2.0
    seed_points: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_derive > self.pool_size:
            raise ValueError(
                f"n_derive {self.n_derive} exceeds pool_size {self.pool_size}"
            )
        if not 0.0 <= self.p_relax <= 1.0:
            raise ValueError(f"p_relax must be in [0, 1], got {self.p_relax}")
        if self.noise_sigma < 0:
            raise ValueError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.maxiter <= 0:
            raise ValueError(f"maxiter must be positive, got {self.maxiter}")
        if self.seed_points > self.n_restarts:
            raise ValueError(
                f"seed_points {self.seed_points} exceeds n_restarts "
                f"{self.n_restarts}"
            )


@dataclass
class RelaxedGuidance:
    """One relaxation outcome.

    Attributes:
        guidance: (num_aps, 3) optimized guidance array.
        potential: final potential value.
        from_pool: whether the restart was seeded from the pool.
    """

    guidance: np.ndarray
    potential: float
    from_pool: bool = False


@dataclass
class RelaxationTrace:
    """Diagnostics of one relaxation run (reset at each :meth:`run`).

    Attributes:
        restarts: restarts that completed and entered pool selection.
        pool_seeded: restarts initialized from a pool member.
        diverged: restarts dropped for non-finite potential/guidance.
        failures: per-dropped-restart descriptions, e.g.
            ``"restart 3: non-finite potential nan"``.
        best_per_restart: best pool potential after each kept restart —
            non-increasing by construction (the pool only improves).
        restart_seconds: duration per attempted restart, in restart
            order: its wave's time on the monotonic
            ``time.perf_counter`` clock, split evenly over the wave's
            restarts.  Durations are load-sensitive; tests must assert
            monotonicity/shape, never absolute values.
        restart_evals: per attempted restart, the number of joint
            evaluations of its wave (each one touches the restart
            exactly once).
        gnn_forwards: GNN forward-backward passes the whole run executed
            (one per joint evaluation).
    """

    restarts: int = 0
    pool_seeded: int = 0
    diverged: int = 0
    failures: list[str] = field(default_factory=list)
    best_per_restart: list[float] = field(default_factory=list)
    restart_seconds: list[float] = field(default_factory=list)
    restart_evals: list[int] = field(default_factory=list)
    gnn_forwards: int = 0


class PotentialRelaxer:
    """Runs pool-assisted relaxation over a :class:`PotentialFunction`.

    With an enabled ``obs`` context, every attempted restart emits a
    ``relax.restart`` span (outcome ``ok`` / ``diverged``, with its eval
    count and pool-seeding flag), reusing the trace's own perf_counter
    measurements; the run's totals feed the ``gnn_forwards`` and
    ``lbfgs_evals`` counters.
    """

    def __init__(self, config: RelaxationConfig | None = None,
                 obs: RunContext | None = None) -> None:
        self.config = config or RelaxationConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.trace = RelaxationTrace()

    def run(
        self,
        potential: PotentialFunction,
        seed_guidance: list[np.ndarray] | None = None,
    ) -> list[RelaxedGuidance]:
        """Derive the top-``n_derive`` guidance solutions.

        Args:
            potential: the trained potential function.
            seed_guidance: optional (num_aps, 3) arrays to initialize the
                first ``seed_points`` restarts from (the database's
                best-performing guidance points, per Figure 2(b)).

        Raises:
            RelaxationError: every restart diverged; the trace rides in
                ``details["trace"]``.
        """
        cfg = self.config
        # Fresh diagnostics per run; a reused relaxer must not accumulate.
        self.trace = RelaxationTrace()
        rng = np.random.default_rng(cfg.seed)
        seeds = list(seed_guidance or [])[: cfg.seed_points]
        n_vars = potential.num_variables
        start_forwards = potential.stats.forwards
        start_evals = potential.stats.batched_evals

        pool: list[RelaxedGuidance] = []
        # Wave 1 builds the pool: seed points, then uniform draws.
        wave1 = min(cfg.n_restarts, max(cfg.pool_size, len(seeds), 1))
        inits: list[tuple[np.ndarray, bool]] = []
        for restart in range(wave1):
            if restart < len(seeds):
                x0 = self._seed_point(seeds[restart], n_vars)
            else:
                x0 = rng.uniform(cfg.init_low, cfg.init_high, size=n_vars)
            inits.append((x0, False))
        self._wave(potential, pool, inits, restart_offset=0)

        # Wave 2: once the pool is full, each restart re-initializes
        # from a noisy pool member with probability p_relax.
        inits = []
        for _ in range(wave1, cfg.n_restarts):
            from_pool = (len(pool) >= cfg.pool_size
                         and rng.random() < cfg.p_relax)
            if from_pool:
                seed_sol = pool[rng.integers(len(pool))]
                x0 = seed_sol.guidance.reshape(-1) + rng.normal(
                    0.0, cfg.noise_sigma, size=n_vars
                )
                self.trace.pool_seeded += 1
            else:
                x0 = rng.uniform(cfg.init_low, cfg.init_high, size=n_vars)
            inits.append((x0, from_pool))
        if inits:
            self._wave(potential, pool, inits, restart_offset=wave1)

        self.trace.gnn_forwards = potential.stats.forwards - start_forwards
        self.obs.counter("gnn_forwards").inc(self.trace.gnn_forwards)
        self.obs.counter("lbfgs_evals").inc(
            potential.stats.batched_evals - start_evals)

        if not pool:
            raise RelaxationError(
                f"all {cfg.n_restarts} relaxation restarts diverged",
                stage="relaxation",
                details={
                    "trace": {
                        "diverged": self.trace.diverged,
                        "failures": list(self.trace.failures),
                    }
                },
            )
        return pool[: cfg.n_derive]

    @staticmethod
    def _seed_point(seed_guidance: np.ndarray, n_vars: int) -> np.ndarray:
        x0 = np.asarray(seed_guidance, dtype=float).reshape(-1)
        if x0.shape != (n_vars,):
            raise ValueError(
                f"seed guidance has {x0.size} values, expected {n_vars}"
            )
        return x0

    def _keep(self, pool: list[RelaxedGuidance], restart: int,
              x: np.ndarray, raw_value: float, from_pool: bool,
              potential: PotentialFunction) -> bool:
        """Pool-selection bookkeeping for one restart of a wave.

        Returns whether the restart survived (``False`` = diverged).
        """
        cfg = self.config
        value = poison("relaxation", raw_value)
        if not np.isfinite(value):
            self.trace.diverged += 1
            self.trace.failures.append(
                f"restart {restart}: non-finite potential {value}")
            return False
        if not np.isfinite(x).all():
            self.trace.diverged += 1
            self.trace.failures.append(
                f"restart {restart}: non-finite guidance")
            return False
        margin = 1e-3
        solution = RelaxedGuidance(
            guidance=np.clip(x, margin, potential.c_max - margin)
            .reshape(potential.graph.num_aps, 3),
            potential=value,
            from_pool=from_pool,
        )
        pool.append(solution)
        pool.sort(key=lambda s: s.potential)
        del pool[cfg.pool_size:]
        self.trace.restarts += 1
        self.trace.best_per_restart.append(pool[0].potential)
        return True

    def _wave(
        self,
        potential: PotentialFunction,
        pool: list[RelaxedGuidance],
        inits: list[tuple[np.ndarray, bool]],
        restart_offset: int,
    ) -> None:
        """Jointly minimize one wave of restarts and fold them into the pool.

        A :class:`RelaxationError` from the potential ends the joint
        optimization, so every restart of the wave is recorded as
        diverged.
        """
        cfg = self.config
        n_vars = potential.num_variables
        wave = len(inits)
        margin = 1e-3
        bounds = [(margin, potential.c_max - margin)] * (n_vars * wave)
        x0 = np.concatenate([
            np.clip(x, margin * 2, potential.c_max - margin * 2)
            for x, _ in inits
        ])

        # The last evaluation's point and per-restart values.
        last: list[np.ndarray] = []

        def objective(x_joint: np.ndarray) -> tuple[float, np.ndarray]:
            values, grads = potential.value_and_grad_batch(
                x_joint.reshape(wave, n_vars))
            last[:] = [x_joint.copy(), values.copy()]
            return float(values.sum()), grads.reshape(-1)

        evals_before = potential.stats.batched_evals
        started = time.perf_counter()
        try:
            result = minimize(
                objective,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": cfg.maxiter},
            )
            # The joint ``result.fun`` only exposes the sum of the
            # per-restart values.  L-BFGS-B usually evaluated ``result.x``
            # last; otherwise evaluate it once more.
            if last and last[0].tobytes() == result.x.tobytes():
                values = last[1]
            else:
                values, _ = potential.value_and_grad_batch(
                    result.x.reshape(wave, n_vars))
        except RelaxationError as exc:
            elapsed = time.perf_counter() - started
            evals = potential.stats.batched_evals - evals_before
            for i in range(wave):
                self.trace.restart_seconds.append(elapsed / wave)
                self.trace.restart_evals.append(evals)
                self.trace.diverged += 1
                self.trace.failures.append(
                    f"restart {restart_offset + i}: {exc}")
                self.obs.emit_span("relax.restart", elapsed / wave,
                                   outcome="diverged",
                                   restart=restart_offset + i, evals=evals,
                                   from_pool=inits[i][1])
            return
        elapsed = time.perf_counter() - started
        evals = potential.stats.batched_evals - evals_before
        xs = result.x.reshape(wave, n_vars)
        for i in range(wave):
            self.trace.restart_seconds.append(elapsed / wave)
            self.trace.restart_evals.append(evals)
            kept = self._keep(pool, restart_offset + i, xs[i],
                              float(values[i]), inits[i][1], potential)
            self.obs.emit_span("relax.restart", elapsed / wave,
                               outcome="ok" if kept else "diverged",
                               restart=restart_offset + i, evals=evals,
                               from_pool=inits[i][1])
