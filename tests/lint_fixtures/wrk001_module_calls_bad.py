"""Seeded WRK001 violations beside calls on imported modules.

Linted as module ``repro.perf.parallel`` so ``_worker_run`` is a worker
entry point.  The three mutations of module-level state fire; the
numpy and ``os`` function calls, whose names match mutating methods,
mutate no module state and stay quiet.
"""

import os

import numpy as np

_SEEN = []
_BY_TASK = {}


def _worker_run(task):
    values = np.sort(np.append(np.zeros(2), float(task)))
    np.add(values, values, out=values)
    _SEEN.append(task)  # a module-level list
    _BY_TASK.update({task: values})  # a module-level dict
    os.environ.update(REPRO_TASK=str(task))  # a module's mapping
    return values
