"""Compliant twin of wrk001_module_calls_bad: module functions whose
names match mutating methods, called on a worker path."""

import os.path

import numpy as np
import numpy.linalg as la


def _worker_run(task):
    values = np.insert(np.zeros(2), 0, float(task))
    values = np.sort(np.append(values, la.norm(values)))
    np.add(values, values, out=values)
    seen = [os.path.basename(str(task))]
    seen.append(task)
    return values, seen
