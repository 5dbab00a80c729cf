"""The central-difference gradient check.

The model's forward and backward passes live in :mod:`nhfm.model`;
:func:`finite_diff_errors` checks an analytic gradient against central
differences of a loss over float64 ``numpy`` arrays.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

Array = np.ndarray


def finite_diff_errors(f: Callable[[Mapping[str, Array]], float],
                       params: Mapping[str, Array],
                       analytic: Mapping[str, Array],
                       eps: float = 1e-5) -> dict[str, tuple[float, int]]:
    """Central-difference check of ``analytic`` against ``f``.

    For every scalar entry p the numeric gradient (f(p+eps)-f(p-eps))/2eps
    is compared with the analytic one; the relative error denominator is
    max(|analytic|, |numeric|, 1e-8). Returns, per parameter name, the
    worst relative error and the flat index where it occurs. ``f`` must be
    deterministic and pure.
    """
    work = {name: np.array(v, dtype=np.float64) for name, v in params.items()}
    report: dict[str, tuple[float, int]] = {}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        worst, worst_i = 0.0, 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(work)
            flat[i] = orig - eps
            f_minus = f(work)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            err = abs(a_flat[i] - numeric) / denom
            if err >= worst:
                worst, worst_i = err, i
        report[name] = (worst, worst_i)
    return report
