"""Frozen oracle for the quadrature's wave loop.

``adaptive`` is the wave loop ``quad._adaptive`` ran before it held one wave
at a time: it keeps the previous wave's tolerances and masks alive, tests
every panel with ``np.isfinite`` on every wave and builds ``local_tol`` as
``tol_total * (hi - lo) / span``.  It measures panels with the library's
``_panel_rule`` and halves them with its ``_bisect``, so it checks only the
loop: which panels are accepted, rescued, split or kept when the budget runs
out, and in what order their sums are added.  ``_adaptive(f, a, b, tol,
max_evals)`` must return the same ``QuadResult``, bit for bit, as
``adaptive(f, a, b, tol, max_evals, thread_count())``.  It is kept unchanged
so that the loop is checked against a loop other than itself.  Do not edit
it to follow the library.
"""

from __future__ import annotations

import math

import numpy as np

from karamata_kit.quad import QuadResult, _bisect, _panel_rule


def adaptive(f, a, b, tol, max_evals, workers):
    if b <= a:
        return QuadResult(0.0, 0.0, 0, True)
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    done_value = 0.0
    done_error = 0.0
    evals = 0
    converged = True
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            resk, err = _panel_rule(f, lo, hi, workers)
            evals += 15 * lo.size
            overflowed = ~np.isfinite(resk + err)
            rescue = np.count_nonzero(overflowed)
            if rescue and evals + 15 * rescue <= max_evals:
                resk[overflowed], err[overflowed] = _panel_rule(
                    lambda points: f(points) * 0.0625, lo[overflowed], hi[overflowed], workers
                )
                resk[overflowed] *= 16.0
                err[overflowed] *= 16.0
                evals += 15 * rescue
                overflowed = ~np.isfinite(resk + err)
            if overflowed.any():
                resk[overflowed] = 0.0
                err[overflowed] = math.inf
            value_estimate = done_value + float(resk.sum())
            tol_total = max(tol.abs_tol, tol.rel_tol * abs(value_estimate))
            local_tol = tol_total * (hi - lo) / span
            ok = err <= local_tol
            done_value += float(resk[ok].sum())
            done_error += float(err[ok].sum())
            keep = ~ok
            lo, hi = lo[keep], hi[keep]
            if not lo.size:
                break
            if evals + 30 * lo.size > max_evals:
                done_value += float(resk[keep].sum())
                done_error += float(err[keep].sum())
                converged = False
                break
            lo, hi = _bisect(lo, hi)
    return QuadResult(done_value, done_error, evals, converged)
