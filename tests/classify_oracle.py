"""Frozen oracle for the limit classifier.

``_reference_classify`` is the one-sequence ``classify_limit`` as it stood
before ``classify_rows`` replaced it with one kernel over the rows of a
matrix, kept unchanged so the kernel's verdicts can be checked against it
by ``repr``.  Do not edit it to follow the library.
"""

from __future__ import annotations

import numpy as np

from karamata_kit.asymptotics import (
    DEFAULT_CLASSIFY_TOL,
    DIVERGE_THRESHOLD,
    MIN_SAMPLES,
    MIN_SIGN_CHANGES,
    SHRINK_FACTOR,
    LimitVerdict,
)
from karamata_kit.quad import PreconditionError


def _reference_classify(samples, tol: float = DEFAULT_CLASSIFY_TOL) -> LimitVerdict:
    """Classify the tail behaviour of a sampled sequence.

    Needs at least 8 samples taken along an ascending grid.
    """
    values = np.asarray(list(samples), dtype=float)
    n = values.size
    if n < MIN_SAMPLES:
        raise PreconditionError(f"classify_limit needs >= {MIN_SAMPLES} samples, got {n}")
    if tol <= 0:
        raise PreconditionError("classification tolerance must be positive")
    if not np.all(np.isfinite(values)):
        return LimitVerdict(kind="inconclusive", detail="non-finite samples")

    deltas = np.abs(np.diff(values))
    tail = values[n // 2 :]
    tail_deltas = tuple(float(d) for d in deltas[-min(6, n - 1) :])

    # divergence: same-signed, growing, and already past the threshold
    head = values[-4:]
    if (
        np.all(np.abs(head) > DIVERGE_THRESHOLD)
        and np.all(np.diff(np.abs(head)) > 0)
        and (np.all(head > 0) or np.all(head < 0))
    ):
        sign = 1 if head[-1] > 0 else -1
        return LimitVerdict(
            kind="diverges",
            sign=sign,
            detail=f"|samples| exceed {DIVERGE_THRESHOLD:g} and grow",
            tail_deltas=tail_deltas,
        )

    # oscillation: the centered tail keeps crossing zero without losing
    # amplitude
    center = float(tail.mean())
    centered = tail - center
    noise = 1e-12 * max(1.0, float(np.max(np.abs(tail))))
    signs = np.sign(centered)
    signs[np.abs(centered) <= noise] = 0
    live = signs[signs != 0]
    changes = int(np.count_nonzero(np.diff(live) != 0)) if live.size > 1 else 0
    half = centered.size // 2
    amp_early = float(np.max(np.abs(centered[:half]))) if half else 0.0
    amp_late = float(np.max(np.abs(centered[half:]))) if half < centered.size else 0.0
    if changes >= MIN_SIGN_CHANGES and amp_late > tol and amp_late >= 0.5 * amp_early:
        return LimitVerdict(
            kind="oscillates",
            band=(float(tail.min()), float(tail.max())),
            detail=f"{changes} sign changes about the tail mean, amplitude not shrinking",
            tail_deltas=tail_deltas,
            sign_changes=changes,
        )

    # convergence: increments shrink geometrically and the last one is small
    floor = 1e-11 * max(1.0, float(np.max(np.abs(tail))))
    window = deltas[-max(4, (n - 1) // 2) :]
    shrinking = all(
        d2 <= SHRINK_FACTOR * d1 or d2 <= floor
        for d1, d2 in zip(window[:-1], window[1:])
    )
    if shrinking and window[-1] <= max(tol, floor):
        return LimitVerdict(
            kind="converges",
            value=float(values[-1]),
            detail=(
                f"increments shrink by <= {SHRINK_FACTOR} and final increment"
                f" {float(window[-1]):.3g} <= {max(tol, floor):.3g}"
            ),
            tail_deltas=tail_deltas,
            sign_changes=changes,
        )

    return LimitVerdict(
        kind="inconclusive",
        detail="no divergence, oscillation, or convergence pattern at this tolerance",
        tail_deltas=tail_deltas,
        sign_changes=changes,
    )
