"""Adaptive quadrature for integrals of the form ``int_1^x h(t)/t dt``.

The substitution ``t = e^u`` turns the weighted integral into a plain one,
``int_0^{ln x} h(e^u) du``, which is what the engine actually computes.
Panels are refined by bisection; each panel is measured with the nested
Gauss(7)/Kronrod(15) pair and accepted once the Kronrod-vs-Gauss error
estimate meets the tolerance share allocated proportionally to the panel's
length.  All pending panels of a refinement wave are evaluated together,
in fixed blocks of ``_BLOCK`` panels whose work arrays stay in cache, so
oscillatory integrands stay affordable.  Every panel is measured on its own,
so the results do not depend on the block size.  The calling thread and a
thread pool measure the blocks of a larger wave together (numpy's ufuncs and
reductions release the GIL), each block writing into its own slice of the
wave, so the results do not depend on the worker count either.  That holds
for one numpy build at one CPU dispatch level: across levels (numpy's
AVX-512 kernels against its AVX2 ones, say) ``exp``, ``log`` and ``pow`` may
move the last bit of a node or of an integrand value, and with it the
evaluation counts.

A block is measured by one of two rules, which give the same bits.  The
row rule, for blocks of at most ``_SMALL_BLOCK`` panels, takes numpy's row
sum of each panel's 15 weighted values, laid out as (panels, 15).  The
column rule, for larger blocks, lays the block out node-major: its nodes,
values and work buffer are C-contiguous (15, panels) arrays, one row per
node, and the integrand sees the nodes as their (panels, 15) transpose.
Each weighted sum is then a handful of operations on whole contiguous rows,
taken in exactly the order of numpy's own contiguous 15-term sum: the
pairwise tree ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``, then ``a8 ... a14``
one at a time, all added to the +0.0 numpy starts its sums from (so a total
of -0.0 comes out as +0.0).

The column rule sums only the seven Gauss products at the odd nodes, as
``((p1+p3)+(p5+p7))+p9+p11+p13``.  The eight it skips are products with a
zero weight, so ±0 for the finite values ``eval_array`` returns, and adding
±0 to the row sum's partial sums changes at most the sign of a zero total;
the Gauss value enters only through ``|resk - resg|``, which drops that
sign.  Its absolute sum is taken from ``|fx * w|``, which equals
``|fx| * w`` exactly because every Kronrod weight ``w`` is positive.

If the evaluation budget runs out first, the best available value and an
honest error estimate are returned with ``converged = False`` instead of
raising.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .exprlang import Expr, _owned, eval_array
from .rules import ConfigError, PreconditionError, _check_above, _check_count, _check_point

__all__ = [
    "QuadTolerance",
    "QuadResult",
    "IntegralCache",
    "integrate_log",
    "PreconditionError",
]


# Gauss(7)/Kronrod(15) nodes and weights on [-1, 1].  The Gauss nodes are
# the odd-index Kronrod nodes, so one batch of 15 evaluations feeds both
# rules.  Exactness (degree 13 / degree 23) is pinned by the test suite.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-point node/weight vectors, ordered left to right
_NODES = np.concatenate([-_XGK[:7], [_XGK[7]], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])
# the column rule's nodes and weights: one per row of a (15, panels) array
_NODE_COLUMN = _NODES[:, None]
_WEIGHTS_K_COLUMN = _WEIGHTS_K[:, None]
_WEIGHTS_G_ODD = _WEIGHTS_G[1::2, None]


@dataclass(frozen=True)
class QuadTolerance:
    """Accuracy request for one integration call."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 1_000_000

    def __post_init__(self):
        _check_above(self.abs_tol, 0.0, "abs_tol")
        _check_above(self.rel_tol, 0.0, "rel_tol")
        # at least one panel; a nan or float budget would cap nothing
        _check_count(self.max_evals, 15, "max_evals")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# Panels per block of a wave: a block's (15, _BLOCK) arrays are 480 KiB each,
# so that the few a block keeps alive stay in a 2 MiB per-core L2 cache.
_BLOCK = 4096
# Blocks of at most this many panels take the row rule: up to here numpy's
# row sums cost less than the column rule's fixed cost of about 50 numpy
# calls (measured crossover 256-320 panels).  Every one-panel wave of a
# desk-sized command takes the row rule.
_SMALL_BLOCK = 256
# round-off floor of the error estimate, as a multiple of int |f|
_FLOOR = 50.0 * np.finfo(float).eps


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count() -> int:
    """Worker threads for the blocks of a multi-block wave.

    ``KARAMATA_KIT_THREADS`` capped at the usable cores; unset or blank
    means all usable cores, and a value of 0 or less means serial.  Raises
    :class:`ConfigError` when the variable is set but not an integer."""
    raw = os.environ.get("KARAMATA_KIT_THREADS", "").strip()
    cores = _usable_cores()
    if not raw:
        return cores
    try:
        wanted = int(raw)
    except ValueError:
        raise ConfigError(f"KARAMATA_KIT_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(wanted, cores))


# the process's one pool, of one thread fewer than the usable cores (the caller
# works too), built at first use; a pool that loses a first-use race ends after its wave
@functools.cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_usable_cores() - 1, thread_name_prefix="karamata-quad")


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray, workers: int):
    """Kronrod value and QUADPACK-style error per panel.

    A wave is measured ``_BLOCK`` panels at a time, so that the arrays of a
    block stay in cache.  The caller and up to ``workers - 1`` threads of
    the one pool, each under its own copy of the caller's context (numpy's
    ``errstate`` among it), take a larger wave's blocks in order from one
    iterator.  A failing block ends the hand-out, and once every block handed
    out is done the lowest failing block's error is raised, as in serial."""
    n = lo.size
    if n <= _BLOCK:
        return _rule_block(f, lo, hi)
    resk = np.empty(n)
    err = np.empty(n)
    blocks = range(0, n, _BLOCK)
    starts = iter(blocks)
    lock, errors = threading.Lock(), {}

    def drain():
        while True:
            with lock:
                start = None if errors else next(starts, None)
            if start is None:
                return
            b = slice(start, start + _BLOCK)
            try:
                resk[b], err[b] = _rule_block(f, lo[b], hi[b])
            except Exception as exc:  # raised by the caller, lowest block first
                errors[start] = exc

    helpers = [
        _pool().submit(contextvars.copy_context().run, drain)
        for _ in range(min(workers, len(blocks)) - 1)
    ]
    drain()
    for helper in helpers:
        # a helper still queued behind another caller's wave finds no block
        if not helper.cancel():
            helper.result()
    if errors:
        raise errors[min(errors)]
    return resk, err


def _rule_block(f, lo, hi):
    """Kronrod value and error of each panel of one block; ``f`` must not
    return its argument or a view of it, which the column rule overwrites.

    ``f`` sees the nodes as (panels, 15), panel i's nodes in row i in
    ascending order.  Under the column rule this is the transpose of a
    node-major array; returning values in its layout, as numpy's ufuncs
    do, lets the rule read whole rows.  Any layout gives the same bits."""
    if lo.size <= _SMALL_BLOCK:
        return _row_rule(f, lo, hi)
    return _column_rule(f, lo, hi)


def _row_rule(f, lo, hi):
    """The rule as weighted (panels, 15) arrays and numpy's row sums."""
    width = hi - lo
    half = 0.5 * width
    points = half[:, None] * _NODES
    points += (0.5 * (lo + hi))[:, None]
    fx = f(points)
    resk = np.multiply(fx, _WEIGHTS_K, out=points).sum(axis=1) * half
    resg = np.multiply(fx, _WEIGHTS_G, out=points).sum(axis=1) * half
    np.subtract(fx, (resk / width)[:, None], out=points)
    np.abs(points, out=points)
    points *= _WEIGHTS_K
    resasc = points.sum(axis=1) * half
    np.abs(fx, out=points)
    points *= _WEIGHTS_K
    resabs = points.sum(axis=1) * half
    return _error(resk, resg, resasc, resabs)


def _column_rule(f, lo, hi):
    """The rule on (15, panels) arrays, one row per node, with the weighted
    sums in the order of the module docstring.

    ``f`` gets the node-major nodes ``p`` transposed, and its values are read
    transposed back; ``p``, free once ``f`` has returned, holds the weighted
    values of each sum in turn."""
    width = hi - lo
    half = 0.5 * width
    p = np.multiply(_NODE_COLUMN, half)
    p += 0.5 * (lo + hi)
    fx = f(p.T).T
    resk = _node_sums(np.multiply(fx, _WEIGHTS_K_COLUMN, out=p)) * half
    # the node sum overwrote row 7 of the Kronrod products
    np.multiply(fx[7], _WEIGHTS_K[7], out=p[7])
    resabs = _node_sums(np.abs(p, out=p)) * half
    gauss = np.multiply(fx[1::2], _WEIGHTS_G_ODD, out=p[:7])
    pairs = gauss[0:4:2] + gauss[1:4:2]
    np.add(pairs[0], pairs[1], out=gauss[3])
    resg = np.add.reduce(gauss[3:], axis=0) * half
    np.subtract(fx, resk / width, out=p)
    np.abs(p, out=p)
    p *= _WEIGHTS_K_COLUMN
    resasc = _node_sums(p) * half
    return _error(resk, resg, resasc, resabs)


def _node_sums(p: np.ndarray) -> np.ndarray:
    """Sum a (15, panels) array over its nodes, overwriting its row 7, bit
    for bit as numpy's ``sum(axis=1)`` of the (panels, 15) copy.

    The tail is one ``add.reduce`` down rows 7-14, which starts from +0.0
    as the row sum does.  On a single panel numpy would sum those 8 values
    pairwise instead, which is why one panel takes the row rule
    (``_SMALL_BLOCK >= 1``)."""
    pairs = p[0:8:2] + p[1:8:2]
    quads = pairs[0::2] + pairs[1::2]
    np.add(quads[0], quads[1], out=p[7])
    return np.add.reduce(p[7:], axis=0)


def _error(resk, resg, resasc, resabs):
    """QUADPACK's error estimate from the four weighted sums of a block."""
    err = np.abs(resk - resg)
    measured = resasc > 0.0
    scale = np.where(measured, resasc, 1.0)
    # a ratio past ~1e205 overflows its 1.5th power, which min(1, ...) caps
    # (the caller's errstate keeps that quiet)
    err = np.where(measured, resasc * np.minimum(1.0, (200.0 * err / scale) ** 1.5), err)
    return resk, np.maximum(err, _FLOOR * resabs)


def _bisect(lo: np.ndarray, hi: np.ndarray):
    """Halve sorted, disjoint panels; the children come out in ascending order.

    Children interleave as lo_i, mid_i, lo_{i+1}, ...  Only when panels are a
    few ulps wide can a midpoint equal the next panel's left end; a stable
    sort of the left ends orders such ties differently, so they take the sort."""
    mid = 0.5 * (lo + hi)
    if (mid[:-1] == lo[1:]).any():
        keys = np.concatenate([lo, mid])
        order = np.argsort(keys, kind="stable")
        return keys[order], np.concatenate([mid, hi])[order]
    new_lo = np.empty(2 * lo.size)
    new_hi = np.empty(2 * lo.size)
    new_lo[0::2] = lo
    new_lo[1::2] = mid
    new_hi[0::2] = mid
    new_hi[1::2] = hi
    return new_lo, new_hi


def _adaptive(f, a: float, b: float, tol: QuadTolerance, max_evals: int) -> QuadResult:
    """Bisection-adaptive Gauss-Kronrod over [a, b], batched per wave.

    ``max_evals`` (at least 15) caps the evaluations of this call.  The
    worker count is read once, before the first wave.  The
    waves run with numpy's overflow and invalid warnings off, which the
    blocks on the pool inherit through their copied contexts.  A panel
    whose value or error estimate is not finite is measured again on
    ``h * 2**-4``, 15 more evaluations while the budget has them, and
    scaled back by ``2**4``.  One still not finite is never accepted, only
    split, so a result that the budget cut short keeps an error of inf.

    One wave is held at a time: while a wave is measured, its ``lo``,
    ``hi``, ``resk`` and ``err`` are the only arrays of its size, so the
    working memory is four float64 arrays per panel of the widest wave,
    plus about 1.5 MB of block work per thread.  The tolerance test after
    the wave adds a fifth array and a mask, 41 bytes a panel in all.
    ``L(sin)`` peaks (tracemalloc) at 6.3 MB serially and 8.1-8.3 MB on two
    threads at x = 1e6 (150,070 panels), and at 17.1 MB at 3e6 (416,522)."""
    if b <= a:
        return QuadResult(0.0, 0.0, 0, True)
    workers = thread_count()
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
            local_tol = resk + err  # its sum is finite only if every panel's is
            if not math.isfinite(float(local_tol.sum())):
                overflowed = ~np.isfinite(local_tol)
                rescue = np.count_nonzero(overflowed)
                if rescue and evals + 15 * rescue <= max_evals:
                    # |h| near the float range: measure again on h * 2**-4,
                    # whose sums are exactly 2**-4 times the unbounded ones
                    # unless a value becomes subnormal
                    resk[overflowed], err[overflowed] = _panel_rule(
                        lambda points: f(points) * 0.0625, lo[overflowed], hi[overflowed], workers
                    )
                    resk[overflowed] *= 16.0
                    err[overflowed] *= 16.0
                    evals += 15 * rescue
                    overflowed = ~np.isfinite(resk + err)
                resk[overflowed] = 0.0  # past the float range even so: split
                err[overflowed] = math.inf
                del overflowed
            value_estimate = done_value + float(resk.sum())
            tol_total = max(tol.abs_tol, tol.rel_tol * abs(value_estimate))
            np.subtract(hi, lo, out=local_tol)  # then tol_total * (hi - lo) / span
            local_tol *= tol_total
            ok = err <= np.divide(local_tol, span, out=local_tol)
            del local_tol
            done_value += float(resk[ok].sum())
            done_error += float(err[ok].sum())
            keep = np.logical_not(ok, out=ok)
            lo, hi = lo[keep], hi[keep]
            if not lo.size:
                break
            if evals + 30 * lo.size > max_evals:
                # splitting the pending panels would blow the budget: keep
                # their current measurements and report non-convergence.
                # evaluations never exceeds max_evals.
                done_value += float(resk[keep].sum())
                done_error += float(err[keep].sum())
                converged = False
                break
            del resk, err, ok, keep
            lo, hi = _bisect(lo, hi)
    return QuadResult(done_value, done_error, evals, converged)


def integrate_log(
    h: Expr,
    x: float,
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
) -> QuadResult:
    """Compute ``int_1^x h(t)/t dt`` for a finite ``x >= 1``: one
    :meth:`IntegralCache.extend` step, which checks ``x``.

    ``var`` names the integration variable inside ``h``.
    """
    return IntegralCache(h, var, tol).extend(x)


@dataclass
class IntegralCache:
    """Incremental evaluation of ``int_1^x h(t)/t dt`` along ascending x.

    ``extend`` integrates only the new segment past the current frontier and
    accumulates, so walking a grid costs one pass over [1, max x].
    """

    integrand: Expr
    var: str = "x"
    tol: QuadTolerance = field(default_factory=QuadTolerance)
    # the sweep's state, which only ``extend`` moves
    frontier: float = field(default=1.0, init=False)
    value: float = field(default=0.0, init=False)
    error_estimate: float = field(default=0.0, init=False)
    evaluations: int = field(default=0, init=False)
    converged: bool = field(default=True, init=False)

    def extend(self, x_next: float) -> QuadResult:
        """Advance the frontier to ``x_next``, finite and not below it (else
        ``PreconditionError``), and return the integral over [1, x_next].

        ``tol.max_evals`` caps the whole sweep: each segment gets only the
        budget the earlier ones left.  With less than one panel (15
        evaluations) left, the frontier moves without integrating, the
        cache is marked not converged and its error estimate becomes
        ``inf``: nothing bounds the skipped segment."""
        x_next = _check_point(x_next, self.frontier)
        if x_next > self.frontier:
            remaining = self.tol.max_evals - self.evaluations
            if remaining < 15:
                self.converged = False
                self.error_estimate = math.inf
            else:
                a = math.log(self.frontier)
                b = math.log(x_next)
                # the walk may compute in the fresh exp(points)
                owned = _owned(self.integrand, self.var)

                def f(points: np.ndarray) -> np.ndarray:
                    return eval_array(self.integrand, {self.var: np.exp(points)}, owned)

                seg = _adaptive(f, a, b, self.tol, remaining)
                value = self.value + seg.value
                if not (math.isfinite(value) and math.isfinite(seg.error_estimate)):
                    raise PreconditionError(
                        f"int_1^x h(t)/t dt overflows on the segment "
                        f"[{self.frontier!r}, {x_next!r}]"
                    )
                self.value = value
                self.error_estimate += seg.error_estimate
                self.evaluations += seg.evaluations
                self.converged = self.converged and seg.converged
            self.frontier = x_next
        return QuadResult(
            self.value, self.error_estimate, self.evaluations, self.converged
        )
