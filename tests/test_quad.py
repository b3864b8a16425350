"""Quadrature engine tests.

Closed-form targets used here:
    int_1^x c/t dt          = c ln x
    int_1^x ln t / t dt     = (ln x)^2 / 2
    int_1^x 1/((1+ln t) t)  = ln(1 + ln x)
    int_1^x sin t / t dt    = Si(x) - Si(1)
The Si values were frozen from an independent scipy.special.sici run.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    IntegralCache,
    PreconditionError,
    QuadTolerance,
    eval_array,
    integrate_log,
    parse,
)
from karamata_kit import quad as quad_mod
from karamata_kit.config import ConfigError
from karamata_kit.exprlang import DomainError

from expr_corpus import CORPUS

SI_1 = 0.9460830703671831
SI_1E6 = 1.570795390043119


# ---------------------------------------------------------------------------
# the raw Gauss/Kronrod pair

def _apply_rule(weights, degree):
    # integrate t^degree over [0, 1] with the rule mapped from [-1, 1]
    t = 0.5 + 0.5 * quad_mod._NODES
    return float((t**degree * weights).sum() * 0.5)


@pytest.mark.parametrize("degree", range(0, 14))
def test_gauss7_exact_through_degree_13(degree):
    exact = 1.0 / (degree + 1)
    assert _apply_rule(quad_mod._WEIGHTS_G, degree) == pytest.approx(exact, rel=5e-15)


def test_gauss7_not_exact_at_degree_14():
    exact = 1.0 / 15.0
    err = abs(_apply_rule(quad_mod._WEIGHTS_G, 14) - exact) / exact
    assert err > 1e-9


@pytest.mark.parametrize("degree", range(0, 24))
def test_kronrod15_exact_through_degree_23(degree):
    exact = 1.0 / (degree + 1)
    assert _apply_rule(quad_mod._WEIGHTS_K, degree) == pytest.approx(exact, rel=5e-15)


def test_kronrod15_not_exact_at_degree_25():
    exact = 1.0 / 26.0
    err = abs(_apply_rule(quad_mod._WEIGHTS_K, 25) - exact) / exact
    assert err > 1e-14


def test_gauss_nodes_are_odd_kronrod_nodes():
    gauss = quad_mod._NODES[quad_mod._WEIGHTS_G != 0.0]
    assert gauss.size == 7


# ---------------------------------------------------------------------------
# integrate_log against closed forms

@pytest.mark.parametrize("c", [-3.0, 1.0, 5.0])
@pytest.mark.parametrize("x", [2.0, 10.0, 1e4, 1e9])
def test_constant_integrand_gives_c_ln_x(c, x):
    res = integrate_log(parse(repr(c)), x)
    assert res.converged
    assert res.value == pytest.approx(c * math.log(x), rel=1e-12)


@pytest.mark.parametrize("x", [10.0, 1e4, 1e8])
def test_ln_integrand_gives_half_log_squared(x):
    res = integrate_log(parse("ln(x)"), x)
    assert res.converged
    assert res.value == pytest.approx(math.log(x) ** 2 / 2.0, rel=1e-10)


@pytest.mark.parametrize("x", [10.0, 1e4, 1e8])
def test_shifted_reciprocal_log_integrand(x):
    res = integrate_log(parse("1/(1+ln(x))"), x)
    assert res.converged
    assert res.value == pytest.approx(math.log1p(math.log(x)), rel=1e-10)


def test_oscillatory_integrand_matches_sine_integral_oracle():
    res = integrate_log(parse("sin(x)"), 1e6, QuadTolerance(max_evals=50_000_000))
    assert res.converged
    assert res.value == pytest.approx(SI_1E6 - SI_1, abs=1e-9)
    # perfbench/README.md quotes this count for `apply-l "sin(x)" --x 1e6`
    assert res.evaluations == 9_054_825


@given(
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(2.0, 1e6),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_in_ln_t_integrate_exactly(c0, c1, c2, x):
    h = parse(f"{c0!r} + {c1!r}*ln(x) + {c2!r}*ln(x)^2")
    L = math.log(x)
    exact = c0 * L + c1 * L**2 / 2.0 + c2 * L**3 / 3.0
    res = integrate_log(h, x)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_error_estimate_brackets_true_error():
    for x in (10.0, 1e4, 1e8):
        res = integrate_log(parse("ln(x)"), x)
        true_err = abs(res.value - math.log(x) ** 2 / 2.0)
        assert true_err <= max(res.error_estimate, 1e-13)


# ---------------------------------------------------------------------------
# boundary and precondition behavior

def test_x_equal_one_is_zero_with_no_evaluations():
    res = integrate_log(parse("sin(x)"), 1.0)
    assert res == quad_mod.QuadResult(0.0, 0.0, 0, True)


def test_x_below_one_rejected():
    with pytest.raises(PreconditionError):
        integrate_log(parse("1"), 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_rejected(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match="finite"):
            integrate_log(parse("sin(x)"), x)


def test_tolerance_validation():
    with pytest.raises(PreconditionError):
        QuadTolerance(abs_tol=0.0)
    with pytest.raises(PreconditionError):
        QuadTolerance(rel_tol=-1.0)
    with pytest.raises(PreconditionError):
        QuadTolerance(max_evals=10)
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            QuadTolerance(abs_tol=bad)
        with pytest.raises(PreconditionError):
            QuadTolerance(rel_tol=bad)


def test_budget_exhaustion_reports_honestly():
    res = integrate_log(parse("sin(x)"), 1e6, QuadTolerance(max_evals=3_000))
    assert not res.converged
    assert res.evaluations <= 3_000
    assert math.isfinite(res.value)
    assert res.error_estimate > 0.0


def test_budget_counts_evaluations():
    res = integrate_log(parse("ln(x)"), 100.0)
    assert res.evaluations % 15 == 0
    assert res.evaluations >= 15


# ---------------------------------------------------------------------------
# incremental cache

def test_cache_additivity_matches_direct_integration():
    h = parse("ln(x)")
    cache = IntegralCache(h)
    part = cache.extend(100.0)
    assert part.value == pytest.approx(math.log(100.0) ** 2 / 2.0, rel=1e-10)
    full = cache.extend(1e6)
    direct = integrate_log(h, 1e6)
    tol = full.error_estimate + direct.error_estimate + 1e-12
    assert abs(full.value - direct.value) <= tol


def test_cache_extend_is_idempotent_at_frontier():
    cache = IntegralCache(parse("1"))
    first = cache.extend(50.0)
    again = cache.extend(50.0)
    assert again == first


def test_cache_rejects_backward_motion():
    cache = IntegralCache(parse("1"))
    cache.extend(10.0)
    with pytest.raises(PreconditionError):
        cache.extend(5.0)


def test_cache_accumulates_evaluation_counts():
    cache = IntegralCache(parse("sin(ln(x))"))
    a = cache.extend(100.0)
    b = cache.extend(1e4)
    assert b.evaluations >= a.evaluations
    assert b.converged


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_cache_rejects_non_finite_x(x):
    cache = IntegralCache(parse("1"))
    cache.extend(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match="finite"):
            cache.extend(x)
    assert cache.frontier == 10.0


def test_cache_with_less_than_one_panel_left_evaluates_nothing():
    cache = IntegralCache(parse("sin(x)"), tol=QuadTolerance(max_evals=20))
    first = cache.extend(1e3)
    assert first.evaluations == 15
    assert not first.converged
    second = cache.extend(1e4)
    # nothing is evaluated, and nothing bounds the error of the skipped segment
    assert second == quad_mod.QuadResult(first.value, math.inf, first.evaluations, False)
    assert cache.frontier == 1e4
    assert cache.extend(1e5) == second


# ---------------------------------------------------------------------------
# the blocked panel rule and the sort-free bisection

def _wave(rng, n, lo=0.0, hi=12.0):
    # n sorted, disjoint panels with gaps, as a refinement wave leaves them
    edges = np.sort(rng.uniform(lo, hi, 2 * n))
    return edges[0::2], edges[1::2]


def test_panel_rule_does_not_depend_on_block_size(monkeypatch):
    rng = np.random.default_rng(2024)
    n = 3 * quad_mod._BLOCK + 7
    lo, hi = _wave(rng, n)
    h = parse("sin(x) * ln(x) + 1/(1+x)")

    def f(points):
        return eval_array(h, {"x": np.exp(points)})

    resk, err = quad_mod._panel_rule(f, lo, hi)
    monkeypatch.setattr(quad_mod, "_BLOCK", n + 1)
    ref_resk, ref_err = quad_mod._panel_rule(f, lo, hi)
    assert np.array_equal(resk, ref_resk)
    assert np.array_equal(err, ref_err)


def _reference_rule(f, lo, hi):
    # the rule as a (panels, 15) array with one numpy row sum per panel;
    # the blocked (15, panels) kernel must reproduce it bit for bit
    width = hi - lo
    half = 0.5 * width
    points = half[:, None] * quad_mod._NODES
    points += (0.5 * (lo + hi))[:, None]
    fx = f(points)
    resk = np.multiply(fx, quad_mod._WEIGHTS_K, out=points).sum(axis=1) * half
    resg = np.multiply(fx, quad_mod._WEIGHTS_G, out=points).sum(axis=1) * half
    np.subtract(fx, (resk / width)[:, None], out=points)
    np.abs(points, out=points)
    points *= quad_mod._WEIGHTS_K
    resasc = points.sum(axis=1) * half
    np.abs(fx, out=points)
    points *= quad_mod._WEIGHTS_K
    resabs = points.sum(axis=1) * half
    err = np.abs(resk - resg)
    measured = resasc > 0.0
    scale = np.where(measured, resasc, 1.0)
    err = np.where(measured, resasc * np.minimum(1.0, (200.0 * err / scale) ** 1.5), err)
    return resk, np.maximum(err, quad_mod._FLOOR * resabs)


def _wave_sizes():
    small, block = quad_mod._SMALL_BLOCK, quad_mod._BLOCK
    return [1, 2, 15, small, small + 1, block, block + 1, 3 * block + 7]


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _log_integrand(text):
    h = parse(text)
    return lambda points: eval_array(h, {"x": np.exp(points)})


@pytest.mark.parametrize("n", _wave_sizes())
def test_panel_rule_matches_row_sums_bit_for_bit(n):
    for k, (text, lo, hi) in enumerate(CORPUS):
        f = _log_integrand(text)
        a, b = _wave(np.random.default_rng(1000 * n + k), n, math.log(lo), math.log(hi))
        _assert_same_bits(quad_mod._panel_rule(f, a, b), _reference_rule(f, a, b))


@pytest.mark.parametrize("n", _wave_sizes())
def test_negative_zero_integrand_sums_to_positive_zero(n):
    # numpy's row sum starts from +0.0, so rows of -0.0 sum to +0.0
    def f(points):
        return np.full_like(points, -0.0)

    lo, hi = _wave(np.random.default_rng(n), n)
    resk, err = quad_mod._panel_rule(f, lo, hi)
    _assert_same_bits((resk, err), _reference_rule(f, lo, hi))
    assert not np.signbit(resk).any()


@pytest.mark.parametrize("small_block", [1, quad_mod._SMALL_BLOCK, quad_mod._BLOCK])
def test_both_node_sum_branches_agree(monkeypatch, small_block):
    # 1: column ops for every block of two or more panels; _BLOCK: row sums only
    monkeypatch.setattr(quad_mod, "_SMALL_BLOCK", small_block)
    f = _log_integrand("sin(x) * ln(x) + 1/(1+x)")
    for n in (2, 3, 15, 160, 161, 2048, 2049):
        lo, hi = _wave(np.random.default_rng(n), n)
        _assert_same_bits(quad_mod._panel_rule(f, lo, hi), _reference_rule(f, lo, hi))


@pytest.mark.parametrize("text", ["sin(x)", "cos(3*x) * ln(x)"])
def test_cache_sweep_matches_row_sum_kernel(monkeypatch, text):
    grid = [10.0**k for k in range(1, 6)]

    def sweep():
        cache = IntegralCache(parse(text), tol=QuadTolerance(max_evals=5_000_000))
        return [cache.extend(x) for x in grid]

    got = sweep()
    monkeypatch.setattr(quad_mod, "_rule_block", _reference_rule)
    want = sweep()
    assert got == want
    assert [r.value.hex() for r in got] == [r.value.hex() for r in want]
    assert [r.error_estimate.hex() for r in got] == [r.error_estimate.hex() for r in want]


def _sorted_children(lo, hi):
    # children ordered by a stable sort of their left ends
    mid = 0.5 * (lo + hi)
    lo2 = np.concatenate([lo, mid])
    hi2 = np.concatenate([mid, hi])
    order = np.argsort(lo2, kind="stable")
    return lo2[order], hi2[order]


@pytest.mark.parametrize("n", [1, 2, 9, 1000])
def test_bisect_matches_stable_sort_of_children(n):
    lo, hi = _wave(np.random.default_rng(n), n)
    got_lo, got_hi = quad_mod._bisect(lo, hi)
    ref_lo, ref_hi = _sorted_children(lo, hi)
    assert np.array_equal(got_lo, ref_lo)
    assert np.array_equal(got_hi, ref_hi)


def test_bisect_keeps_sorted_order_for_ulp_wide_panels():
    # [1+u, 1+2u] halves to a midpoint equal to the next panel's left end
    edges = 1.0 + np.array([0.0, 1.0, 2.0, 6.0]) * 2.0**-52
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    ref_lo, ref_hi = _sorted_children(lo, hi)
    assert not np.array_equal(np.ravel(np.column_stack([mid, hi])), ref_hi)
    got_lo, got_hi = quad_mod._bisect(lo, hi)
    assert np.array_equal(got_lo, ref_lo)
    assert np.array_equal(got_hi, ref_hi)


# ---------------------------------------------------------------------------
# the block pool: worker count, bit identity, errors, fork, errstate

@pytest.fixture
def three_cores(monkeypatch):
    # three usable cores, so that KARAMATA_KIT_THREADS=3 really runs three
    monkeypatch.setattr(quad_mod, "_usable_cores", lambda: 3)
    return monkeypatch


@pytest.mark.parametrize(
    "raw, workers",
    [("", 3), ("  ", 3), ("1", 1), ("2", 2), ("3", 3), ("0", 1), ("-4", 1),
     ("1000000", 3), ("9" * 40, 3)],
)
def test_thread_count_is_capped_at_the_usable_cores(three_cores, raw, workers):
    # computed only: no pool is built and no thread is started
    three_cores.setenv("KARAMATA_KIT_THREADS", raw)
    assert quad_mod.thread_count() == workers


def test_thread_count_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("KARAMATA_KIT_THREADS", raising=False)
    assert quad_mod.thread_count() == quad_mod._usable_cores() >= 1
    monkeypatch.delattr(quad_mod.os, "sched_getaffinity", raising=False)
    assert quad_mod._usable_cores() == (quad_mod.os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["many", "2.5", "0x2"])
def test_thread_count_rejects_a_non_integer(monkeypatch, raw):
    monkeypatch.setenv("KARAMATA_KIT_THREADS", raw)
    with pytest.raises(ConfigError, match="KARAMATA_KIT_THREADS must be an integer"):
        quad_mod.thread_count()


def _hexes(results):
    return [(r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged) for r in results]


def _pooled_runs(monkeypatch, run):
    # run() under 1, 2 and 3 workers, recording the threads that measured blocks
    rule_block = quad_mod._rule_block
    runs = {}
    for workers in (1, 2, 3):
        threads = set()

        def spy(f, lo, hi):
            threads.add(threading.get_ident())
            return rule_block(f, lo, hi)

        monkeypatch.setattr(quad_mod, "_rule_block", spy)
        monkeypatch.setenv("KARAMATA_KIT_THREADS", str(workers))
        runs[workers] = (_hexes(run()), threads)
    return runs


def test_pooled_oscillatory_integral_is_bit_identical(three_cores):
    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    runs = _pooled_runs(three_cores, lambda: [integrate_log(h, 1e5, tol)])
    assert runs[1][0] == runs[2][0] == runs[3][0]
    assert runs[1][0][0][2] == 858_315
    main = threading.get_ident()
    assert runs[1][1] == {main}  # serial: every block on the calling thread
    assert len(runs[3][1] - {main}) >= 2  # pooled: blocks on worker threads
    assert quad_mod._pools[3]._max_workers == 3


@pytest.mark.parametrize("text", ["sin(x)", "cos(3*x) * ln(x)"])
def test_pooled_cache_sweep_is_bit_identical(three_cores, text):
    grid = [10.0**k for k in range(1, 6)]

    def sweep():
        cache = IntegralCache(parse(text), tol=QuadTolerance(max_evals=5_000_000))
        return [cache.extend(x) for x in grid]

    runs = _pooled_runs(three_cores, sweep)
    assert runs[1][0] == runs[2][0] == runs[3][0]
    assert len(runs[3][1]) > 1


def test_pooled_wave_raises_the_first_failing_blocks_error(three_cores):
    # block k's panels lie in [k, k + 1); blocks 1 and 3 fail, and block 1
    # fails last in time, yet its error is the one raised, as in serial
    block = quad_mod._BLOCK
    lo = np.arange(4 * block) / block
    hi = lo + 1.0 / block

    def f(points):
        k = int(points[0, 7])  # the middle node is the panel's midpoint
        if k == 1:
            time.sleep(0.1)
            raise DomainError("block 1")
        if k == 3:
            raise DomainError("block 3")
        return np.sin(points)

    for workers in ("1", "2", "3"):
        three_cores.setenv("KARAMATA_KIT_THREADS", workers)
        with pytest.raises(DomainError, match="^block 1$"):
            quad_mod._panel_rule(f, lo, hi)


def test_pooled_wave_keeps_the_callers_errstate(three_cores):
    # exp(-1000 u) underflows past u ~ 0.75: ignored by numpy's default
    # errstate, raised under errstate(all="raise"), in the workers as well
    lo, hi = _wave(np.random.default_rng(3), 3 * quad_mod._BLOCK)

    def f(points):
        return np.exp(-1000.0 * points)

    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    plain, strict = {}, {}
    for workers in ("1", "2", "3"):
        three_cores.setenv("KARAMATA_KIT_THREADS", workers)
        plain[workers] = [a.tobytes() for a in quad_mod._panel_rule(f, lo, hi)]
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                quad_mod._panel_rule(f, lo, hi)
            strict[workers] = _hexes([integrate_log(h, 1e5, tol)])
    assert plain["1"] == plain["2"] == plain["3"]
    assert strict["1"] == strict["2"] == strict["3"]


def test_pooled_waves_from_many_callers_lose_no_block(monkeypatch):
    # more workers than cores, four callers at once, each building the pool
    # if it is not there yet, and a thread switch every few microseconds; a
    # block whose write were lost would leave np.empty garbage in its slice
    monkeypatch.setattr(quad_mod, "_usable_cores", lambda: 8)
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "8")
    f = _log_integrand("sin(x) * ln(x) + 1/(1+x)")
    waves = [_wave(np.random.default_rng(100 + k), 6 * quad_mod._BLOCK + k) for k in range(12)]
    wants = [_reference_rule(f, lo, hi) for lo, hi in waves]
    results, errors = {}, []

    def caller(first):
        try:
            for k in range(first, len(waves), 4):
                results[k] = quad_mod._panel_rule(f, *waves[k])
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(first,)) for first in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == list(range(12))
    for k, want in enumerate(wants):
        _assert_same_bits(results[k], want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_a_pooled_integral(three_cores):
    # the parent's pool has running threads; the child inherits none of them
    three_cores.setenv("KARAMATA_KIT_THREADS", "2")
    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    want = repr(_hexes([integrate_log(h, 1e5, tol)])).encode()
    assert 2 in quad_mod._pools
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report the result, then leave at once
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, repr(_hexes([integrate_log(h, 1e5, tol)])).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child hung on a pooled integral")
        time.sleep(0.02)
    with os.fdopen(read_end, "rb") as pipe:
        got = pipe.read()
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


def test_single_block_waves_never_touch_the_pool(three_cores):
    def no_pool(workers):
        raise AssertionError("the pool was used")

    three_cores.setattr(quad_mod, "_pool", no_pool)
    three_cores.setenv("KARAMATA_KIT_THREADS", "3")
    f = _log_integrand("1/(1+ln(x))")
    lo, hi = _wave(np.random.default_rng(5), quad_mod._BLOCK)
    quad_mod._panel_rule(f, lo, hi)
    assert integrate_log(parse("1/(1+ln(x))"), 1e8).converged
    with pytest.raises(AssertionError, match="pool"):
        quad_mod._panel_rule(f, *_wave(np.random.default_rng(5), quad_mod._BLOCK + 1))


def test_import_does_not_load_the_pool_module():
    src = os.path.dirname(os.path.dirname(quad_mod.__file__))
    code = "import sys, karamata_kit; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
