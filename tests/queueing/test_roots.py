"""The scipy-free Brent root finder and t-quantile replay scipy bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.special import stdtrit

from repro.core.comparator import EdgeCloudComparator
from repro.core.inversion import cutoff_utilization_exact, inversion_rate_heterogeneous
from repro.core.scenarios import PAPER_SCENARIOS
from repro.core.tail import cutoff_utilization_tail
from repro.queueing.mmk import MMk
from repro.queueing.roots import brentq

#: Every xtol the repo passes: scipy's default, core.tail and core.inversion.
XTOLS = (2e-12, 1e-9, 1e-10)

coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _family(kind, c):
    """One continuous test function; ``kind`` picks its shape."""
    if kind == 0:
        return lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]
    if kind == 1:
        return lambda x: math.exp(c[0] * x) - abs(c[1]) - 0.1
    if kind == 2:
        # Tiny values: the extrapolation denominator underflows to 0.
        return lambda x: math.tanh(c[0] * (x - c[1])) * 1e-150 + c[2] * 1e-160
    if kind == 3:
        return lambda x: math.atan(x - c[2]) * c[0] + math.sin(c[3] * x)
    if kind == 4:
        # Steep or flat power laws around c[1], scaled across 10^±300.
        return lambda x: math.copysign(abs(x - c[1]) ** (abs(c[2]) / 5 + 0.05), x - c[1]) * 10 ** (
            c[0] * 60
        )
    # ±inf outside a window around c[0]: the steps' arithmetic meets inf and NaN.
    return lambda x: (
        math.copysign(math.inf, x - c[0]) if abs(x - c[0]) > abs(c[1]) else (x - c[0]) * 1e300
    )


def _outcome(solver, f, a, b, **kw):
    try:
        return ("ok", solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


class TestMatchesScipy:
    @given(
        kind=st.integers(min_value=0, max_value=5),
        c=st.lists(coef, min_size=4, max_size=4),
        a=st.floats(min_value=-10.0, max_value=10.0),
        width=st.floats(min_value=1e-6, max_value=20.0),
        xtol=st.sampled_from(XTOLS),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_functions_and_brackets(self, kind, c, a, width, xtol):
        f = _family(kind, c)
        b = a + width
        assert _outcome(brentq, f, a, b, xtol=xtol) == _outcome(
            optimize.brentq, f, a, b, xtol=xtol
        )

    @given(
        c=st.lists(coef, min_size=4, max_size=4),
        shift=st.floats(min_value=-4.0, max_value=4.0),
        xtol=st.sampled_from(XTOLS),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_changing_brackets_converge_identically(self, c, shift, xtol):
        # A bracket around a known sign change, so every example iterates.
        f = lambda x: math.atan(x - shift) * (abs(c[0]) + 0.1) + 0.05 * math.sin(c[1] * x)
        got = _outcome(brentq, f, shift - 5.0, shift + 5.0, xtol=xtol)
        assert got[0] == "ok"
        assert got == _outcome(optimize.brentq, f, shift - 5.0, shift + 5.0, xtol=xtol)

    def test_paper_cutoffs(self):
        for scenario in PAPER_SCENARIOS:
            cmp = EdgeCloudComparator(scenario)
            assert cmp.predict_cutoff_utilization() == _with_scipy(
                cmp.predict_cutoff_utilization
            )

    @pytest.mark.parametrize(
        "fn, args",
        [
            (cutoff_utilization_exact, (0.01, 13.0, 1, 10)),
            (cutoff_utilization_tail, (0.01, 13.0, 1, 10)),
            (cutoff_utilization_tail, (0.03, 13.0, 2, 20, 0.99)),
            (inversion_rate_heterogeneous, (0.01, 12.0, 13.0, 1, 10, 10)),
            (MMk(100.0, 13.0, 10).response_time_percentile, (0.95,)),
            (MMk(5.0, 13.0, 1).response_time_percentile, (0.99,)),
        ],
    )
    def test_every_call_site(self, fn, args):
        assert fn(*args) == _with_scipy(fn, *args)


def _with_scipy(fn, *args):
    """``fn(*args)`` with every in-repo ``brentq`` call site routed to scipy."""
    import repro.core.inversion as inversion
    import repro.core.tail as tail
    import repro.queueing.mmk as mmk

    modules = (inversion, tail, mmk)
    saved = [m.brentq for m in modules]
    for m in modules:
        m.brentq = optimize.brentq
    try:
        return fn(*args)
    finally:
        for m, original in zip(modules, saved):
            m.brentq = original


class TestErrors:
    @pytest.mark.parametrize("solver", [brentq, optimize.brentq])
    def test_same_sign_bracket(self, solver):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("solver", [brentq, optimize.brentq])
    def test_nan_raises_value_error(self, solver):
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("solver", [brentq, optimize.brentq])
    def test_maxiter_exhaustion(self, solver):
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            solver(lambda x: x**3 - 2.0, -10.0, 10.0, maxiter=3)

    @pytest.mark.parametrize("solver", [brentq, optimize.brentq])
    def test_bad_tolerances(self, solver):
        with pytest.raises(ValueError, match="xtol too small"):
            solver(lambda x: x, -1.0, 1.0, xtol=0.0)
        with pytest.raises(ValueError, match="rtol too small"):
            solver(lambda x: x, -1.0, 1.0, rtol=1e-16)

    def test_root_at_endpoint(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_stdtrit_is_t_ppf():
    """``stdtrit(df, p)`` (argument order flipped) is exactly ``t.ppf(p, df)``."""
    for df in range(1, 400):
        for confidence in np.linspace(0.5, 0.999, 60):
            p = 0.5 + confidence / 2.0
            assert float(stdtrit(df, p)) == float(stats.t.ppf(p, df)), (df, p)
