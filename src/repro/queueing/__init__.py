"""Queueing-theory substrate: exact and approximate queueing models.

This subpackage provides the analytical machinery used throughout the
reproduction of *The Hidden Cost of the Edge* (SC 2021):

* :mod:`repro.queueing.distributions` — random-variable objects with
  first/second moments (mean, squared coefficient of variation) and
  reproducible sampling, plus two-moment fitting.
* :mod:`repro.queueing.mm1` — exact M/M/1 results.
* :mod:`repro.queueing.mmk` — exact M/M/k results (Erlang B/C, waiting and
  response-time distributions) and Whitt's conditional-wait approximation
  used in the paper's Lemma 3.1.
* :mod:`repro.queueing.ggk` — G/G/1 and G/G/k approximations: Kingman's
  bound and the Allen–Cunneen approximation with the Bolch et al.
  :math:`P_s` form used in the paper's Lemma 3.2.
* :mod:`repro.queueing.roots` — Brent's bracketed root finder, bit-identical
  to ``scipy.optimize.brentq``, for the percentile and cutoff solvers.

All models use SI units: rates in requests/second, times in seconds.
"""

from repro.queueing.base import (
    QueueModel,
    ensure_stable,
    utilization,
)
from repro.queueing.distributions import (
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    Uniform,
    fit_two_moments,
)
from repro.queueing.ggk import (
    GG1,
    GGk,
    allen_cunneen_wait,
    bolch_prob_wait,
    kingman_wait,
)
from repro.queueing.mg1 import MG1, mdk_wait
from repro.queueing.mm1 import MM1
from repro.queueing.mmck import MMcK
from repro.queueing.mmk import (
    MMk,
    erlang_b,
    erlang_c,
    whitt_conditional_wait,
)
from repro.queueing.tails import (
    gg_response_percentile,
    gg_wait_percentile,
    gg_wait_tail,
)

__all__ = [
    "QueueModel",
    "ensure_stable",
    "utilization",
    "Distribution",
    "Deterministic",
    "Empirical",
    "Erlang",
    "Exponential",
    "HyperExponential",
    "LogNormal",
    "Pareto",
    "Uniform",
    "fit_two_moments",
    "MM1",
    "MG1",
    "mdk_wait",
    "MMk",
    "MMcK",
    "erlang_b",
    "erlang_c",
    "whitt_conditional_wait",
    "GG1",
    "GGk",
    "allen_cunneen_wait",
    "bolch_prob_wait",
    "kingman_wait",
    "gg_wait_tail",
    "gg_wait_percentile",
    "gg_response_percentile",
]
