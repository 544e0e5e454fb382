"""The Amdahl cost model fit from measured step times.

Pins the contracts of :class:`repro.runtime.amdahl.AmdahlCostModel`:
the fit recovers known coefficients, stays non-negative on anti-Amdahl
data, predictions carry honest uncertainty bands, and a model without
data answers with the caller's prior.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.amdahl import AmdahlCostModel


def test_amdahl_fit_recovers_known_coefficients():
    model = AmdahlCostModel(n0=1000)
    serial, parallel = 2.0, 8.0
    # Two sizes separate the serial term from the constant overhead
    # (at fixed N they are collinear by construction).
    for n in (1000, 2000):
        for w in (1, 2, 4, 8):
            model.observe(n, w, (serial + parallel / w) * (n / 1000))
    model.fit()
    assert model.serial_s == pytest.approx(serial, rel=1e-6)
    assert model.parallel_s == pytest.approx(parallel, rel=1e-6)
    assert model.constant_s == pytest.approx(0.0, abs=1e-9)
    assert model.serial_fraction(1000) == pytest.approx(0.2, rel=1e-6)
    # Perfect data -> exact prediction at an unseen (N, w) corner.
    pred = model.predict(4000, workers=16)
    assert pred.t_seconds == pytest.approx(
        (serial + parallel / 16) * 4.0, rel=1e-6
    )
    assert pred.source == "amdahl"


def test_amdahl_fit_scales_with_n():
    model = AmdahlCostModel(n0=100)
    for n in (100, 200, 400):
        for w in (1, 2):
            model.observe(n, w, (1.0 + 4.0 / w) * (n / 100))
    model.fit()
    pred = model.predict(800, workers=4)
    assert pred.t_seconds == pytest.approx((1.0 + 4.0 / 4) * 8.0, rel=1e-5)


def test_nonnegativity_by_column_dropping():
    """Anti-Amdahl data (slower with more workers) must not fit a
    negative parallel coefficient."""
    model = AmdahlCostModel(n0=100)
    for w, t in ((1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0)):
        model.observe(100, w, t)
    model.fit()
    assert model.serial_s >= 0.0
    assert model.parallel_s >= 0.0
    assert model.constant_s >= 0.0


def test_prediction_interval_brackets_noise():
    rng = np.random.default_rng(0)
    model = AmdahlCostModel(n0=1000)
    times = 5.0 + rng.normal(0.0, 0.25, size=40)
    for t in times:
        model.observe(1000, 1, max(0.0, float(t)))
    pred = model.predict(1000, workers=1)
    assert pred.sigma_seconds > 0.0 and math.isfinite(pred.sigma_seconds)
    assert pred.lo_seconds < pred.t_seconds < pred.hi_seconds
    assert pred.t_seconds == pytest.approx(5.0, abs=0.2)
    assert 5.0 in pred  # the truth sits inside the ~95% band


def test_cold_model_returns_prior():
    pred = AmdahlCostModel().predict(100, prior_s=1.25)
    assert pred.source == "prior"
    assert pred.t_seconds == 1.25
    assert pred.lo_seconds == -math.inf and pred.hi_seconds == math.inf
    assert pred.n_observations == 0


def test_bad_observation_rejected():
    model = AmdahlCostModel()
    with pytest.raises(ValueError):
        model.observe(100, 1, float("nan"))
    with pytest.raises(ValueError):
        model.observe(100, 1, -1.0)
