"""Tests for the small-signal AC reference and the phase-margin formula.

The reference in ``tests/oracles.py`` (:func:`oracles.ac_solve` and its
``ALF``/``fu``/``PM`` readouts) is what the OTA cross-check compares the
analytic model against, so it is checked here on circuits and responses
with known answers.  :func:`phase_margin_from_poles` is the production
formula behind the analytic ``PM``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.ota import phase_margin_from_poles

from oracles import ac_solve, dc_gain_db, phase_margin, unity_gain_frequency


class TestMna:
    def test_voltage_divider(self):
        divider = (("V", ("a", "0"), 2.0),
                   ("R", ("a", "b"), 1e3),
                   ("R", ("b", "0"), 3e3))
        response = ac_solve(divider, "b", [0.0, 1.0, 1e6])
        np.testing.assert_allclose(response, 1.5, rtol=1e-12)


class TestAcAnalysis:
    def test_rc_lowpass_corner(self):
        resistance, capacitance = 1e3, 1e-9  # corner at ~159 kHz
        lowpass = (("V", ("in", "0"), 1.0),
                   ("R", ("in", "out"), resistance),
                   ("C", ("out", "0"), capacitance))
        corner = 1.0 / (2 * np.pi * resistance * capacitance)
        response = ac_solve(lowpass, "out", [corner / 100, corner])
        assert abs(response[0]) == pytest.approx(1.0, abs=1e-3)
        assert abs(response[1]) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-3)
        assert np.angle(response[1], deg=True) == pytest.approx(-45.0)


class TestPerformanceExtraction:
    def test_gain_db(self):
        assert dc_gain_db(np.array([10.0 + 0j, 1.0])) == pytest.approx(20.0)
        assert dc_gain_db(np.array([-10j, 1.0])) == pytest.approx(20.0)

    def test_single_pole_response_metrics(self):
        gain, pole = 1000.0, 1e3
        freqs = np.logspace(0, 8, 400)
        response = gain / (1.0 + 1j * freqs / pole)
        assert dc_gain_db(response) == pytest.approx(60.0, abs=1e-3)
        assert unity_gain_frequency(freqs, response) == pytest.approx(
            gain * pole, rel=0.02)
        assert phase_margin(freqs, response) == pytest.approx(90.0, abs=1.0)

    def test_no_unity_crossing_gives_nan(self):
        freqs = np.logspace(0, 3, 50)
        response = 0.5 / (1.0 + 1j * freqs / 1e2)
        assert np.isnan(unity_gain_frequency(freqs, response))
        assert np.isnan(phase_margin(freqs, response))
        # Starting above unity but never reaching it inside the sweep.
        assert np.isnan(unity_gain_frequency(freqs, 100.0 * response))

    def test_pole_based_formulas(self):
        pm = phase_margin_from_poles(1e6, [1e7])
        assert pm == pytest.approx(90.0 - np.degrees(np.arctan(0.1)), rel=1e-6)
        pm_with_zero = phase_margin_from_poles(1e6, [1e7], zeros_hz=[1e7])
        assert pm_with_zero == pytest.approx(90.0, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            phase_margin_from_poles(0.0, [1e7])
        with pytest.raises(ValueError):
            phase_margin_from_poles(1e6, [-1.0])
        with pytest.raises(ValueError):
            phase_margin_from_poles(1e6, [1e7], zeros_hz=[0.0])
