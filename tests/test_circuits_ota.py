"""Tests for the OTA performance model and its small-signal cross-check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.opformulation import OperatingPointFormulation
from repro.circuits.ota import (
    OTA_NOMINAL_POINT,
    OTA_PERFORMANCE_NAMES,
    OTA_VARIABLE_NAMES,
    SymmetricalOta,
    simulate_ota_performances,
)

import oracles


class TestOperatingPointFormulation:
    def test_devices_resolved_from_point(self):
        formulation = OperatingPointFormulation()
        formulation.add_device("M1", "nmos", id="ibias", vgs="vgs1", vds="vds1")
        formulation.add_device("M2", "pmos", id=lambda p: 2 * p["ibias"],
                               vgs=1.0, vds="vds1")
        point = {"ibias": 20e-6, "vgs1": 1.1, "vds1": 1.5}
        ops = formulation.operating_points(point)
        assert ops["M1"].id == pytest.approx(20e-6)
        assert ops["M2"].id == pytest.approx(40e-6)

    def test_missing_variable_raises(self):
        formulation = OperatingPointFormulation()
        formulation.add_device("M1", "nmos", id="ibias", vgs="vgs1", vds="vds1")
        with pytest.raises(KeyError):
            formulation.operating_points({"ibias": 1e-6, "vgs1": 1.0})

    def test_duplicate_device_rejected(self):
        formulation = OperatingPointFormulation()
        formulation.add_device("M1", "nmos", id=1e-6, vgs=1.0, vds=1.0)
        with pytest.raises(ValueError):
            formulation.add_device("M1", "pmos", id=1e-6, vgs=1.0, vds=1.0)

    def test_widths_positive(self):
        ota = SymmetricalOta()
        widths = {name: op.width_um for name, op in
                  ota.formulation.operating_points(OTA_NOMINAL_POINT).items()}
        assert set(widths) == {"M1", "M2", "M3", "M4", "M5", "M6"}
        assert all(w > 0 for w in widths.values())


class TestNominalPerformances:
    def test_nominal_point_is_complete(self):
        assert set(OTA_NOMINAL_POINT) == set(OTA_VARIABLE_NAMES)
        assert len(OTA_VARIABLE_NAMES) == 13

    def test_nominal_values_physically_sensible(self):
        ota = SymmetricalOta()
        perf = ota.performances(OTA_NOMINAL_POINT)
        assert 20.0 < perf.alf_db < 60.0            # tens of dB of gain
        assert 1e6 < perf.fu_hz < 5e7               # MHz-range bandwidth
        assert 60.0 < perf.pm_degrees < 95.0        # stable amplifier
        assert abs(perf.voffset_v) < 20e-3          # millivolt offset
        assert perf.srp_v_per_s > 1e6               # V/us slew rates
        assert perf.srn_v_per_s < -1e6
        assert abs(abs(perf.srn_v_per_s) - perf.srp_v_per_s) \
            < 0.5 * perf.srp_v_per_s

    def test_as_dict_uses_paper_names(self):
        perf = SymmetricalOta().performances(OTA_NOMINAL_POINT)
        assert set(perf.as_dict()) == set(OTA_PERFORMANCE_NAMES)
        assert perf["PM"] == perf.pm_degrees


class TestPerformanceTrends:
    """The structural dependencies the paper's models discover must hold."""

    def test_gain_follows_input_drive_and_output_voltages(self):
        ota = SymmetricalOta()
        base = ota.performances(OTA_NOMINAL_POINT)
        # Larger input gate drive means lower gm/Id, hence lower gain (and a
        # lower unity-gain frequency, since fu is proportional to gm1).
        weaker_input = ota.performances(dict(OTA_NOMINAL_POINT, vsg1=1.20))
        assert weaker_input.alf_db < base.alf_db
        assert weaker_input.fu_hz < base.fu_hz

    def test_gain_is_ratiometric_in_currents(self):
        """With drive voltages fixed, scaling both currents leaves the
        square-law gain unchanged -- the hand-analysis expectation for the
        operating-point-driven formulation."""
        ota = SymmetricalOta()
        base = ota.performances(OTA_NOMINAL_POINT)
        scaled = ota.performances(dict(OTA_NOMINAL_POINT,
                                       id1=2.0 * OTA_NOMINAL_POINT["id1"],
                                       id2=2.0 * OTA_NOMINAL_POINT["id2"]))
        assert scaled.alf_db == pytest.approx(base.alf_db, abs=1.0)

    def test_slew_rate_proportional_to_output_current(self):
        ota = SymmetricalOta()
        base = ota.performances(OTA_NOMINAL_POINT)
        doubled = ota.performances(dict(OTA_NOMINAL_POINT,
                                        id2=2.0 * OTA_NOMINAL_POINT["id2"]))
        assert doubled.srp_v_per_s > 1.7 * base.srp_v_per_s

    def test_unity_gain_frequency_increases_with_gm(self):
        ota = SymmetricalOta()
        base = ota.performances(OTA_NOMINAL_POINT)
        more_gm = ota.performances(dict(OTA_NOMINAL_POINT,
                                        id1=1.5 * OTA_NOMINAL_POINT["id1"],
                                        id2=1.5 * OTA_NOMINAL_POINT["id2"]))
        assert more_gm.fu_hz > base.fu_hz

    def test_larger_load_lowers_bandwidth_and_slew(self):
        big_load = SymmetricalOta(load_capacitance=20e-12)
        small_load = SymmetricalOta(load_capacitance=10e-12)
        slow = big_load.performances(OTA_NOMINAL_POINT)
        fast = small_load.performances(OTA_NOMINAL_POINT)
        assert slow.fu_hz < fast.fu_hz
        assert slow.srp_v_per_s < fast.srp_v_per_s


class TestValidation:
    def test_missing_variable_rejected(self):
        ota = SymmetricalOta()
        incomplete = {k: v for k, v in OTA_NOMINAL_POINT.items() if k != "vsg1"}
        with pytest.raises(ValueError):
            ota.performances(incomplete)

    def test_nonpositive_variable_rejected(self):
        ota = SymmetricalOta()
        with pytest.raises(ValueError):
            ota.performances(dict(OTA_NOMINAL_POINT, id1=-1e-6))

    def test_subthreshold_drive_rejected(self):
        ota = SymmetricalOta()
        with pytest.raises(ValueError):
            ota.performances(dict(OTA_NOMINAL_POINT, vsg1=0.3))

    def test_invalid_load_capacitance(self):
        with pytest.raises(ValueError):
            SymmetricalOta(load_capacitance=0.0)


class TestBatchSimulation:
    def test_matrix_interface(self):
        points = np.array([[OTA_NOMINAL_POINT[k] for k in OTA_VARIABLE_NAMES]] * 4)
        results = simulate_ota_performances(points)
        assert set(results) == set(OTA_PERFORMANCE_NAMES)
        for values in results.values():
            assert values.shape == (4,)
            assert np.all(np.isfinite(values))
            assert np.allclose(values, values[0])

    def test_unbiasable_sample_yields_nan(self):
        good = [OTA_NOMINAL_POINT[k] for k in OTA_VARIABLE_NAMES]
        bad = list(good)
        bad[OTA_VARIABLE_NAMES.index("vsg1")] = 0.2  # below threshold
        results = simulate_ota_performances(np.array([good, bad]))
        assert np.isfinite(results["ALF"][0])
        assert np.isnan(results["ALF"][1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_ota_performances(np.ones((2, 5)))


class TestCrossValidationAgainstMna:
    """The analytic performances must agree with the OTA's small-signal
    circuit, solved by the linear AC reference in ``tests/oracles.py``."""

    #: the reference's readouts at OTA_NOMINAL_POINT (ALF dB, fu Hz, PM deg)
    NOMINAL_READOUTS = (33.731455551598565, 4921215.664687857,
                        90.59834172911079)

    @pytest.fixture(scope="class")
    def responses(self):
        ota = SymmetricalOta()
        analytic = ota.performances(OTA_NOMINAL_POINT)
        netlist = oracles.ota_small_signal_netlist(ota, OTA_NOMINAL_POINT)
        freqs = oracles.OTA_SWEEP_HZ
        response = oracles.ac_solve(netlist, "out", freqs)
        numeric = (oracles.dc_gain_db(response),
                   oracles.unity_gain_frequency(freqs, response),
                   oracles.phase_margin(freqs, response))
        return analytic, numeric

    def test_reference_readouts_are_pinned(self, responses):
        _analytic, numeric = responses
        np.testing.assert_allclose(numeric, self.NOMINAL_READOUTS, rtol=1e-12)

    def test_low_frequency_gain_matches(self, responses):
        analytic, (alf_db, _fu, _pm) = responses
        assert alf_db == pytest.approx(analytic.alf_db, abs=1.0)

    def test_unity_gain_frequency_matches(self, responses):
        analytic, (_alf, fu_hz, _pm) = responses
        assert fu_hz == pytest.approx(analytic.fu_hz, rel=0.10)

    def test_phase_margin_matches(self, responses):
        analytic, (_alf, _fu, pm_degrees) = responses
        assert pm_degrees == pytest.approx(analytic.pm_degrees, abs=5.0)
