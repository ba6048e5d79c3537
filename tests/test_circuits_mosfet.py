"""Unit tests for the square-law MOSFET model."""

from __future__ import annotations

import pytest

from repro.circuits.mosfet import MosfetModel, Technology


class TestTechnology:
    def test_default_values_match_paper(self):
        tech = Technology()
        assert tech.vdd == pytest.approx(5.0)
        assert tech.vth_nmos == pytest.approx(0.76)
        assert tech.vth_pmos == pytest.approx(-0.75)

    def test_vth_and_kp_lookup(self):
        tech = Technology()
        assert tech.vth("nmos") == tech.vth_nmos
        assert tech.vth("pmos") == tech.vth_pmos
        assert tech.kp("nmos") > tech.kp("pmos")

    def test_lambda_scales_inversely_with_length(self):
        tech = Technology()
        short = tech.channel_length_modulation("nmos", 0.7)
        long = tech.channel_length_modulation("nmos", 1.4)
        assert short == pytest.approx(2.0 * long)

    def test_lambda_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Technology().channel_length_modulation("nmos", 0.0)


class TestForwardModel:
    def test_cutoff_has_zero_current(self):
        model = MosfetModel("nmos")
        assert model.drain_current(10.0, vgs=0.5, vds=1.0) == 0.0

    def test_saturation_current_square_law(self):
        model = MosfetModel("nmos")
        tech = model.technology
        width, vgs, vds = 10.0, 1.26, 2.0  # veff = 0.5
        expected = 0.5 * tech.kp_nmos * (width / 0.7) * 0.25 \
            * (1.0 + model.lam * vds)
        assert model.drain_current(width, vgs, vds) == pytest.approx(expected)

    def test_current_increases_with_width_and_vgs(self):
        model = MosfetModel("pmos")
        low = model.drain_current(10.0, 1.0, 2.0)
        assert model.drain_current(20.0, 1.0, 2.0) > low
        assert model.drain_current(10.0, 1.2, 2.0) > low

    def test_triode_current_below_saturation(self):
        model = MosfetModel("nmos")
        triode = model.drain_current(10.0, vgs=1.76, vds=0.2)
        saturation = model.drain_current(10.0, vgs=1.76, vds=2.0)
        assert 0.0 < triode < saturation

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            MosfetModel("nmos").drain_current(-1.0, 1.0, 1.0)

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            MosfetModel("njfet")


class TestOperatingPointModel:
    def test_width_realizes_requested_current(self):
        """The operating-point inversion must be consistent with the forward model."""
        model = MosfetModel("nmos")
        op = model.from_operating_point(id=100e-6, vgs=1.1, vds=1.5)
        forward = model.drain_current(op.width_um, vgs=1.1, vds=1.5)
        assert forward == pytest.approx(100e-6, rel=1e-9)

    def test_gm_matches_two_id_over_veff(self):
        model = MosfetModel("pmos")
        op = model.from_operating_point(id=40e-6, vgs=1.0, vds=1.2)
        assert op.gm == pytest.approx(2.0 * 40e-6 / op.veff)

    def test_larger_current_needs_wider_device(self):
        model = MosfetModel("nmos")
        narrow = model.from_operating_point(10e-6, 1.1, 1.0).width_um
        wide = model.from_operating_point(100e-6, 1.1, 1.0).width_um
        assert wide == pytest.approx(10.0 * narrow, rel=1e-9)

    def test_capacitances_scale_with_width(self):
        model = MosfetModel("nmos")
        small = model.from_operating_point(10e-6, 1.1, 1.0)
        large = model.from_operating_point(100e-6, 1.1, 1.0)
        assert large.cgs == pytest.approx(10.0 * small.cgs, rel=1e-9)
        assert large.cdb > small.cdb

    def test_subthreshold_bias_rejected(self):
        model = MosfetModel("nmos")
        with pytest.raises(ValueError):
            model.from_operating_point(id=1e-6, vgs=0.5, vds=1.0)

    def test_nonpositive_current_rejected(self):
        with pytest.raises(ValueError):
            MosfetModel("nmos").from_operating_point(id=0.0, vgs=1.2, vds=1.0)

    def test_intrinsic_gain_reasonable(self):
        op = MosfetModel("nmos").from_operating_point(20e-6, 1.0, 2.0)
        assert 10.0 < op.gm / op.gds < 1000.0
