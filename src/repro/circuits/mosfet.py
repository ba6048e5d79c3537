"""Square-law MOSFET model (SPICE level-1 style) with small-signal parameters.

The paper's data comes from SPICE simulations of a 0.7 um CMOS OTA with a 5 V
supply and nominal threshold voltages of 0.76 V (NMOS) and -0.75 V (PMOS).
This module provides the device model behind the reproduction's OTA
performance model: a long-channel square-law model with channel-length
modulation, which is the standard hand-analysis model for this technology
node and captures exactly the structural dependencies (gm, gds,
capacitances vs. bias) that make the OTA performances nonlinear functions
of the operating-point variables.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

__all__ = ["Technology", "MosfetModel", "MosfetOperatingPoint"]

Polarity = Literal["nmos", "pmos"]


@dataclasses.dataclass(frozen=True)
class Technology:
    """Process parameters of a (simplified) 0.7 um CMOS technology.

    Values are representative of the paper's technology: 5 V supply,
    ``Vth = 0.76 V`` (NMOS) / ``-0.75 V`` (PMOS), 10 pF load capacitance in
    the testbench.
    """

    vdd: float = 5.0
    vth_nmos: float = 0.76
    vth_pmos: float = -0.75
    #: transconductance parameters KP = mu * Cox  [A/V^2]
    kp_nmos: float = 100e-6
    kp_pmos: float = 35e-6
    #: channel-length modulation per unit length  [1/(V*um)]
    lambda_per_um_nmos: float = 0.06
    lambda_per_um_pmos: float = 0.08
    #: gate-oxide capacitance per area  [F/um^2]
    cox: float = 2.3e-15
    #: gate-drain/gate-source overlap capacitance per width  [F/um]
    c_overlap: float = 0.2e-15
    #: junction capacitance per width (drain/source to bulk)  [F/um]
    c_junction: float = 0.6e-15
    #: minimum / default channel length  [um]
    l_min: float = 0.7

    def vth(self, polarity: Polarity) -> float:
        """Threshold voltage (signed) for the given polarity."""
        return self.vth_nmos if polarity == "nmos" else self.vth_pmos

    def kp(self, polarity: Polarity) -> float:
        """Process transconductance KP for the given polarity."""
        return self.kp_nmos if polarity == "nmos" else self.kp_pmos

    def channel_length_modulation(self, polarity: Polarity, length_um: float) -> float:
        """Channel-length modulation coefficient lambda for a given L."""
        if length_um <= 0:
            raise ValueError("channel length must be positive")
        per_um = (self.lambda_per_um_nmos if polarity == "nmos"
                  else self.lambda_per_um_pmos)
        return per_um / length_um


@dataclasses.dataclass(frozen=True)
class MosfetOperatingPoint:
    """Bias point and small-signal parameters of one MOSFET.

    All quantities follow the usual sign conventions of hand analysis with
    *magnitudes* for the PMOS drive voltages: ``veff = |vgs| - |vth| > 0`` in
    saturation.
    """

    polarity: Polarity
    id: float
    vgs: float
    vds: float
    veff: float
    region: str
    gm: float
    gds: float
    width_um: float
    length_um: float
    cgs: float
    cgd: float
    cdb: float


class MosfetModel:
    """Square-law MOSFET with channel-length modulation.

    Two usage modes are provided:

    * **Forward** (:meth:`drain_current`): given geometry ``(W, L)`` and
      terminal voltages, compute the drain current -- the forward model the
      operating-point inversion is checked against.
    * **Operating-point driven** (:meth:`from_operating_point`): given the
      design variables of the paper's formulation (drain current and gate
      drive voltage, plus drain-source voltage), compute the implied device
      geometry and small-signal parameters -- used by the OTA performance
      model and mirrors the operating-point-driven sizing of Leyn et al.
    """

    def __init__(self, polarity: Polarity, technology: Technology | None = None,
                 length_um: float | None = None) -> None:
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {polarity!r}")
        self.polarity: Polarity = polarity
        self.technology = technology if technology is not None else Technology()
        self.length_um = float(length_um if length_um is not None
                               else self.technology.l_min)
        if self.length_um <= 0:
            raise ValueError("channel length must be positive")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def vth_magnitude(self) -> float:
        """Magnitude of the threshold voltage."""
        return abs(self.technology.vth(self.polarity))

    @property
    def kp(self) -> float:
        return self.technology.kp(self.polarity)

    @property
    def lam(self) -> float:
        """Channel-length modulation coefficient for this device's length."""
        return self.technology.channel_length_modulation(self.polarity, self.length_um)

    def _capacitances(self, width_um: float) -> tuple[float, float, float]:
        """(cgs, cgd, cdb) for a device of the given width in saturation."""
        tech = self.technology
        cgs = (2.0 / 3.0) * width_um * self.length_um * tech.cox \
            + width_um * tech.c_overlap
        cgd = width_um * tech.c_overlap
        cdb = width_um * tech.c_junction
        return cgs, cgd, cdb

    # ------------------------------------------------------------------
    # forward model: geometry + voltages -> current
    # ------------------------------------------------------------------
    def drain_current(self, width_um: float, vgs: float, vds: float) -> float:
        """Drain current magnitude for the given geometry and bias magnitudes.

        ``vgs`` and ``vds`` are magnitudes (positive for a conducting device
        of either polarity).  Cut-off, triode and saturation are handled; the
        triode/saturation boundary is the usual ``vds = veff``.
        """
        if width_um <= 0:
            raise ValueError("width must be positive")
        veff = vgs - self.vth_magnitude
        if veff <= 0.0:
            return 0.0
        beta = self.kp * width_um / self.length_um
        vds = max(vds, 0.0)
        if vds < veff:  # triode
            return beta * (veff * vds - 0.5 * vds * vds) * (1.0 + self.lam * vds)
        return 0.5 * beta * veff * veff * (1.0 + self.lam * vds)

    # ------------------------------------------------------------------
    # operating-point-driven model: (id, vgs, vds) -> geometry + small signal
    # ------------------------------------------------------------------
    def width_for_operating_point(self, id: float, vgs: float, vds: float) -> float:
        """Device width (um) that carries ``id`` at the given bias in saturation."""
        if id <= 0:
            raise ValueError("drain current must be positive")
        veff = vgs - self.vth_magnitude
        if veff <= 0:
            raise ValueError(
                f"gate drive {vgs:.3f} V does not exceed |Vth|={self.vth_magnitude:.3f} V"
            )
        vds_sat = max(vds, veff)  # operating-point formulation keeps devices saturated
        denom = 0.5 * self.kp * veff * veff * (1.0 + self.lam * vds_sat)
        return id * self.length_um / denom

    def from_operating_point(self, id: float, vgs: float, vds: float
                             ) -> MosfetOperatingPoint:
        """Operating point from the paper's design variables.

        Given the drain current ``id`` and gate drive ``vgs`` (both magnitudes,
        as in the operating-point-driven formulation), plus the drain-source
        voltage magnitude ``vds``, compute the device width that realizes this
        bias and the resulting small-signal parameters.  The device is assumed
        saturated; if ``vds`` is below ``veff`` the saturation value is used
        for the current equation (the paper's formulation enforces saturation
        by construction).
        """
        if id <= 0:
            raise ValueError("drain current must be positive")
        veff = vgs - self.vth_magnitude
        if veff <= 0:
            raise ValueError(
                f"gate drive {vgs:.3f} V does not exceed |Vth|={self.vth_magnitude:.3f} V"
            )
        width = self.width_for_operating_point(id, vgs, vds)
        vds_eff = max(vds, veff)
        gm = 2.0 * id / veff
        gds = self.lam * id / (1.0 + self.lam * vds_eff)
        cgs, cgd, cdb = self._capacitances(width)
        region = "saturation" if vds >= veff else "saturation (forced)"
        return MosfetOperatingPoint(
            polarity=self.polarity, id=id, vgs=vgs, vds=vds, veff=veff,
            region=region, gm=gm, gds=max(gds, 1e-12), width_um=width,
            length_um=self.length_um, cgs=cgs, cgd=cgd, cdb=cdb,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MosfetModel({self.polarity}, L={self.length_um:.2f}um, "
            f"KP={self.kp:.3g}, |Vth|={self.vth_magnitude:.2f}V)"
        )
