"""High-speed CMOS OTA performance model.

This module is the reproduction's stand-in for the paper's SPICE deck.  The
circuit is a symmetrical (current-mirror) OTA with a PMOS input pair in a
0.7 um, 5 V technology driving a 10 pF load -- the same class of circuit as
the paper's Figure 2, described in the operating-point-driven formulation
with 13 design variables (drain currents and transistor drive voltages).

Six performances are produced for every design point, matching the paper:

* ``ALF``      low-frequency gain (dB)
* ``fu``       unity-gain frequency (Hz)
* ``PM``       phase margin (degrees)
* ``voffset``  input-referred offset voltage (V)
* ``SRp``      positive slew rate (V/s)
* ``SRn``      negative slew rate (V/s, negative number)

The mapping uses standard hand-analysis expressions of the symmetrical OTA
evaluated on square-law device models, so the performances have the same
structural dependencies the paper's models discover: gains proportional to
``gm1/gds``, mirror ratios ``id2/id1``, slew rates set by currents over the
load capacitance, drive-voltage ratios of matched devices, and a nearly
constant offset.

Circuit topology (one half shown; the circuit is symmetrical):

* ``M1a/M1b``  PMOS input differential pair, each carrying ``id1``
* ``M5``       PMOS tail current source carrying ``2*id1``
* ``M2a/M2b``  NMOS first-stage loads / mirror inputs carrying ``id1``
* ``M6``       NMOS output mirror device carrying ``id2`` (ratio ``B=id2/id1``)
* ``M3``       PMOS mirror diode carrying ``id2``
* ``M4``       PMOS mirror output device carrying ``id2``
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.mosfet import Technology
from repro.circuits.opformulation import OperatingPointFormulation

__all__ = [
    "OTA_VARIABLE_NAMES",
    "OTA_NOMINAL_POINT",
    "OTA_PERFORMANCE_NAMES",
    "OtaPerformances",
    "phase_margin_from_poles",
    "SymmetricalOta",
    "simulate_ota_performances",
]

#: The 13 operating-point design variables (currents in A, voltages in V).
OTA_VARIABLE_NAMES: Tuple[str, ...] = (
    "id1",   # input-pair branch current
    "id2",   # output branch current
    "vsg1",  # PMOS input pair gate drive
    "vsd1",  # PMOS input pair source-drain voltage
    "vgs2",  # NMOS first-stage load gate drive
    "vds2",  # NMOS first-stage load drain-source voltage
    "vsg3",  # PMOS mirror diode gate drive
    "vsd3",  # PMOS mirror diode source-drain voltage
    "vsg4",  # PMOS mirror output gate drive
    "vgs6",  # NMOS output mirror gate drive
    "vds6",  # NMOS output device drain-source voltage
    "vsg5",  # PMOS tail source gate drive
    "vsd5",  # PMOS tail source-drain voltage
)

#: Nominal operating point around which the paper-style DOE is generated.
OTA_NOMINAL_POINT: Dict[str, float] = {
    "id1": 10e-6,
    "id2": 40e-6,
    "vsg1": 1.00,
    "vsd1": 1.20,
    "vgs2": 1.00,
    "vds2": 1.10,
    "vsg3": 1.00,
    "vsd3": 1.10,
    "vsg4": 1.00,
    "vgs6": 1.00,
    "vds6": 2.50,
    "vsg5": 1.05,
    "vsd5": 1.00,
}

#: Names of the six modeled performances, in the paper's order.
OTA_PERFORMANCE_NAMES: Tuple[str, ...] = ("ALF", "fu", "PM", "voffset", "SRp", "SRn")


def phase_margin_from_poles(unity_gain_hz: float,
                            nondominant_poles_hz: Sequence[float],
                            zeros_hz: Sequence[float] = ()) -> float:
    """Phase margin of a dominant-pole amplifier with extra poles and zeros.

    ``PM = 90 - sum(atan(fu/p_i)) + sum(atan(fu/z_i))`` in degrees.  Positive
    (left-half-plane) zeros add phase; this matches the standard hand
    analysis of current-mirror OTAs where the mirror pole/zero pair limits
    the phase margin.
    """
    if unity_gain_hz <= 0:
        raise ValueError("unity_gain_hz must be positive")
    margin = 90.0
    for pole in nondominant_poles_hz:
        if pole <= 0:
            raise ValueError("non-dominant poles must be positive frequencies")
        margin -= math.degrees(math.atan(unity_gain_hz / pole))
    for zero in zeros_hz:
        if zero <= 0:
            raise ValueError("zeros must be positive frequencies")
        margin += math.degrees(math.atan(unity_gain_hz / zero))
    return margin


@dataclasses.dataclass(frozen=True)
class OtaPerformances:
    """The six performance values of one OTA design point."""

    alf_db: float
    fu_hz: float
    pm_degrees: float
    voffset_v: float
    srp_v_per_s: float
    srn_v_per_s: float

    def as_dict(self) -> Dict[str, float]:
        """Map performance names (paper notation) to values."""
        return {
            "ALF": self.alf_db,
            "fu": self.fu_hz,
            "PM": self.pm_degrees,
            "voffset": self.voffset_v,
            "SRp": self.srp_v_per_s,
            "SRn": self.srn_v_per_s,
        }

    def __getitem__(self, name: str) -> float:
        return self.as_dict()[name]


class SymmetricalOta:
    """Symmetrical (current-mirror) OTA in the operating-point formulation."""

    def __init__(self, technology: Optional[Technology] = None,
                 load_capacitance: float = 10e-12,
                 mismatch_offset_v: float = -2.0e-3) -> None:
        self.technology = technology if technology is not None else Technology()
        if load_capacitance <= 0:
            raise ValueError("load capacitance must be positive")
        self.load_capacitance = load_capacitance
        #: constant (random-mismatch) component of the input-referred offset;
        #: the paper's voffset model is dominated by such a constant (-2 mV).
        self.mismatch_offset_v = mismatch_offset_v
        self._formulation = self._build_formulation()

    # ------------------------------------------------------------------
    def _build_formulation(self) -> OperatingPointFormulation:
        vdd = self.technology.vdd
        formulation = OperatingPointFormulation(self.technology)
        formulation.add_device("M1", "pmos", id="id1", vgs="vsg1", vds="vsd1")
        formulation.add_device("M2", "nmos", id="id1", vgs="vgs2", vds="vds2")
        formulation.add_device("M3", "pmos", id="id2", vgs="vsg3", vds="vsd3")
        formulation.add_device("M4", "pmos", id="id2", vgs="vsg4",
                               vds=lambda p: max(vdd - p["vds6"], 0.2))
        formulation.add_device("M6", "nmos", id="id2", vgs="vgs6", vds="vds6")
        formulation.add_device("M5", "pmos", id=lambda p: 2.0 * p["id1"],
                               vgs="vsg5", vds="vsd5")
        return formulation

    @property
    def formulation(self) -> OperatingPointFormulation:
        """The underlying operating-point formulation (device table)."""
        return self._formulation

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return OTA_VARIABLE_NAMES

    @property
    def nominal_point(self) -> Dict[str, float]:
        return dict(OTA_NOMINAL_POINT)

    # ------------------------------------------------------------------
    def validate_point(self, point: Mapping[str, float]) -> Dict[str, float]:
        """Check a design point and return it as a plain dict.

        Raises ``ValueError`` for missing variables, non-positive currents or
        gate drives below threshold (the analogue of a non-converging SPICE
        run in the paper's flow).
        """
        resolved: Dict[str, float] = {}
        for name in OTA_VARIABLE_NAMES:
            if name not in point:
                raise ValueError(f"design point is missing variable {name!r}")
            value = float(point[name])
            if not math.isfinite(value):
                raise ValueError(f"variable {name!r} is not finite")
            if value <= 0.0:
                raise ValueError(f"variable {name!r} must be positive, got {value}")
            resolved[name] = value
        return resolved

    # ------------------------------------------------------------------
    def performances(self, point: Mapping[str, float]) -> OtaPerformances:
        """Evaluate the six performances at one design point."""
        resolved = self.validate_point(point)
        devices = self._formulation.operating_points(resolved)
        m1 = devices["M1"]
        m2 = devices["M2"]
        m3 = devices["M3"]
        m4 = devices["M4"]
        m6 = devices["M6"]

        mirror_ratio = resolved["id2"] / resolved["id1"]

        # Output node: drains of M4 (PMOS mirror output) and M6 (NMOS output).
        gout = m4.gds + m6.gds
        cout = (self.load_capacitance + m4.cdb + m6.cdb + m4.cgd + m6.cgd)

        # Low-frequency gain: the differential input current gm1*vin is
        # mirrored with ratio B to the output and sees 1/gout.
        gain_linear = mirror_ratio * m1.gm / gout
        alf_db = 20.0 * math.log10(gain_linear)

        # Dominant pole at the output; fu = A0 * p1 (dominant-pole amplifier).
        fu_hz = mirror_ratio * m1.gm / (2.0 * math.pi * cout)

        # Non-dominant poles at the two mirror nodes, plus the mirror zero.
        c_node_nmos = m2.cgs + m6.cgs + m2.cdb + m1.cdb + m1.cgd
        pole_nmos_hz = m2.gm / (2.0 * math.pi * c_node_nmos)
        c_node_pmos = m3.cgs + m4.cgs + m3.cdb + m3.cgd
        pole_pmos_hz = m3.gm / (2.0 * math.pi * c_node_pmos)
        zero_mirror_hz = 2.0 * pole_nmos_hz
        pm_degrees = phase_margin_from_poles(
            fu_hz, [pole_nmos_hz, pole_pmos_hz], zeros_hz=[zero_mirror_hz])

        # Slew rates: the whole tail current (2*id1), scaled by the mirror
        # ratio, is available to charge/discharge the output capacitance.
        # The negative edge additionally has to slew the NMOS mirror node.
        slew_current = 2.0 * resolved["id1"] * mirror_ratio
        srp = slew_current / cout
        srn = -slew_current / (cout + m6.cgs + m2.cgs)

        # Input-referred offset: systematic component from the finite output
        # conductances of imperfectly matched mirror devices, plus a constant
        # random-mismatch term.  It stays in the low-mV range over the design
        # region, which is why the paper's model for voffset is a constant.
        systematic = -(
            m2.gds * (resolved["vds2"] - resolved["vgs6"])
            + m3.gds * (resolved["vsd3"] - resolved["vsg4"]) / mirror_ratio
        ) / m1.gm
        voffset = self.mismatch_offset_v + systematic

        return OtaPerformances(
            alf_db=alf_db,
            fu_hz=fu_hz,
            pm_degrees=pm_degrees,
            voffset_v=voffset,
            srp_v_per_s=srp,
            srn_v_per_s=srn,
        )


def simulate_ota_performances(
        points: np.ndarray,
        variable_names: Sequence[str] = OTA_VARIABLE_NAMES,
        ota: Optional[SymmetricalOta] = None) -> Dict[str, np.ndarray]:
    """Evaluate the OTA performances for a matrix of design points.

    Parameters
    ----------
    points:
        Array of shape ``(n_samples, n_variables)`` whose columns follow
        ``variable_names``.
    variable_names:
        Column names; must contain every entry of :data:`OTA_VARIABLE_NAMES`.
    ota:
        Circuit instance; a default :class:`SymmetricalOta` is used if omitted.

    Returns
    -------
    dict
        Maps each performance name (``"ALF"``, ``"fu"``, ...) to an array of
        length ``n_samples``.  Design points where the circuit cannot be
        biased (e.g. a drive voltage below threshold) produce NaN values, the
        analogue of the paper's non-converged SPICE samples.
    """
    ota = ota if ota is not None else SymmetricalOta()
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    names = list(variable_names)
    if points.shape[1] != len(names):
        raise ValueError("points and variable_names disagree on dimensionality")
    missing = set(OTA_VARIABLE_NAMES) - set(names)
    if missing:
        raise ValueError(f"missing OTA design variables: {sorted(missing)}")

    results = {name: np.full(points.shape[0], np.nan) for name in OTA_PERFORMANCE_NAMES}
    for row_index in range(points.shape[0]):
        point = dict(zip(names, points[row_index], strict=True))
        try:
            performances = ota.performances(point)
        except (ValueError, KeyError):
            continue  # leave NaN: non-converged sample
        for name, value in performances.as_dict().items():
            results[name][row_index] = value
    return results
