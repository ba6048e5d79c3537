"""Analog-circuit performance substrate.

The paper trains CAFFEINE on SPICE simulation data of a high-speed CMOS OTA
in a 0.7 um technology.  SPICE and the authors' proprietary deck are not
available here, so this package provides the closest equivalent that
exercises the same code paths:

* a **device level**: square-law (SPICE level-1 style) MOSFET model with
  channel-length modulation, small-signal parameters and capacitances
  (:mod:`repro.circuits.mosfet`);
* a **circuit level**: the operating-point-driven formulation of the OTA and
  the analytic expressions of the six performances modeled in the paper --
  low-frequency gain ``ALF``, unity-gain frequency ``fu``, phase margin
  ``PM``, input-referred offset ``voffset`` and the slew rates ``SRp`` /
  ``SRn`` (:mod:`repro.circuits.ota`, :mod:`repro.circuits.opformulation`).

The experiments use this analytic operating-point model of the OTA to
generate the 243-sample training and testing tables.  The test suite
cross-checks its ``ALF``, ``fu`` and ``PM`` against a linear AC solve of
the OTA's small-signal netlist.
"""

from repro.circuits.mosfet import MosfetModel, MosfetOperatingPoint, Technology
from repro.circuits.ota import (
    OTA_NOMINAL_POINT,
    OTA_VARIABLE_NAMES,
    OtaPerformances,
    SymmetricalOta,
    simulate_ota_performances,
)
from repro.circuits.opformulation import OperatingPointFormulation

__all__ = [
    "MosfetModel",
    "MosfetOperatingPoint",
    "Technology",
    "OTA_VARIABLE_NAMES",
    "OTA_NOMINAL_POINT",
    "OtaPerformances",
    "SymmetricalOta",
    "simulate_ota_performances",
    "OperatingPointFormulation",
]
