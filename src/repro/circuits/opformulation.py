"""Operating-point-driven circuit formulation.

The paper samples the OTA's design space in the *operating-point-driven
formulation* of Leyn et al. (ICCAD'98): the design variables are drain
currents and transistor drive voltages rather than device sizes.  Given a
design point in those variables, every device's geometry and small-signal
parameters follow directly from the square-law model
(:meth:`repro.circuits.mosfet.MosfetModel.from_operating_point`).

:class:`OperatingPointFormulation` is the generic machinery: it maps named
design variables onto per-device ``(id, vgs, vds)`` triples, optionally
through arbitrary expressions of the design point (e.g. "the tail device
carries ``2 * id1``"), and produces a dictionary of device operating points.
The OTA-specific wiring lives in :mod:`repro.circuits.ota`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from repro.circuits.mosfet import MosfetModel, MosfetOperatingPoint, Technology

__all__ = ["DeviceSpec", "OperatingPointFormulation"]

#: A quantity is either the name of a design variable or a callable computing
#: it from the full design point.
Quantity = "str | Callable[[Mapping[str, float]], float]"


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """How one transistor's bias derives from the design variables.

    Each of ``id``, ``vgs`` and ``vds`` is either the name of a design
    variable or a callable mapping the design-point dictionary to a value.
    """

    name: str
    polarity: str
    id: object
    vgs: object
    vds: object
    length_um: Optional[float] = None

    def resolve(self, point: Mapping[str, float]) -> Tuple[float, float, float]:
        """Resolve ``(id, vgs, vds)`` values for a concrete design point."""
        def value(quantity: object, label: str) -> float:
            if callable(quantity):
                return float(quantity(point))
            if isinstance(quantity, str):
                if quantity not in point:
                    raise KeyError(
                        f"device {self.name!r}: design point has no variable "
                        f"{quantity!r} (needed for {label})"
                    )
                return float(point[quantity])
            return float(quantity)  # numeric literal

        return (value(self.id, "id"), value(self.vgs, "vgs"),
                value(self.vds, "vds"))


class OperatingPointFormulation:
    """Maps design points (currents / drive voltages) to device operating points."""

    def __init__(self, technology: Optional[Technology] = None) -> None:
        self.technology = technology if technology is not None else Technology()
        self._specs: Dict[str, DeviceSpec] = {}

    # ------------------------------------------------------------------
    def add_device(self, name: str, polarity: str, id: object, vgs: object,
                   vds: object, length_um: Optional[float] = None) -> DeviceSpec:
        """Register a device; returns its spec.

        ``id``, ``vgs`` and ``vds`` may be design-variable names, numeric
        constants, or callables of the design-point dictionary.
        """
        if name in self._specs:
            raise ValueError(f"duplicate device name {name!r}")
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {polarity!r}")
        spec = DeviceSpec(name=name, polarity=polarity, id=id, vgs=vgs, vds=vds,
                          length_um=length_um)
        self._specs[name] = spec
        return spec

    def spec(self, name: str) -> DeviceSpec:
        return self._specs[name]

    # ------------------------------------------------------------------
    def operating_points(self, point: Mapping[str, float]
                         ) -> Dict[str, MosfetOperatingPoint]:
        """Operating points of all registered devices at a design point.

        Raises ``ValueError`` if any device would be biased below threshold or
        with a non-positive current -- the analogue of a non-converging SPICE
        sample in the paper's data-generation flow.
        """
        result: Dict[str, MosfetOperatingPoint] = {}
        for name, spec in self._specs.items():
            id_value, vgs_value, vds_value = spec.resolve(point)
            model = MosfetModel(spec.polarity, technology=self.technology,
                                length_um=spec.length_um)
            result[name] = model.from_operating_point(id_value, vgs_value, vds_value)
        return result
