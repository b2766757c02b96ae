"""Derivation operators: programs that turn tuple sets into derived tuple sets.

Section III-B: "many data sets are derived from others as analysis steps
are performed.  The provenance of a derived data set is the provenance
of the original data plus the provenance of the tools used to do the
derivation."  The operators here are those tools.  Every operator:

* is described by an :class:`~repro.core.provenance.Agent` (name +
  version + parameters), so the deriving program is part of provenance,
* produces tuple sets whose provenance lists every input PName as an
  ancestor, so the lineage DAG records exactly what happened,
* stamps the derived set's attributes with the operator's ``stage``
  label and parameters, so attribute queries can find "tuple sets
  handled by a particular postprocessing program".

Operators provided: filtering, per-window aggregation, multi-set
merging/amalgamation, calibration (value correction), and temporal
roll-up across windows.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.attributes import AttributeValue, Timestamp
from repro.core.provenance import Agent, merge_provenance
from repro.core.tupleset import SensorReading, TupleSet
from repro.errors import ConfigurationError

__all__ = [
    "DerivationOperator",
    "FilterOperator",
    "AggregateOperator",
    "MergeOperator",
    "CalibrationOperator",
    "RollupOperator",
]


class DerivationOperator:
    """Base class: a named, versioned program that derives tuple sets.

    Parameters
    ----------
    name / version:
        Identify the program in provenance.
    parameters:
        The program's configuration; recorded both in the agent metadata
        and (prefixed with ``param_``) in the derived set's attributes.
    """

    #: attribute value written into ``stage`` on every derived set
    stage = "derived"

    #: context attributes copied from the first input onto every derived set
    DEFAULT_CARRY = ("domain", "network", "location", "window_start", "window_end")

    def __init__(
        self,
        name: str,
        version: str = "1.0",
        parameters: Optional[Mapping[str, AttributeValue]] = None,
        carry_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise ConfigurationError("operator name must be non-empty")
        self.name = name
        self.version = version
        self.parameters = dict(parameters or {})
        self.agent = Agent("program", name, version, metadata=self.parameters)
        self.applications = 0
        extra = tuple(carry_attributes or ())
        self.carry_attributes = tuple(dict.fromkeys(self.DEFAULT_CARRY + extra))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, tuple_set: TupleSet) -> TupleSet:
        """Derive a new tuple set from a single input."""
        readings = self._transform(tuple_set.readings)
        attributes = self._derived_attributes([tuple_set])
        record = tuple_set.provenance.derive(attributes, agent=self.agent)
        self.applications += 1
        return TupleSet(readings, record)

    def apply_many(self, tuple_sets: Sequence[TupleSet]) -> TupleSet:
        """Derive a single new tuple set from several inputs (fan-in)."""
        if not tuple_sets:
            raise ConfigurationError("apply_many needs at least one input tuple set")
        readings: List[SensorReading] = []
        for tuple_set in tuple_sets:
            readings.extend(tuple_set.readings)
        transformed = self._transform(readings)
        attributes = self._derived_attributes(tuple_sets)
        record = merge_provenance(
            attributes, [tuple_set.provenance for tuple_set in tuple_sets], agent=self.agent
        )
        self.applications += 1
        return TupleSet(transformed, record)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _transform(self, readings: Sequence[SensorReading]) -> List[SensorReading]:
        """Turn input readings into output readings (identity by default)."""
        return list(readings)

    def _derived_attributes(self, inputs: Sequence[TupleSet]) -> Dict[str, AttributeValue]:
        """Attributes of the derived set; subclasses extend the base set."""
        first = inputs[0].provenance
        attributes: Dict[str, AttributeValue] = {}
        # Carry forward the descriptive context of the first input so the
        # derived data remains findable by domain/network/location (and any
        # extra keys the caller asked to preserve, e.g. patient or city).
        for key in self.carry_attributes:
            value = first.get(key)
            if value is not None:
                attributes[key] = value
        attributes["stage"] = self.stage
        attributes["operator"] = self.name
        attributes["operator_version"] = self.version
        attributes["input_count"] = len(inputs)
        for key, value in self.parameters.items():
            attributes[f"param_{key}"] = value
        return attributes


class FilterOperator(DerivationOperator):
    """Keeps only readings matching a predicate (e.g. plausible speeds)."""

    stage = "filtered"

    def __init__(
        self,
        name: str,
        predicate: Callable[[SensorReading], bool],
        version: str = "1.0",
        parameters: Optional[Mapping[str, AttributeValue]] = None,
        carry_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, version, parameters, carry_attributes)
        self._predicate = predicate

    def _transform(self, readings: Sequence[SensorReading]) -> List[SensorReading]:
        return [reading for reading in readings if self._predicate(reading)]


class AggregateOperator(DerivationOperator):
    """Collapses readings into per-quantity summary statistics.

    The derived set carries one reading per input sensor-quantity pair is
    overkill for the paper's use cases; instead it emits a single summary
    reading whose values are ``<quantity>_mean`` / ``_min`` / ``_max`` /
    ``_count`` across all inputs, which is what "aggregated over time to
    estimate the effects of changing Zone size" style analyses consume.
    """

    stage = "aggregated"

    def __init__(
        self,
        name: str = "aggregator",
        version: str = "1.0",
        quantities: Optional[Sequence[str]] = None,
        parameters: Optional[Mapping[str, AttributeValue]] = None,
        carry_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, version, parameters, carry_attributes)
        self._quantities = list(quantities) if quantities is not None else None

    def _transform(self, readings: Sequence[SensorReading]) -> List[SensorReading]:
        if not readings:
            return []
        samples: Dict[str, List[float]] = {}
        for reading in readings:
            for key, value in reading.values.items():
                if self._quantities is not None and key not in self._quantities:
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                samples.setdefault(key, []).append(float(value))
        if not samples:
            return []
        summary: Dict[str, AttributeValue] = {}
        for key, values in samples.items():
            summary[f"{key}_mean"] = statistics.fmean(values)
            summary[f"{key}_min"] = min(values)
            summary[f"{key}_max"] = max(values)
            summary[f"{key}_count"] = len(values)
        last = max(readings, key=lambda reading: reading.timestamp.seconds)
        return [
            SensorReading(
                sensor_id=f"{self.name}:summary",
                timestamp=last.timestamp,
                values=summary,
                location=last.location,
            )
        ]


class MergeOperator(DerivationOperator):
    """Amalgamates tuple sets from different networks into one set.

    The paper's example: "car sightings amalgamated from different sensor
    networks of different types (cameras, magnetometers, etc.)".  The
    merge keeps all readings and records every input as an ancestor.
    """

    stage = "merged"

    def _derived_attributes(self, inputs: Sequence[TupleSet]) -> Dict[str, AttributeValue]:
        attributes = super()._derived_attributes(inputs)
        networks = sorted(
            {
                str(tuple_set.provenance.get("network"))
                for tuple_set in inputs
                if tuple_set.provenance.get("network") is not None
            }
        )
        if networks:
            attributes["source_networks"] = tuple(networks)
        return attributes


class CalibrationOperator(DerivationOperator):
    """Applies a per-quantity correction (gain and offset) to readings.

    Calibration is the classic "problem found with an analysis tool"
    scenario: when a calibration constant turns out to be wrong, the
    descendant closure of its outputs is precisely the taint set.
    """

    stage = "calibrated"

    def __init__(
        self,
        name: str,
        quantity: str,
        gain: float = 1.0,
        offset: float = 0.0,
        version: str = "1.0",
        carry_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(
            name,
            version,
            parameters={"quantity": quantity, "gain": gain, "offset": offset},
            carry_attributes=carry_attributes,
        )
        self._quantity = quantity
        self._gain = gain
        self._offset = offset

    def _transform(self, readings: Sequence[SensorReading]) -> List[SensorReading]:
        corrected = []
        for reading in readings:
            values = dict(reading.values)
            raw = values.get(self._quantity)
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                values[self._quantity] = float(raw) * self._gain + self._offset
            corrected.append(
                SensorReading(
                    sensor_id=reading.sensor_id,
                    timestamp=reading.timestamp,
                    values=values,
                    location=reading.location,
                )
            )
        return corrected


class RollupOperator(DerivationOperator):
    """Rolls several consecutive windows up into one coarser window.

    Used to build the "hourly from five-minute" style hierarchies whose
    depth the closure experiments sweep.
    """

    stage = "rollup"

    def _derived_attributes(self, inputs: Sequence[TupleSet]) -> Dict[str, AttributeValue]:
        attributes = super()._derived_attributes(inputs)
        starts = [
            tuple_set.provenance.get("window_start")
            for tuple_set in inputs
            if isinstance(tuple_set.provenance.get("window_start"), Timestamp)
        ]
        ends = [
            tuple_set.provenance.get("window_end")
            for tuple_set in inputs
            if isinstance(tuple_set.provenance.get("window_end"), Timestamp)
        ]
        if starts and ends:
            attributes["window_start"] = Timestamp(min(start.seconds for start in starts))
            attributes["window_end"] = Timestamp(max(end.seconds for end in ends))
        return attributes
