"""The ``repro/fleetmetrics-v1`` record: one streamed fleet-round line.

Every region worker appends one of these per scheduling round to the
shared metrics sink (:mod:`repro.fleet.metrics`).  The shape mirrors
the distilled :class:`~repro.scenarios.runner.ScenarioRoundRecord`
plus the routing facts a reader needs to regroup an interleaved stream
(fleet scenario, region, seed, scheduler)::

    {"schema": "repro/fleetmetrics-v1", "fleet": "multiregion-failover",
     "region": "region0", "seed": 0, "scheduler": "oef-coop",
     "round": 3, "time": 900.0, "active_tenants": 4,
     "total_throughput": 21.7, "utilization": 0.92, "jain": 0.98,
     "envy": 0.05, "starved_jobs": 0}

The record is declared over the shared kernel (:mod:`repro.schema`),
like the bench and audit schemas, and errors name the offending field.
"""

from __future__ import annotations

from repro.schema import Schema, SchemaError, integer, number, tag, text

#: Schema tag carried by every streamed fleet-round record.
FLEETMETRICS_SCHEMA = "repro/fleetmetrics-v1"


class FleetSchemaError(SchemaError):
    """A fleet metrics record that violates ``repro/fleetmetrics-v1``."""


FLEET_RECORD = Schema(
    {
        "schema": tag(FLEETMETRICS_SCHEMA),
        "fleet": text(),
        "region": text(),
        "seed": integer(),
        "scheduler": text(),
        "round": integer(ge=0),
        "time": number(ge=0),
        "active_tenants": integer(ge=0),
        "total_throughput": number(ge=0),
        "utilization": number(ge=0),
        "jain": number(ge=0, le=1),
        "envy": number(ge=0, le=1),
        "starved_jobs": integer(ge=0),
    },
    error=FleetSchemaError,
)

#: Reject anything that is not a well-formed fleet-round record.
validate_fleet_record = FLEET_RECORD.validate


__all__ = ["FLEETMETRICS_SCHEMA", "FleetSchemaError", "validate_fleet_record"]
