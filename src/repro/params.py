"""Scalar parameter canonicalisation for declarative config values.

:class:`~repro.mobility.registry.MobilityConfig` and
:class:`~repro.experiments.protocols.ProtocolConfig` are both "name
plus scalar params" values whose canonical form feeds campaign task
keys, cell labels, and spec hashes.  They must canonicalise by the
same rules — a divergence would make numerically equal configs key
differently depending on which axis they sit on — so the shared rules
live here:

- parameter names are strings, values are scalars (configs stay
  hashable and JSON-encode cleanly);
- integral floats (``5.0``, e.g. from a JSON spec or CLI parsing)
  normalize to ints so numerically equal values encode identically.
"""

from __future__ import annotations

from typing import Mapping

#: Parameter values a declarative config may carry: scalars only, so
#: configs stay hashable and canonicalise cleanly into task keys.
ParamValue = bool | int | float | str


def normalize_name(name: str) -> str:
    """Canonical spelling of a registry name (model or protocol).

    Case-insensitive and hyphen/underscore-agnostic, by the same rule
    on both axes so ``"Gauss-Markov"`` and ``"Spray-And-Wait"`` resolve
    consistently.
    """
    return name.strip().lower().replace("-", "_")


def canonicalise_params(
    params: Mapping[object, object],
) -> dict[str, ParamValue]:
    """Validate and canonicalise a config's parameter mapping.

    Raises :class:`ValueError` for non-string names and non-scalar
    values; returns a new dict with integral floats collapsed to ints.
    """
    items: dict[str, ParamValue] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise ValueError(f"parameter name {key!r} must be a string")
        if not isinstance(value, (bool, int, float, str)):
            raise ValueError(
                f"parameter {key!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
        if (
            isinstance(value, float)
            and value.is_integer()
            and abs(value) < 2**53
        ):
            value = int(value)
        items[key] = value
    return items
