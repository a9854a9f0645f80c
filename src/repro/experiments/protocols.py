"""Declarative protocol configs for campaign sweeps.

The mobility registry made *movement patterns* sweepable values
(:class:`~repro.mobility.registry.MobilityConfig`); this module does
the same for *protocol configurations*.  A :class:`ProtocolConfig` is a
pure value — protocol name plus scalar parameters, hashable and
JSON-friendly — so campaign grids can enumerate protocol variants
(hello/check intervals, custody on/off, copy budgets, queue policies)
and task keys cover the resolved configuration.

Validation happens at coercion time: parameter names are checked
against the protocol's config dataclass and parameter values run
through its ``__post_init__`` checks, so a bad campaign spec fails at
spec load, not mid-campaign inside a worker process.

Sweepable parameters per protocol::

    glr                 every scalar GLRConfig field (check_interval,
                        custody, sparse_copies, face_routing, ...)
    epidemic            EpidemicConfig fields (anti_entropy_interval,
                        request_batch, tick_interval, buffer_limit)
    epidemic_receipts   EpidemicConfig fields (the receipt mode itself
                        is not sweepable)
    spray_and_wait      SprayAndWaitConfig fields (initial_copies,
                        buffer_limit)
    direct              (none)
    first_contact       (none)

Enum-typed fields (``glr``'s ``location_mode``, the receipt mode) are
*not* sweepable: config params are restricted to scalars so configs
stay hashable and canonicalise cleanly into task keys.  Sweep those
through the Python API with a concrete config object instead.

Which protocols exist, their config dataclasses, and their
non-sweepable fields all come from the protocol registry
(:mod:`repro.baselines.registry`) — registering a protocol there makes
it sweepable here with no further wiring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from repro.baselines.registry import (
    available_protocols,
    protocol_entry,
    resolve_protocol,
)
from repro.params import ParamValue, canonicalise_params

_resolve_protocol = resolve_protocol


def sweepable_protocols() -> list[str]:
    """Protocol names accepted by :class:`ProtocolConfig`."""
    return available_protocols()


def sweepable_params(protocol: str) -> list[str]:
    """Parameter names a protocol accepts in a :class:`ProtocolConfig`."""
    entry = protocol_entry(protocol)
    if entry.config_class is None:
        return []
    return sorted(
        f.name
        for f in dataclasses.fields(entry.config_class)
        if f.name not in entry.non_sweepable
    )


def _bool_fields(protocol: str) -> frozenset[str]:
    """Names of a protocol's bool-typed config fields.

    Field annotations are strings under ``from __future__ import
    annotations``, so both spellings are matched.
    """
    entry = protocol_entry(protocol)
    if entry.config_class is None:
        return frozenset()
    return frozenset(
        f.name
        for f in dataclasses.fields(entry.config_class)
        if f.type in ("bool", bool)
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """A declarative protocol variant: protocol name plus parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    equal configs hash equal regardless of construction order, and the
    campaign task key (which canonicalises dataclasses field-by-field)
    is stable.  Use :meth:`of` for keyword construction.
    """

    protocol: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if not self.protocol or not isinstance(self.protocol, str):
            raise ValueError("protocol name must be a non-empty string")
        object.__setattr__(
            self, "protocol", _resolve_protocol(self.protocol)
        )
        # Shared rules with MobilityConfig (repro.params): string
        # names, scalar values, integral floats collapsed to ints so
        # numerically equal configs canonicalise to one task key.
        items = canonicalise_params(dict(self.params))
        # Python treats True == 1, so configs that compare (and hash)
        # equal must not JSON-encode differently ("custody": true vs 1
        # would split task keys, labels, and spec hashes).  Normalise
        # through the config dataclass's declared field types: 0/1 for
        # a bool field becomes the bool (anything else — 2, 0.5, "no",
        # which GLRConfig would silently treat as truthy — is
        # rejected), and a bool for a numeric field becomes the int.
        for key, value in items.items():
            if key in _bool_fields(self.protocol):
                if isinstance(value, bool):
                    continue
                if isinstance(value, int) and value in (0, 1):
                    items[key] = bool(value)
                else:
                    raise ValueError(
                        f"parameter {key!r} of {self.protocol!r} is "
                        f"boolean; got {value!r}"
                    )
            elif isinstance(value, bool):
                items[key] = int(value)
        object.__setattr__(self, "params", tuple(sorted(items.items())))
        self.build()  # validate names and values at construction time

    @classmethod
    def of(cls, protocol: str, **params: ParamValue) -> "ProtocolConfig":
        """Keyword-style constructor: ``ProtocolConfig.of("glr", custody=False)``."""
        return cls(protocol=protocol, params=tuple(params.items()))

    def params_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def build(self) -> object | None:
        """The concrete config dataclass instance this value describes.

        ``None`` for protocols without a config class (``direct``,
        ``first_contact``), which therefore accept no parameters.
        Raises :class:`ValueError` for unknown or non-sweepable
        parameter names and for parameter values the config's own
        validation rejects.
        """
        entry = protocol_entry(self.protocol)
        params = self.params_dict()
        if entry.config_class is None:
            if params:
                raise ValueError(
                    f"protocol {self.protocol!r} takes no config "
                    f"parameters, got {sorted(params)}"
                )
            return None
        blocked = sorted(set(params) & entry.non_sweepable)
        if blocked:
            raise ValueError(
                f"protocol {self.protocol!r} parameters {blocked} are not "
                f"sweepable (non-scalar fields); choose from "
                f"{sweepable_params(self.protocol)}"
            )
        config_class = entry.config_class
        accepted = {f.name for f in dataclasses.fields(config_class)}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ValueError(
                f"protocol {self.protocol!r} does not accept parameters "
                f"{unknown}; choose from {sweepable_params(self.protocol)}"
            )
        try:
            return config_class(**params)
        except TypeError as exc:
            # Known names, so this is the config's own validation
            # tripping over a wrongly typed value (e.g. a string where
            # __post_init__ compares numbers).
            raise ValueError(
                f"bad parameter value for protocol {self.protocol!r}: "
                f"{exc}"
            ) from exc

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :func:`as_protocol_config`)."""
        return {"protocol": self.protocol, "params": self.params_dict()}

    def __str__(self) -> str:
        if not self.params:
            return self.protocol
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.protocol}({inner})"


def as_protocol_config(
    value: "ProtocolConfig | str | Mapping",
) -> ProtocolConfig:
    """Coerce user input into a validated :class:`ProtocolConfig`.

    Accepts a protocol name string, a mapping of the form
    ``{"protocol": name, "params": {...}}`` (or with parameters inline
    next to ``"protocol"``), or an existing config.
    """
    if isinstance(value, ProtocolConfig):
        return value
    if isinstance(value, str):
        return ProtocolConfig(protocol=value)
    if isinstance(value, Mapping):
        data = dict(value)
        protocol = data.pop("protocol", None)
        if protocol is None:
            raise ValueError("protocol mapping needs a 'protocol' key")
        params = data.pop("params", None)
        if params is None:
            params = data
        elif data:
            raise ValueError(
                f"unexpected protocol keys {sorted(data)} next to 'params'"
            )
        elif not isinstance(params, Mapping):
            raise ValueError(
                f"protocol 'params' must be a mapping, got "
                f"{type(params).__name__}"
            )
        return ProtocolConfig.of(str(protocol), **dict(params))
    raise ValueError(
        f"cannot interpret {type(value).__name__} as a protocol config"
    )
