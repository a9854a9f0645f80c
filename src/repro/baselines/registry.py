"""String-keyed protocol registry: one build path for every protocol.

The mobility registry (:mod:`repro.mobility.registry`) decoupled
*describing* a movement pattern from *constructing* it; this module
does the same for routing protocols.  A registry entry names:

- the **builder** turning a config (plus the campaign-level
  ``buffer_limit`` fallback) into a per-node protocol instance;
- the **config dataclass** the protocol is parameterised by (``None``
  for parameterless protocols such as ``direct``);
- which config field the shared ``buffer_limit`` falls back into
  (GLR calls it ``storage_limit``; the contact protocols call it
  ``buffer_limit``) — hoisted here so the fallback is implemented
  exactly once instead of per ``if protocol ==`` branch;
- which config fields are **not sweepable** through the declarative
  :class:`~repro.experiments.protocols.ProtocolConfig` axis (enum-typed
  fields that would not canonicalise into task keys).

Built-in protocols (aliases in parentheses)::

    glr                     GLRConfig        (the paper's protocol)
    epidemic                EpidemicConfig
    epidemic_receipts       ReceiptEpidemicConfig
    spray_and_wait (snw)    SprayAndWaitConfig
    one_hop (onehop)        OneHopConfig     (arXiv 1602.08461)
    direct                  —
    first_contact           —

Names are case-insensitive and hyphen/underscore-agnostic.  Third-party
protocols register with :func:`register_protocol`; everything downstream
— ``available_protocols()``, the declarative sweep axis, the CLI
``--protocols`` choices, the runner's factory — derives from the
registry, so a registered protocol is immediately sweepable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.direct import DirectDeliveryProtocol
from repro.baselines.epidemic import EpidemicConfig, EpidemicProtocol
from repro.baselines.first_contact import FirstContactProtocol
from repro.baselines.one_hop import OneHopConfig, OneHopProtocol
from repro.baselines.receipts import (
    ReceiptEpidemicConfig,
    ReceiptEpidemicProtocol,
)
from repro.baselines.spray_and_wait import (
    SprayAndWaitConfig,
    SprayAndWaitProtocol,
)
from repro.core.protocol import GLRConfig, GLRProtocol
from repro.params import normalize_name
from repro.sim.world import Protocol

_normalize = normalize_name

#: A builder maps (config, buffer_limit) to one node's protocol
#: instance.  ``config`` is the entry's resolved config dataclass (with
#: the buffer fallback already applied) or ``None`` for parameterless
#: protocols, which receive ``buffer_limit`` directly instead.
ProtocolBuilder = Callable[[object, "int | None"], Protocol]


@dataclass(frozen=True)
class ProtocolEntry:
    """How one registered protocol is validated and constructed."""

    name: str
    builder: ProtocolBuilder
    config_class: type | None = None
    #: Config field the shared ``buffer_limit`` falls back into when the
    #: config leaves it unset (None = the builder takes ``buffer_limit``
    #: directly, as the parameterless contact protocols do).
    buffer_field: str | None = None
    non_sweepable: frozenset[str] = frozenset()


_REGISTRY: dict[str, ProtocolEntry] = {}
_ALIASES: dict[str, str] = {}


def register_protocol(
    name: str,
    builder: ProtocolBuilder,
    config_class: type | None = None,
    buffer_field: str | None = None,
    non_sweepable: Sequence[str] = (),
    aliases: Sequence[str] = (),
) -> None:
    """Register a protocol under ``name`` (and optional aliases).

    Re-registering an existing name replaces it, so tests and user code
    can shadow built-ins (direct names win over aliases).  Registrations
    live in this process's registry only; campaign worker processes
    inherit them on fork-based platforms — the same contract as
    :func:`repro.mobility.registry.register_model`.
    """
    if config_class is None and buffer_field is not None:
        raise ValueError("buffer_field requires a config_class")
    if buffer_field is not None and buffer_field not in {
        f.name for f in dataclasses.fields(config_class)
    }:
        raise ValueError(
            f"config class {config_class.__name__} has no field "
            f"{buffer_field!r}"
        )
    canonical = _normalize(name)
    _REGISTRY[canonical] = ProtocolEntry(
        name=canonical,
        builder=builder,
        config_class=config_class,
        buffer_field=buffer_field,
        non_sweepable=frozenset(non_sweepable),
    )
    for alias in aliases:
        _ALIASES[_normalize(alias)] = canonical


def available_protocols() -> list[str]:
    """Canonical names of every registered protocol."""
    return sorted(_REGISTRY)


def protocol_aliases(name: str) -> list[str]:
    """Aliases resolving to ``name``, sorted (empty for most protocols).

    The inverse view of the alias table, for documentation and
    error-message surfaces; raises :class:`ValueError` for an unknown
    protocol, like :func:`resolve_protocol`.
    """
    canonical = resolve_protocol(name)
    return sorted(
        alias for alias, target in _ALIASES.items() if target == canonical
    )


def resolve_protocol(name: str) -> str:
    """Canonical registry name for ``name``; raises for unknown protocols.

    Directly registered names win over aliases, matching the mobility
    registry's shadowing rules.
    """
    normalized = _normalize(name)
    if normalized not in _REGISTRY:
        normalized = _ALIASES.get(normalized, normalized)
    if normalized not in _REGISTRY:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {available_protocols()}"
        )
    return normalized


def protocol_entry(name: str) -> ProtocolEntry:
    """The registry entry for ``name`` (resolving aliases)."""
    return _REGISTRY[resolve_protocol(name)]


def resolve_config(
    protocol: str,
    config: object | None = None,
    buffer_limit: int | None = None,
) -> object | None:
    """The concrete config instance a run of ``protocol`` will use.

    ``None`` config means the protocol's defaults.  The shared
    ``buffer_limit`` fallback lives here — once, for every protocol:
    when the config's buffer field is unset, the campaign-level limit
    fills it in; an explicit config value always wins.  Returns ``None``
    for parameterless protocols (whose builders take ``buffer_limit``
    directly).
    """
    entry = protocol_entry(protocol)
    if entry.config_class is None:
        if config is not None:
            raise ValueError(
                f"protocol {entry.name!r} takes no config, got "
                f"{type(config).__name__}"
            )
        return None
    if config is None:
        config = entry.config_class()
    elif not isinstance(config, entry.config_class):
        raise ValueError(
            f"protocol {entry.name!r} expects a "
            f"{entry.config_class.__name__}, got {type(config).__name__}"
        )
    if (
        entry.buffer_field is not None
        and buffer_limit is not None
        and getattr(config, entry.buffer_field) is None
    ):
        config = dataclasses.replace(
            config, **{entry.buffer_field: buffer_limit}
        )
    return config


def protocol_factory(
    protocol: str,
    config: object | None = None,
    buffer_limit: int | None = None,
) -> Callable[[object], Protocol]:
    """A per-node factory constructing ``protocol`` instances.

    The config is resolved (defaults, type check, buffer fallback) once
    up front; the returned factory then builds one instance per node, as
    :class:`repro.sim.world.World` requires.
    """
    entry = protocol_entry(protocol)
    resolved = resolve_config(protocol, config, buffer_limit)
    return lambda node: entry.builder(resolved, buffer_limit)


# ---------------------------------------------------------------------------
# Built-in protocols
# ---------------------------------------------------------------------------

register_protocol(
    "glr",
    lambda config, buffer_limit: GLRProtocol(config),
    config_class=GLRConfig,
    buffer_field="storage_limit",
    non_sweepable=("location_mode",),
)
register_protocol(
    "epidemic",
    lambda config, buffer_limit: EpidemicProtocol(config),
    config_class=EpidemicConfig,
    buffer_field="buffer_limit",
)
register_protocol(
    "epidemic_receipts",
    lambda config, buffer_limit: ReceiptEpidemicProtocol(config),
    config_class=ReceiptEpidemicConfig,
    buffer_field="buffer_limit",
    non_sweepable=("receipt_mode",),
)
register_protocol(
    "spray_and_wait",
    lambda config, buffer_limit: SprayAndWaitProtocol(config),
    config_class=SprayAndWaitConfig,
    buffer_field="buffer_limit",
    aliases=("snw", "spray"),
)
register_protocol(
    "one_hop",
    lambda config, buffer_limit: OneHopProtocol(config),
    config_class=OneHopConfig,
    buffer_field="buffer_limit",
    aliases=("onehop", "one_hop_information"),
)
register_protocol(
    "direct",
    lambda config, buffer_limit: DirectDeliveryProtocol(
        buffer_limit=buffer_limit
    ),
)
register_protocol(
    "first_contact",
    lambda config, buffer_limit: FirstContactProtocol(
        buffer_limit=buffer_limit
    ),
)
