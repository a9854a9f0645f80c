"""String-keyed mobility registry and declarative mobility configs.

The registry decouples *describing* a movement pattern from
*constructing* it.  A :class:`MobilityConfig` is a pure value — model
name plus scalar parameters, hashable and JSON-friendly — so scenarios
can carry it, campaign task keys can cover it, and sweep grids can
enumerate it.  :func:`build_mobility` turns a config into a live
:class:`~repro.mobility.base.MobilityModel` for a concrete node
population, region, and seed.

Built-in models (aliases in parentheses)::

    random_waypoint (rwp)   min_speed, max_speed, pause_time
    random_walk             min_speed, max_speed, epoch
    gauss_markov            mean_speed, alpha, speed_std, direction_std,
                            update_interval, max_speed, edge_margin
    rpgm (group)            n_groups, group_radius, min_speed, max_speed,
                            pause_time, member_speed
    manhattan (grid)        blocks_x, blocks_y, min_speed, max_speed,
                            turn_prob
    static                  (none)
    trace                   path  [ns-2 setdest scenario file]

Names are case-insensitive and hyphen/underscore-agnostic, so
``"gauss-markov"`` and ``"Gauss_Markov"`` resolve to the same model.
Third-party models register with :func:`register_model`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel, Region
from repro.params import ParamValue, canonicalise_params, normalize_name
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import ReferencePointGroupMobility
from repro.mobility.static import StaticMobility
from repro.mobility.traces import TraceMobility, parse_ns2_trace

_normalize = normalize_name


@dataclass(frozen=True)
class MobilityConfig:
    """A declarative movement pattern: model name plus parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    equal configs hash equal regardless of construction order, and the
    campaign task key (which canonicalises dataclasses field-by-field)
    is stable.  Use :meth:`of` for keyword construction.
    """

    model: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise ValueError("mobility model name must be a non-empty string")
        object.__setattr__(self, "model", _normalize(self.model))
        # Shared rules with ProtocolConfig (repro.params): string
        # names, scalar values, integral floats collapsed to ints so
        # numerically equal configs canonicalise to one task key.
        items = canonicalise_params(dict(self.params))
        object.__setattr__(self, "params", tuple(sorted(items.items())))

    @classmethod
    def of(cls, model: str, **params: ParamValue) -> "MobilityConfig":
        """Keyword-style constructor: ``MobilityConfig.of("rpgm", n_groups=5)``."""
        return cls(model=model, params=tuple(params.items()))

    def params_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :func:`as_mobility_config`)."""
        return {"model": self.model, "params": self.params_dict()}

    def __str__(self) -> str:
        if not self.params:
            return self.model
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.model}({inner})"


#: A builder maps (node_ids, region, seed, **params) to a live model.
MobilityBuilder = Callable[..., MobilityModel]

_REGISTRY: dict[str, MobilityBuilder] = {}
_ALIASES: dict[str, str] = {}


def register_model(
    name: str,
    builder: MobilityBuilder,
    aliases: Sequence[str] = (),
) -> None:
    """Register ``builder`` under ``name`` (and optional aliases).

    Re-registering an existing name replaces it, so tests and user code
    can shadow built-ins (direct names win over aliases).

    Registrations live in this process's registry only.  Campaign
    worker processes inherit them on fork-based platforms (Linux);
    under the ``spawn`` start method (macOS/Windows) workers re-import
    with built-ins only, so custom models there must either be
    registered at import time of a module the workers also import, or
    run with ``workers=1``.
    """
    canonical = _normalize(name)
    _REGISTRY[canonical] = builder
    for alias in aliases:
        _ALIASES[_normalize(alias)] = canonical


def available_models() -> list[str]:
    """Canonical names of every registered mobility model."""
    return sorted(_REGISTRY)


def resolve_model(name: str) -> str:
    """Canonical registry name for ``name``; raises for unknown models.

    Directly registered names win over aliases, so ``register_model``
    can shadow a built-in alias (e.g. registering ``"grid"`` hides the
    Manhattan alias of the same name).
    """
    normalized = _normalize(name)
    if normalized not in _REGISTRY:
        normalized = _ALIASES.get(normalized, normalized)
    if normalized not in _REGISTRY:
        raise ValueError(
            f"unknown mobility model {name!r}; choose from "
            f"{available_models()}"
        )
    return normalized


#: How many leading builder parameters the runner supplies positionally
#: (node_ids, region, seed) — see :func:`build_mobility`.
_BUILDER_POSITIONALS = 3


def validate_params(model: str, params: Mapping[str, object]) -> None:
    """Check param names against the model builder's signature.

    Catching typos (``alhpa``, ``n_group``) and missing required
    parameters at config-coercion time means a bad campaign spec fails
    at load, not mid-campaign inside a worker process.  The first
    three builder parameters are runner-supplied positionally
    (whatever their names), and builders taking ``*args``/``**kwargs``
    skip the check.
    """
    canonical = resolve_model(model)
    try:
        signature = inspect.signature(_REGISTRY[canonical])
    except (TypeError, ValueError):  # builtins/odd callables: trust them
        return
    accepted = set()
    required = set()
    for index, parameter in enumerate(signature.parameters.values()):
        if parameter.kind in (
            inspect.Parameter.VAR_KEYWORD,
            inspect.Parameter.VAR_POSITIONAL,
        ):
            return
        if index < _BUILDER_POSITIONALS:
            continue
        accepted.add(parameter.name)
        if parameter.default is inspect.Parameter.empty:
            required.add(parameter.name)
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ValueError(
            f"mobility model {canonical!r} does not accept parameters "
            f"{unknown}; choose from {sorted(accepted)}"
        )
    missing = sorted(required - set(params))
    if missing:
        raise ValueError(
            f"mobility model {canonical!r} requires parameters {missing}"
        )


def as_mobility_config(
    value: "MobilityConfig | str | Mapping | None",
) -> MobilityConfig | None:
    """Coerce user input into a validated :class:`MobilityConfig`.

    Accepts ``None`` (passed through: "use the scenario's paper-default
    RWP"), a model name string, a mapping of the form
    ``{"model": name, "params": {...}}`` (or with parameters inline
    next to ``"model"``), or an existing config.
    """
    if value is None:
        return None
    if isinstance(value, MobilityConfig):
        config = value
    elif isinstance(value, str):
        config = MobilityConfig(model=value)
    elif isinstance(value, Mapping):
        data = dict(value)
        model = data.pop("model", None)
        if model is None:
            raise ValueError("mobility mapping needs a 'model' key")
        params = data.pop("params", None)
        if params is None:
            params = data
        elif data:
            raise ValueError(
                f"unexpected mobility keys {sorted(data)} next to 'params'"
            )
        elif not isinstance(params, Mapping):
            raise ValueError(
                f"mobility 'params' must be a mapping, got "
                f"{type(params).__name__}"
            )
        config = MobilityConfig.of(str(model), **dict(params))
    else:
        raise ValueError(
            f"cannot interpret {type(value).__name__} as a mobility config"
        )
    config = MobilityConfig(
        model=resolve_model(config.model), params=config.params
    )
    validate_params(config.model, config.params_dict())
    return config


def build_mobility(
    config: MobilityConfig,
    node_ids: Sequence[NodeId],
    region: Region,
    seed: int,
) -> MobilityModel:
    """Construct the model a config describes for a concrete population."""
    canonical = resolve_model(config.model)
    builder = _REGISTRY[canonical]
    try:
        return builder(node_ids, region, seed, **config.params_dict())
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for mobility model {canonical!r}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Built-in builders
# ---------------------------------------------------------------------------

def _build_static(
    node_ids: Sequence[NodeId], region: Region, seed: int
) -> StaticMobility:
    return StaticMobility.uniform(node_ids, region, seed)


def _build_trace(
    node_ids: Sequence[NodeId], region: Region, seed: int, path: str
) -> TraceMobility:
    """Replay an ns-2 scenario file, restricted to the scenario's nodes.

    The file may describe more nodes than the scenario uses (the extra
    trajectories are dropped) but must cover every scenario node.  Campaign
    task keys cover the file's *content hash*
    (:func:`repro.mobility.traces.trace_file_digest`), so editing a
    trace in place re-keys its simulations and renaming or copying an
    identical file keeps their keys.
    """
    if not path:
        raise ValueError("trace mobility needs a 'path' parameter")
    traces = parse_ns2_trace(path)
    missing = [node for node in node_ids if node not in traces]
    if missing:
        raise ValueError(
            f"trace {path!r} has no trajectory for nodes {missing[:5]} "
            f"({len(missing)} missing; trace covers {len(traces)} nodes)"
        )
    return TraceMobility(region, {node: traces[node] for node in node_ids})


register_model("random_waypoint", RandomWaypointMobility, aliases=("rwp",))
register_model("random_walk", RandomWalkMobility)
register_model("gauss_markov", GaussMarkovMobility)
register_model(
    "rpgm", ReferencePointGroupMobility, aliases=("group", "group_mobility")
)
register_model("manhattan", ManhattanGridMobility, aliases=("grid",))
register_model("static", _build_static)
register_model("trace", _build_trace)
