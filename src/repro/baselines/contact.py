"""Shared plumbing for contact-driven DTN protocols.

Epidemic-style protocols act on *contacts* — the events of two nodes
entering communication range — rather than on geometry.  This base
class turns the beacon-fresh neighbour set into contact callbacks: each
``tick_interval`` it diffs the current neighbour set against the last
one and reports new neighbours via :meth:`on_contact`.

It also owns the single message buffer (bounded FIFO, per the paper's
epidemic storage model) and the storage-metric hooks, so concrete
protocols only implement their exchange logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.udg import NodeId
from repro.sim.messages import Frame, Message, MessageCopy
from repro.sim.storage import MessageStore
from repro.sim.world import Protocol


@dataclass(slots=True)
class BufferedCopy:
    """A message held in a contact protocol's buffer, with its hop count."""

    message: Message
    hops: int


class ContactProtocol(Protocol):
    """Base class: buffer + contact detection via neighbour-set diffs."""

    name = "contact"

    def __init__(
        self,
        buffer_limit: int | None = None,
        tick_interval: float = 1.0,
    ):
        super().__init__()
        if tick_interval <= 0:
            raise ValueError("tick interval must be positive")
        self.buffer = MessageStore(capacity=buffer_limit)
        self.tick_interval = tick_interval
        self._known_neighbors: set[NodeId] = set()
        self._tick_task = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        assert self.api is not None, "protocol must be attached before start"
        self._tick_task = self.api.periodic(
            self.tick_interval, self._tick, jitter=self.tick_interval * 0.05
        )

    def _tick(self) -> None:
        assert self.api is not None
        current = self.api.neighbors()
        new_contacts = current - self._known_neighbors
        self._known_neighbors = current
        for peer in sorted(new_contacts, key=repr):
            self.on_contact(peer)
        if current:
            self.on_tick_with_neighbors(current)

    # -- extension points --------------------------------------------------

    def on_contact(self, peer: NodeId) -> None:
        """A neighbour just came into range."""

    def on_tick_with_neighbors(self, neighbors: set[NodeId]) -> None:
        """Called every tick while at least one neighbour is in range."""

    # -- buffer helpers -----------------------------------------------------

    def buffer_uids(self) -> frozenset[int]:
        """Uids of currently buffered messages."""
        return frozenset(self.buffer)

    def hold(self, message: Message, hops: int) -> None:
        """Insert a message into the buffer (FIFO-evicting when full)."""
        self.buffer.add(message.uid, BufferedCopy(message=message, hops=hops))

    def held(self, uid: int) -> BufferedCopy | None:
        """The buffered copy for ``uid`` or None."""
        item = self.buffer.get(uid)
        return item if isinstance(item, BufferedCopy) else None

    def deliver_if_mine(self, copy: MessageCopy) -> bool:
        """Record delivery when this node is the destination."""
        assert self.api is not None
        if copy.message.dest != self.api.node_id:
            return False
        self.api.metrics.on_delivered(copy.message, self.api.now(), copy.hops)
        return True

    # -- default frame handling (unicast DATA only) --------------------------

    def on_message_created(self, message: Message) -> None:
        self.hold(message, hops=0)

    def on_frame(self, frame: Frame) -> None:
        raise NotImplementedError

    # -- storage metrics -------------------------------------------------------

    def storage_occupancy(self) -> int:
        return len(self.buffer)

    def storage_peak(self) -> int:
        return self.buffer.peak_occupancy

    def sample_storage(self, now: float) -> None:
        self.buffer.sample(now)

    def storage_time_average(self, horizon: float) -> float:
        return self.buffer.time_average_occupancy(horizon)
