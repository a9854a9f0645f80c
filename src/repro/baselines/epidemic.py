"""Epidemic routing (Vahdat & Becker) — the paper's benchmark.

On contact, two nodes exchange **summary vectors** (the ids of the
messages they hold); each then requests the messages it lacks, and the
peer streams them over the MAC.  With unbounded buffers and bandwidth
this delivers everything deliverable in minimal time, which is exactly
why the paper uses it as the unbeatable-baseline reference — and why
its weaknesses (contention under load, unbounded storage because
"messages are never cleared") are what GLR attacks.

Fidelity notes:

- Buffers are FIFO ("When storage is limited and the storage space is
  fully occupied, old messages are dropped when new messages come in").
- Anti-entropy repeats while a contact persists (new messages keep
  being generated), throttled by ``anti_entropy_interval``.
- Requests are capped per round (``request_batch``) so a node does not
  dump its entire buffer diff into the transmit queue at once; the
  remainder is fetched on subsequent anti-entropy rounds.  The Table 1
  queue limit (150 frames) would otherwise silently drop the tail —
  real implementations window transfers the same way.
- The destination keeps delivered messages in its buffer (its summary
  vector advertises them, which is epidemic's implicit duplicate
  suppression), and nothing is ever cleared — matching the paper's
  storage accounting where epidemic storage ≈ messages in transit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.contact import ContactProtocol
from repro.graphs.udg import NodeId
from repro.sim.messages import (
    Frame,
    FrameKind,
    MessageCopy,
    data_frame,
    request_frame,
    summary_frame,
)


@dataclass(frozen=True)
class EpidemicConfig:
    """Epidemic routing parameters.

    Attributes:
        buffer_limit: per-node buffer capacity in messages (None =
            unlimited; Figure 7 sweeps this).
        anti_entropy_interval: minimum seconds between summary exchanges
            with the same peer while in continuous contact.
        request_batch: maximum messages requested per exchange round
            (None = request everything missing, Vahdat's actual
            protocol; the link-layer queue limit then drops the excess,
            which is precisely the contention mechanism the paper blames
            for epidemic's slowdown under load).
        tick_interval: contact-detection cadence.
    """

    buffer_limit: int | None = None
    anti_entropy_interval: float = 4.0
    request_batch: int | None = None
    tick_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.buffer_limit is not None and self.buffer_limit < 1:
            raise ValueError("buffer limit must be >= 1")
        if self.anti_entropy_interval <= 0:
            raise ValueError("anti-entropy interval must be positive")
        if self.request_batch is not None and self.request_batch < 1:
            raise ValueError("request batch must be >= 1 (or None)")
        if self.tick_interval <= 0:
            raise ValueError("tick interval must be positive")


class EpidemicProtocol(ContactProtocol):
    """One node's epidemic routing instance."""

    name = "epidemic"

    def __init__(self, config: EpidemicConfig | None = None):
        self.config = config if config is not None else EpidemicConfig()
        super().__init__(
            buffer_limit=self.config.buffer_limit,
            tick_interval=self.config.tick_interval,
        )
        self._last_exchange: dict[NodeId, float] = {}
        # Diagnostics for tests/benches.
        self.summaries_sent = 0
        self.requests_sent = 0
        self.data_sent = 0

    # -- contact handling ---------------------------------------------------

    def on_contact(self, peer: NodeId) -> None:
        self._maybe_exchange(peer)

    def on_tick_with_neighbors(self, neighbors: set[NodeId]) -> None:
        for peer in sorted(neighbors, key=repr):
            self._maybe_exchange(peer)

    def _maybe_exchange(self, peer: NodeId) -> None:
        assert self.api is not None
        now = self.api.now()
        last = self._last_exchange.get(peer)
        if last is not None and now - last < self.config.anti_entropy_interval:
            return
        self._last_exchange[peer] = now
        frame = summary_frame(self.api.node_id, peer, self.buffer_uids())
        if self.api.send(frame):
            self.summaries_sent += 1

    # -- frame handling -------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        assert self.api is not None
        if frame.kind is FrameKind.SUMMARY:
            self._on_summary(frame)
        elif frame.kind is FrameKind.REQUEST:
            self._on_request(frame)
        elif frame.kind is FrameKind.DATA:
            self._on_data(frame)

    def _on_summary(self, frame: Frame) -> None:
        assert self.api is not None
        theirs: frozenset[int] = frame.payload
        missing = sorted(self.buffer.missing(theirs))
        if not missing:
            return
        if self.config.request_batch is not None:
            missing = missing[: self.config.request_batch]
        batch = tuple(missing)
        if self.api.send(request_frame(self.api.node_id, frame.sender, batch)):
            self.requests_sent += 1

    def _on_request(self, frame: Frame) -> None:
        assert self.api is not None
        wanted: tuple[int, ...] = frame.payload
        for uid in wanted:
            entry = self.held(uid)
            if entry is None:
                continue  # evicted since the summary was sent
            copy = MessageCopy(
                message=entry.message, branch="epidemic", hops=entry.hops
            )
            if self.api.send(
                data_frame(self.api.node_id, frame.sender, copy)
            ):
                self.data_sent += 1

    def _on_data(self, frame: Frame) -> None:
        copy: MessageCopy = frame.payload
        copy = copy.hopped()
        self.deliver_if_mine(copy)
        # Buffer regardless of delivery: the destination's summary vector
        # advertising the message is what stops further copies.
        if copy.message.uid not in self.buffer:
            self.hold(copy.message, hops=copy.hops)
