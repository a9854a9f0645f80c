"""Epidemic routing with delivery receipts (paper Section 1 discussion).

The paper's main criticism of epidemic routing is that "the messages
are never cleared", and it cites Harras & Almeroth's receipt schemes as
the known fix:

- **active receipts**: once a message reaches its destination, a
  receipt for it propagates epidemically; every node holding the
  message deletes it and remembers the receipt so it never re-accepts
  the message.
- **passive receipts**: receipts are not pushed; a node only learns a
  message is delivered when it offers that message to someone who
  already holds a receipt for it, who then responds with the receipt.

This module implements both on top of :class:`EpidemicProtocol`.
Receipts ride the existing summary exchange: the summary payload
becomes ``(message_uids, receipt_uids)`` (active mode) so no extra
frames are needed on the happy path; passive mode answers offending
summaries with a RECEIPT frame.

The paper's open question — "how to stop the broadcasting of the
receipt messages is another question" — is resolved here the standard
way: receipts are fixed-size ids (8 bytes in the frame model), so a
node simply remembers them for the rest of the run; the storage they
displace is three orders of magnitude larger.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.baselines.epidemic import EpidemicConfig, EpidemicProtocol
from repro.graphs.udg import NodeId
from repro.sim.messages import (
    Frame,
    FrameKind,
    ID_BYTES,
    MessageCopy,
)


class ReceiptMode(enum.Enum):
    """How delivery receipts propagate."""

    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class ReceiptEpidemicConfig(EpidemicConfig):
    """Epidemic config plus the receipt mode."""

    receipt_mode: ReceiptMode = ReceiptMode.ACTIVE


def _summary_payload(uids: frozenset[int], receipts: frozenset[int]):
    return (uids, receipts)


class ReceiptEpidemicProtocol(EpidemicProtocol):
    """Epidemic routing that clears delivered messages via receipts."""

    name = "epidemic_receipts"

    def __init__(self, config: ReceiptEpidemicConfig | None = None):
        cfg = config if config is not None else ReceiptEpidemicConfig()
        super().__init__(cfg)
        self.receipt_config = cfg
        self.receipts: set[int] = set()
        self.messages_cleared = 0
        self.receipt_frames_sent = 0

    # -- receipt bookkeeping ------------------------------------------------

    def _learn_receipt(self, uid: int) -> None:
        if uid in self.receipts:
            return
        self.receipts.add(uid)
        if self.buffer.pop(uid) is not None:
            self.messages_cleared += 1

    def _learn_receipts(self, uids) -> None:
        for uid in uids:
            self._learn_receipt(uid)

    # -- summary exchange (overridden to carry receipts) ---------------------

    def _maybe_exchange(self, peer: NodeId) -> None:
        assert self.api is not None
        now = self.api.now()
        last = self._last_exchange.get(peer)
        if last is not None and now - last < self.config.anti_entropy_interval:
            return
        self._last_exchange[peer] = now
        receipts = (
            frozenset(self.receipts)
            if self.receipt_config.receipt_mode is ReceiptMode.ACTIVE
            else frozenset()
        )
        payload = _summary_payload(self.buffer_uids(), receipts)
        size = max(ID_BYTES, ID_BYTES * (len(payload[0]) + len(payload[1])))
        frame = Frame(
            kind=FrameKind.SUMMARY,
            sender=self.api.node_id,
            receiver=peer,
            payload=payload,
            size_bytes=size,
        )
        if self.api.send(frame):
            self.summaries_sent += 1

    def _on_summary(self, frame: Frame) -> None:
        assert self.api is not None
        theirs, their_receipts = frame.payload
        self._learn_receipts(their_receipts)

        if self.receipt_config.receipt_mode is ReceiptMode.PASSIVE:
            # Passive: tell the peer about messages it is still
            # carrying that we know are delivered.
            stale = sorted(theirs & self.receipts)
            if stale:
                receipt = Frame(
                    kind=FrameKind.RECEIPT,
                    sender=self.api.node_id,
                    receiver=frame.sender,
                    payload=tuple(stale),
                    size_bytes=max(ID_BYTES, ID_BYTES * len(stale)),
                )
                if self.api.send(receipt):
                    self.receipt_frames_sent += 1

        missing = sorted(self.buffer.missing(theirs) - self.receipts)
        if not missing:
            return
        if self.config.request_batch is not None:
            missing = missing[: self.config.request_batch]
        from repro.sim.messages import request_frame

        if self.api.send(
            request_frame(self.api.node_id, frame.sender, tuple(missing))
        ):
            self.requests_sent += 1

    # -- data and receipt frames ----------------------------------------------

    def _on_data(self, frame: Frame) -> None:
        copy: MessageCopy = frame.payload
        copy = copy.hopped()
        if copy.message.uid in self.receipts:
            return  # already known delivered: do not re-buffer
        if self.deliver_if_mine(copy):
            # Destination: mint the receipt instead of buffering.
            self._learn_receipt(copy.message.uid)
            return
        if copy.message.uid not in self.buffer:
            self.hold(copy.message, hops=copy.hops)

    def on_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.RECEIPT:
            self._learn_receipts(frame.payload)
            return
        super().on_frame(frame)
