"""Per-processor cache controller for the directory-based system.

This implements the cache side of the implementation model of Section 5.2:

* MSI states, write-back, invalidation-based;
* all synchronization operations are treated as writes by the coherence
  protocol (they need the line exclusive and are performed on the local
  copy), unless the DRF1 optimization routes read-only synchronization
  through the ordinary read path (Section 6);
* a write commits only when it modifies the copy of the line in the local
  cache; it is globally performed when the directory has collected all
  invalidation acks (or immediately, when the line came from the exclusive
  owner or was uncached -- the paper's counter-decrement rules);
* the paper's **counter** of outstanding accesses: incremented on every
  cache miss, decremented when a read's line arrives, when a write to a
  previously-exclusive (or uncached) line arrives, or when the directory's
  all-acks-collected ack arrives;
* the paper's **reserve bit**: set on the line a synchronization operation
  commits to while the counter is positive; all reserve bits clear when the
  counter reads zero; a request forwarded to a reserved line stalls until
  then (this both enforces condition 5 for remote synchronization requests
  and guarantees a reserved line is never flushed out of the cache);
* the optional bounded-miss window: while any line is reserved, at most
  ``reserved_miss_limit`` misses may be outstanding, bounding how long a
  stalled synchronization request can wait (Section 5.3's fix for the
  growing-counter problem).

Transient races with the unordered network are handled explicitly:

* an ``INVAL`` that overtakes the ``DATA`` reply of an outstanding read
  acknowledges immediately; the late data commits the read (its value was
  bound before the invalidating write serialized) but is not installed;
* a forwarded request that overtakes our own ``DATA_EX`` waits until the
  line arrives, then is serviced (subject to the reserve bit).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.types import Location, OpKind, Value
from repro.sim.access import AccessRecord
from repro.sim.events import SimulationError, Simulator
from repro.sim.faults import NULL_INJECTOR
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Interconnect


class LineState(enum.Enum):
    """MSI cache-line states ('modified' doubles as 'exclusive/dirty')."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


@dataclass
class CacheLine:
    """One cache line: state, data, and the paper's reserve bit."""

    state: LineState = LineState.INVALID
    value: Value = 0
    reserved: bool = False


@dataclass
class _Transaction:
    """An outstanding miss: one per line per cache (queued behind otherwise)."""

    access: AccessRecord
    wants_exclusive: bool
    invalidated_before_data: bool = False
    waiting_write_ack: bool = False
    data_arrived: bool = False
    #: The directory's WRITE_ACK overtook our DATA_EX on the unordered
    #: network; apply it as soon as the data arrives.
    early_write_ack: bool = False


class CacheController:
    """Cache + coherence engine for one processor."""

    def __init__(
        self,
        sim: Simulator,
        network: Interconnect,
        node_id: str,
        directory_id: str,
        hit_latency: int = 1,
        use_reserve_bits: bool = False,
        drf1_optimized: bool = False,
        reserved_miss_limit: Optional[int] = None,
        sync_nack: bool = True,
        nack_retry_delay: int = 8,
        capacity: Optional[int] = None,
        injector=NULL_INJECTOR,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.directory_id = directory_id
        self.hit_latency = hit_latency
        self.use_reserve_bits = use_reserve_bits
        self.drf1_optimized = drf1_optimized
        self.reserved_miss_limit = reserved_miss_limit
        self.sync_nack = sync_nack
        self.nack_retry_delay = nack_retry_delay
        self.capacity = capacity
        self.injector = injector

        self.lines: Dict[Location, CacheLine] = {}
        self._lru_clock = 0
        self._last_use: Dict[Location, int] = {}
        self._evicting: Dict[Location, Optional[AccessRecord]] = {}
        self._capacity_stalled: Deque[AccessRecord] = deque()
        self.evictions = 0
        #: The paper's per-processor counter of outstanding accesses.
        self.counter = 0
        self._transactions: Dict[Location, _Transaction] = {}
        self._queued_accesses: Dict[Location, Deque[AccessRecord]] = {}
        self._stalled_forwards: List[Message] = []
        self._pending_forwards: Dict[Location, List[Message]] = {}
        self._deferred_misses: Deque[AccessRecord] = deque()
        self._misses_while_reserved = 0
        self.reserved_lines: Set[Location] = set()
        # Stats
        self.hits = 0
        self.misses = 0
        self.forwards_stalled = 0

        network.attach(node_id, self._on_message)

    # ------------------------------------------------------------------
    # Processor-facing API
    # ------------------------------------------------------------------

    def submit(self, access: AccessRecord) -> None:
        """Accept one generated access from the processor."""
        loc = access.location
        if loc in self._transactions:
            self._queued_accesses.setdefault(loc, deque()).append(access)
            return
        self._dispatch(access)

    def line(self, location: Location) -> CacheLine:
        """The (possibly invalid) line for ``location``."""
        line = self.lines.get(location)
        if line is None:
            line = self.lines[location] = CacheLine()
        return line

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _treated_as_read(self, access: AccessRecord) -> bool:
        """Reads take the GETS path; sync ops take the write path unless the
        DRF1 optimization routes read-only sync through the read path."""
        if access.kind is OpKind.DATA_READ:
            return True
        if access.kind is OpKind.SYNC_READ and self.drf1_optimized:
            return True
        return False

    def _dispatch(self, access: AccessRecord) -> None:
        loc = access.location
        if loc in self._evicting:
            # The line is mid write-back; local accesses wait for WB_OK and
            # then re-fetch (the paper's synchronous-flush stall).
            self._queued_accesses.setdefault(loc, deque()).append(access)
            return
        line = self.line(loc)
        self._touch(loc)
        if self._treated_as_read(access):
            if line.state in (LineState.SHARED, LineState.MODIFIED):
                self.hits += 1
                self.sim.after(self.hit_latency, lambda: self._commit_read_hit(access))
                return
            self._start_miss(access, wants_exclusive=False)
            return
        # Write path (data writes and all synchronization operations).
        if line.state is LineState.MODIFIED:
            self.hits += 1
            self.sim.after(self.hit_latency, lambda: self._commit_write_hit(access))
            return
        self._start_miss(access, wants_exclusive=True)

    def _start_miss(self, access: AccessRecord, wants_exclusive: bool) -> None:
        if self.capacity is not None and not self._ensure_slot(access):
            return  # parked in _capacity_stalled until a slot frees up
        if self.reserved_miss_limit is not None and self.reserved_lines:
            # Section 5.3: "allowing only a limited number of cache misses
            # to be sent to memory while any line is reserved" -- a *total*
            # bound, so the counter is guaranteed to read zero after a
            # bounded number of increments.  Excess misses wait for the
            # reserve bits to clear.
            if self._misses_while_reserved >= self.reserved_miss_limit:
                self._deferred_misses.append(access)
                return
            self._misses_while_reserved += 1
        loc = access.location
        self.misses += 1
        self.counter += 1
        access.missed = True
        self._transactions[loc] = _Transaction(access, wants_exclusive)
        self.network.send(
            Message(
                MsgKind.GETX if wants_exclusive else MsgKind.GETS,
                src=self.node_id,
                dst=self.directory_id,
                location=loc,
                is_sync=access.is_sync,
                access_uid=access.uid,
            )
        )

    # ------------------------------------------------------------------
    # Capacity / eviction
    # ------------------------------------------------------------------

    def _occupied_slots(self) -> int:
        """Valid lines plus lines an open transaction is about to install."""
        valid = sum(
            1 for line in self.lines.values() if line.state is not LineState.INVALID
        )
        fetching = sum(
            1
            for loc in self._transactions
            if self.line(loc).state is LineState.INVALID
        )
        return valid + fetching

    def _ensure_slot(self, access: AccessRecord) -> bool:
        """Make room for ``access``'s line; False = parked until room frees.

        The paper's corner case lives here: "a line with its reserve bit
        set is never flushed out of a processor cache.  A processor that
        requires such a flush is made to stall until its counter reads
        zero."  Reserved lines (and lines with open transactions) are never
        victims; when no victim exists the miss stalls and is retried when
        the reserve bits clear or a slot frees up.
        """
        if self.line(access.location).state is not LineState.INVALID:
            return True  # upgrades reuse the line's existing slot
        if self._occupied_slots() < self.capacity:
            return True
        victim = self._pick_victim()
        if victim is None:
            self._capacity_stalled.append(access)
            return False
        line = self.lines[victim]
        if line.state is LineState.SHARED:
            # Clean copy: drop silently (the directory's stale sharer record
            # only costs a harmless future INVAL/ack pair).
            line.state = LineState.INVALID
            self.evictions += 1
            return True
        # Dirty copy: write back synchronously; park the access meanwhile.
        self.evictions += 1
        self._evicting[victim] = access
        self.network.send(
            Message(
                MsgKind.WB_EVICT,
                src=self.node_id,
                dst=self.directory_id,
                location=victim,
                value=line.value,
            )
        )
        self._capacity_stalled.append(access)
        return False

    def _evictable_lines(self) -> List[Location]:
        """Valid lines that are safe to evict (unreserved, no open
        transaction, not already mid write-back)."""
        return [
            loc
            for loc, line in self.lines.items()
            if line.state is not LineState.INVALID
            and not line.reserved
            and loc not in self._transactions
            and loc not in self._evicting
        ]

    def _pick_victim(self) -> Optional[Location]:
        """Least-recently-used valid line that is safe to evict."""
        candidates = self._evictable_lines()
        if not candidates:
            return None
        return min(candidates, key=lambda loc: self._last_use.get(loc, 0))

    def _force_evict_one(self) -> None:
        """Fault injection: evict a random safe line through the normal
        eviction machinery (silent drop for clean copies, synchronous
        write-back for dirty ones), stressing the directory's stale-sharer
        and write-back races without breaking any protocol invariant."""
        candidates = sorted(self._evictable_lines())
        if not candidates:
            return
        victim = self.injector.choose(candidates)
        line = self.lines[victim]
        self.injector.count_forced_eviction()
        self.evictions += 1
        if line.state is LineState.SHARED:
            line.state = LineState.INVALID
            return
        self._evicting[victim] = None
        self.network.send(
            Message(
                MsgKind.WB_EVICT,
                src=self.node_id,
                dst=self.directory_id,
                location=victim,
                value=line.value,
            )
        )

    def _touch(self, location: Location) -> None:
        self._lru_clock += 1
        self._last_use[location] = self._lru_clock

    def _on_wb_ok(self, message: Message) -> None:
        """Directory acknowledged our eviction; drop the line (unless it was
        transferred away or re-requested in the meantime)."""
        loc = message.location
        self._evicting.pop(loc, None)
        line = self.line(loc)
        if (
            loc not in self._transactions
            and line.state is not LineState.INVALID
            and not line.reserved
        ):
            line.state = LineState.INVALID
        # Local accesses that arrived during the write-back re-dispatch now
        # (they will miss and re-fetch the line).
        self._drain_queue(loc)
        self._retry_capacity_stalled()

    def _retry_capacity_stalled(self) -> None:
        if not self._capacity_stalled:
            return
        parked, self._capacity_stalled = self._capacity_stalled, deque()
        for access in parked:
            self.submit(access)

    # ------------------------------------------------------------------
    # Hits
    # ------------------------------------------------------------------

    def _commit_read_hit(self, access: AccessRecord) -> None:
        line = self.line(access.location)
        if line.state is LineState.INVALID:
            # The line was invalidated (or transferred away) during the hit
            # latency; the hit has become a miss -- re-issue it.
            self.submit(access)
            return
        access.mark_committed(self.sim.now, line.value)
        access.mark_globally_performed(self.sim.now)

    def _commit_write_hit(self, access: AccessRecord) -> None:
        """Apply a write/sync on a line held MODIFIED: commit == perform."""
        line = self.line(access.location)
        if line.state is not LineState.MODIFIED or access.location in self._evicting:
            # Ownership was forwarded away (or downgraded by a read forward,
            # or the line went into eviction) during the hit latency; retry
            # through the miss path.
            self.submit(access)
            return
        self._apply_and_commit(access)
        access.mark_globally_performed(self.sim.now)

    def _apply_and_commit(self, access: AccessRecord) -> None:
        """Perform the operation on the local (exclusive) copy and commit.

        This is the Section-5.2 commit point: the value modifies the copy of
        the line in the issuing processor's cache.  Afterwards, if this is a
        synchronization operation and the counter is positive, the line's
        reserve bit is set (Section 5.3).
        """
        line = self.line(access.location)
        if line.state is not LineState.MODIFIED:
            raise SimulationError(
                f"{self.node_id}: write applied to non-exclusive line "
                f"{access.location} ({line.state})"
            )
        value_read: Optional[Value] = line.value if access.has_read else None
        if access.has_write:
            line.value = access.write_value
        # The reserve decision samples the counter *at commit*, before the
        # commit callbacks run: a callback may release a gated later access
        # whose miss increments the counter, and that later access must not
        # retroactively reserve this line (it was generated after the sync).
        if access.is_sync and self.use_reserve_bits and self.counter > 0:
            line.reserved = True
            self.reserved_lines.add(access.location)
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    "cache", "reserve", self.node_id, self.sim.now,
                    args={"loc": access.location, "counter": self.counter},
                )
        access.mark_committed(self.sim.now, value_read)

    # ------------------------------------------------------------------
    # Network handler
    # ------------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        kind = message.kind
        if kind is MsgKind.DATA:
            self._on_data_shared(message)
        elif kind is MsgKind.DATA_EX:
            self._on_data_exclusive(message)
        elif kind is MsgKind.WRITE_ACK:
            self._on_write_ack(message)
        elif kind is MsgKind.INVAL:
            self._on_inval(message)
        elif kind in (MsgKind.GETS_FWD, MsgKind.GETX_FWD):
            self._on_forward(message)
        elif kind is MsgKind.NACK:
            self._on_nack(message)
        elif kind is MsgKind.WB_OK:
            self._on_wb_ok(message)
        else:  # pragma: no cover - protocol is closed
            raise SimulationError(f"{self.node_id} got unexpected {kind}")
        if self.injector.enabled and self.injector.should_force_evict():
            self._force_evict_one()

    def _on_nack(self, message: Message) -> None:
        """Our request bounced off a reserved line: retry after a delay.

        The nacked access stops counting as outstanding until the retry --
        that is what lets this processor's own counter read zero while it
        waits, breaking cross-reservation cycles.
        """
        loc = message.location
        txn = self._transactions.pop(loc, None)
        if txn is None:
            raise SimulationError(f"{self.node_id}: stray NACK for {loc}")
        self._decrement_counter()
        access = txn.access
        access.nacks += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "cache", "nack", self.node_id, self.sim.now,
                args={"loc": loc, "retries": access.nacks},
            )
        self.sim.after(self.nack_retry_delay, lambda: self._retry(access))

    def _retry(self, access: AccessRecord) -> None:
        if access.location in self._transactions:
            self._queued_accesses.setdefault(
                access.location, deque()
            ).append(access)
        else:
            self._dispatch(access)

    # -- replies to our own misses -----------------------------------------

    def _on_data_shared(self, message: Message) -> None:
        loc = message.location
        txn = self._transactions.get(loc)
        if txn is None or txn.wants_exclusive:
            raise SimulationError(f"{self.node_id}: stray DATA for {loc}")
        txn.data_arrived = True
        access = txn.access
        if not txn.invalidated_before_data:
            line = self.line(loc)
            line.state = LineState.SHARED
            line.value = message.value
        # The counter decrements on receipt of a line for a read request
        # (before the commit events fire: a commit callback may generate the
        # processor's next access, which must observe the drained counter).
        self._decrement_counter()
        access.mark_committed(self.sim.now, message.value)
        access.mark_globally_performed(self.sim.now)
        self._close_transaction(loc)

    def _on_data_exclusive(self, message: Message) -> None:
        loc = message.location
        txn = self._transactions.get(loc)
        if txn is None or not txn.wants_exclusive:
            raise SimulationError(f"{self.node_id}: stray DATA_EX for {loc}")
        txn.data_arrived = True
        line = self.line(loc)
        line.state = LineState.MODIFIED
        line.value = message.value
        if message.acks_pending == 0:
            # Line was uncached or came from the exclusive owner: the write
            # is globally performed on receipt (paper's decrement rule).
            # Decrement *before* performing the operation on the procured
            # line, so reserve-bit decisions and commit-gated accesses see
            # the drained counter -- receipt precedes the perform.
            self._decrement_counter()
            self._apply_and_commit(txn.access)
            txn.access.mark_globally_performed(self.sim.now)
            self._close_transaction(loc)
        elif txn.early_write_ack:
            # The all-acks ack already arrived (it overtook this data):
            # the write both commits and is globally performed now.
            self._decrement_counter()
            self._apply_and_commit(txn.access)
            txn.access.mark_globally_performed(self.sim.now)
            self._close_transaction(loc)
        else:
            self._apply_and_commit(txn.access)
            txn.waiting_write_ack = True
            self._service_pending_forwards(loc)

    def _on_write_ack(self, message: Message) -> None:
        """All invalidation acks collected: the write is globally performed."""
        loc = message.location
        txn = self._transactions.get(loc)
        if txn is None:
            raise SimulationError(f"{self.node_id}: stray WRITE_ACK for {loc}")
        if not txn.data_arrived:
            # WRITE_ACK overtook our DATA_EX; remember it for data arrival.
            txn.early_write_ack = True
            return
        if not txn.waiting_write_ack:
            raise SimulationError(f"{self.node_id}: stray WRITE_ACK for {loc}")
        self._decrement_counter()
        txn.access.mark_globally_performed(self.sim.now)
        self._close_transaction(loc)

    # -- requests from the directory ------------------------------------------

    def _on_inval(self, message: Message) -> None:
        """Invalidate our shared copy; always serviced immediately (this is
        what makes the counter always drain, guaranteeing deadlock freedom).
        """
        loc = message.location
        line = self.line(loc)
        if line.state is LineState.MODIFIED:
            raise SimulationError(f"{self.node_id}: INVAL for MODIFIED line {loc}")
        line.state = LineState.INVALID
        txn = self._transactions.get(loc)
        if txn is not None and not txn.data_arrived:
            # The INVAL overtook the DATA for our outstanding read.
            txn.invalidated_before_data = True
        self.network.send(
            Message(
                MsgKind.INVAL_ACK,
                src=self.node_id,
                dst=message.src,
                location=loc,
                requester=message.requester,
            )
        )
        self._retry_capacity_stalled()  # the invalidation freed a slot

    def _on_forward(self, message: Message) -> None:
        """A remote request routed to us as owner of the line."""
        loc = message.location
        line = self.line(loc)
        if line.state is not LineState.MODIFIED:
            txn = self._transactions.get(loc)
            if txn is not None and not txn.data_arrived:
                # Forward overtook our own DATA_EX; wait for the line.
                self._pending_forwards.setdefault(loc, []).append(message)
                return
            raise SimulationError(
                f"{self.node_id}: forward for line {loc} we do not own"
            )
        if line.reserved:
            # Section 5.3, condition 5: requests to a reserved line cannot
            # be serviced until the counter reads zero.  Two variants, both
            # from the paper: queue the request locally ("stalled until the
            # counter reads zero"), or negative-ack it so the requester
            # retries.  Queueing can deadlock when two processors reserve
            # lines and then synchronize on each other's reserved location
            # (each counter is kept positive by the sync stalled at the
            # other); the NACK variant breaks the cycle because a nacked
            # request stops being outstanding until its retry, letting the
            # counters read zero.  NACK is therefore the default.
            self.forwards_stalled += 1
            if self.sync_nack:
                self.network.send(
                    Message(
                        MsgKind.NACK,
                        src=self.node_id,
                        dst=message.requester,
                        location=loc,
                        is_sync=message.is_sync,
                    )
                )
                self.network.send(
                    Message(
                        MsgKind.NACK_DONE,
                        src=self.node_id,
                        dst=self.directory_id,
                        location=loc,
                        requester=message.requester,
                    )
                )
            else:
                self._stalled_forwards.append(message)
            return
        self._service_forward(message)

    def _service_forward(self, message: Message) -> None:
        loc = message.location
        line = self.line(loc)
        assert line.state is LineState.MODIFIED
        if message.kind is MsgKind.GETS_FWD:
            line.state = LineState.SHARED
            self.network.send(
                Message(
                    MsgKind.DATA,
                    src=self.node_id,
                    dst=message.requester,
                    location=loc,
                    value=line.value,
                )
            )
            self.network.send(
                Message(
                    MsgKind.WB_DATA,
                    src=self.node_id,
                    dst=self.directory_id,
                    location=loc,
                    value=line.value,
                    requester=message.requester,
                )
            )
        else:  # GETX_FWD
            value = line.value
            line.state = LineState.INVALID
            line.reserved = False
            self.network.send(
                Message(
                    MsgKind.DATA_EX,
                    src=self.node_id,
                    dst=message.requester,
                    location=loc,
                    value=value,
                    acks_pending=0,
                )
            )
            self.network.send(
                Message(
                    MsgKind.TRANSFER,
                    src=self.node_id,
                    dst=self.directory_id,
                    location=loc,
                    requester=message.requester,
                )
            )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _decrement_counter(self) -> None:
        if self.injector.enabled:
            delay = self.injector.counter_decrement_delay()
            if delay:
                # Fault: the decrement takes effect late.  Reserve bits stay
                # set longer and counter-gated accesses wait longer, but the
                # injector bounds the delay below the NACK retry delay so the
                # counter still reads zero inside every NACK/retry window.
                self.sim.after(delay, self._do_decrement)
                return
        self._do_decrement()

    def _do_decrement(self) -> None:
        self.counter -= 1
        if self.counter < 0:
            raise SimulationError(f"{self.node_id}: counter went negative")
        if self.counter == 0:
            self._maybe_clear_reserve_bits()
        self._release_deferred_misses()

    def _maybe_clear_reserve_bits(self) -> None:
        if self.injector.enabled:
            delay = self.injector.reserve_clear_delay()
            if delay:
                # Fault: the all-bits-clear happens late.  Guarded on entry:
                # a miss issued meanwhile re-raises the counter, and the
                # paper only clears reserve bits while the counter reads 0.
                self.sim.after(delay, self._delayed_clear_reserve_bits)
                return
        self._clear_reserve_bits()

    def _delayed_clear_reserve_bits(self) -> None:
        if self.counter == 0:
            self._clear_reserve_bits()
            # The decrement that scheduled this clear already tried to
            # release deferred misses and found the reserve window full;
            # now that the bits are clear they must be re-released.
            self._release_deferred_misses()

    def _clear_reserve_bits(self) -> None:
        """All reserve bits are reset when the counter reads zero (paper)."""
        for loc in self.reserved_lines:
            self.lines[loc].reserved = False
        self.reserved_lines.clear()
        self._misses_while_reserved = 0
        if self._stalled_forwards:
            stalled, self._stalled_forwards = self._stalled_forwards, []
            for message in stalled:
                self._on_forward(message)
        self._retry_capacity_stalled()

    def _release_deferred_misses(self) -> None:
        while self._deferred_misses:
            if (
                self.reserved_miss_limit is not None
                and self.reserved_lines
                and self._misses_while_reserved >= self.reserved_miss_limit
            ):
                return
            access = self._deferred_misses.popleft()
            # The line may have arrived meanwhile; re-dispatch from scratch.
            if access.location in self._transactions:
                self._queued_accesses.setdefault(
                    access.location, deque()
                ).append(access)
            else:
                self._dispatch(access)

    def _close_transaction(self, loc: Location) -> None:
        self._transactions.pop(loc, None)
        self._service_pending_forwards(loc)
        self._drain_queue(loc)
        self._retry_capacity_stalled()  # the closed line is now evictable

    def _drain_queue(self, loc: Location) -> None:
        """Dispatch queued same-line accesses until one opens a transaction.

        Consecutive queued accesses can all be hits once the line arrived;
        each must be dispatched (stopping only at a new miss or an eviction
        in progress), or the remainder would wait forever.
        """
        while True:
            queued = self._queued_accesses.get(loc)
            if not queued:
                return
            access = queued.popleft()
            if not queued:
                del self._queued_accesses[loc]
            self._dispatch(access)
            if loc in self._transactions or loc in self._evicting:
                return

    def _service_pending_forwards(self, loc: Location) -> None:
        """Service forwards that overtook our data, now that the line is here."""
        pending = self._pending_forwards.pop(loc, None)
        if not pending:
            return
        for message in pending:
            self._on_forward(message)
