"""End-to-end shuffle data integrity: checksums, corruption, quarantine.

Real Hadoop 0.20.2 wraps every IFile segment (and every HDFS block) in
CRC32 checksums because intermediate data crosses three lossy hops —
local spill disks, the TaskTracker-side cache, and the transport — and a
silently flipped bit on any of them merges cleanly into wrong output.
This module gives the simulation the same end-to-end property:

* **Checksummed artifacts.**  Every durable artifact carries a cheap
  deterministic digest (:func:`fnv1a64` over a logical content
  fingerprint): map-output files (``LocalFile.checksum``), cached
  segments (``PrefetchCache`` entry checksums), HDFS block replicas, and
  shuffle exchanges in all three engines.  The simulation does not model
  payload bytes, so "corruption" is a seeded draw that perturbs the
  stored digest relative to the recomputed one — detection then works
  exactly like the real thing: recompute, compare, mismatch.

* **Silent-corruption injection.**  :class:`repro.faults.FaultPlan`
  gains ``DiskCorruption`` (per-node/per-disk bit flips on read, plus a
  write-time *rot* rate that poisons the canonical on-disk copy),
  ``WireCorruption`` (per-packet corruption on a node's links), and
  ``SegmentFault`` (truncated / stale segment served by a responder).
  All draws come from per-node named streams of the cluster's seeded
  RNG family, so corruption is attributable and bit-reproducible, and
  one node's draws never perturb another's.

* **Detection + recovery.**  Verify-on-read (disk, cache, HDFS) and
  verify-on-receive (transport).  Every detection raises ``integrity.*``
  counters and a zero-width tracer span, then recovers: re-fetch the
  exchange, re-read the replica (failing over to another location),
  invalidate the poisoned cache entry and fall through to disk, or —
  when the canonical map output itself is rotten — condemn the output
  and re-execute the map through PR 3's fetch-failure path.  The ledger
  guarantees ``integrity.detected == integrity.recovered`` once the job
  completes: each detection opens a pending entry keyed by artifact and
  a later clean verify (or condemnation) of that artifact settles it.

* **Health scoring + quarantine.**  Each detection feeds a per-node
  EWMA failure score (and a per-disk tally); a node whose score crosses
  ``JobConf.quarantine_threshold`` after at least
  ``quarantine_min_failures`` failures is quarantined: excluded from
  replica preference (NameNode placement and DFS read failover) and new
  task placement, and its provider drops its cached segments.

Everything is inert by default: the manager is only created when
``JobConf.integrity_checksums`` is on or the fault plan carries
corruption entries, and with checksums on but nothing corrupting,
verification costs zero simulated time — counters move, timing doesn't.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.obs.phases import PhaseTracer
    from repro.sim.core import Simulator
    from repro.sim.rng import RandomStreams

__all__ = ["IntegrityManager", "fingerprint", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: XOR mask applied to a stored digest to model a flipped bit.
CORRUPTION_MASK = 0x5DEECE66D

#: EWMA weight of one checksum failure in a node's health score.
EWMA_ALPHA = 0.25

#: All integrity counters, pre-seeded so the exported key set is stable.
COUNTER_KEYS = (
    "verified",
    "verified_bytes",
    "detected",
    "recovered",
    "disk_flips",
    "disk_rot",
    "truncated",
    "stale",
    "cache_corruptions",
    "wire_corruptions",
    "hdfs_corruptions",
    "rereads",
    "refetches",
    "replica_failovers",
    "cache_invalidations",
    "condemned",
    "quarantined_trackers",
    "quarantine.fallback",
)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a — cheap, deterministic, dependency-free."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def fingerprint(*fields: object) -> int:
    """Digest of a logical content identity (not of payload bytes).

    The simulation never materialises segment payloads, so artifacts are
    checksummed over the fields that *determine* their content: job id,
    task ids, byte counts, hosting node.  Two artifacts that would hold
    different data get different digests; a re-executed map's replacement
    output (different host or attempt) re-fingerprints.
    """
    return fnv1a64("\x1f".join(repr(f) for f in fields).encode())


class _Health:
    """EWMA failure score for one node (asymmetric: fast up, slow down)."""

    __slots__ = ("score", "failures")

    def __init__(self) -> None:
        self.score = 0.0
        self.failures = 0

    def fail(self) -> None:
        self.failures += 1
        self.score += EWMA_ALPHA * (1.0 - self.score)

    def ok(self) -> None:
        # Forgive at a quarter of the blame rate: a sick disk that fails
        # one read in three must still climb, not hover.
        self.score *= 1.0 - EWMA_ALPHA / 4.0


class IntegrityManager:
    """Per-job runtime of the integrity layer (``ctx.integrity``).

    Owns the corruption draws (seeded, per-node streams), the detection
    counters, the detected/recovered ledger, and the quarantine list.
    Created only when checksums or a corruption plan are configured —
    every hook in the data plane is behind ``ctx.integrity is not None``.
    """

    def __init__(
        self,
        sim: "Simulator",
        rng: "RandomStreams",
        plan: "FaultPlan | None",
        node_names: Iterable[str],
        *,
        quarantine_threshold: float = 0.6,
        quarantine_min_failures: int = 4,
        tracer: "PhaseTracer | None" = None,
    ):
        self.sim = sim
        self._rng = rng
        self._tracer = tracer
        self.nodes = list(node_names)
        self.threshold = quarantine_threshold
        self.min_failures = quarantine_min_failures

        self.counters = Counter()
        for key in COUNTER_KEYS:
            self.counters.add(key, 0.0)

        # Per-node corruption rates from the plan (empty dicts when the
        # manager runs checksum-only: every verify passes, nothing draws).
        self._disk: dict[str, tuple[float, float, int]] = {}
        self._wire: dict[str, float] = {}
        self._segment: dict[str, list[tuple[float, str]]] = {}
        if plan is not None:
            for d in plan.disk_corruptions:
                self._disk[d.node] = (d.rate, d.rot_rate, d.disk)
            for w in plan.wire_corruptions:
                self._wire[w.node] = w.rate
            for s in plan.segment_faults:
                self._segment.setdefault(s.node, []).append((s.rate, s.kind))

        self._streams: dict[str, object] = {}
        #: Open detections: artifact key -> number of unsettled detections.
        self._pending: dict[tuple, int] = {}
        #: Artifacts condemned for re-execution; late detections on these
        #: are already being recovered and settle immediately.
        self._condemned: set[tuple] = set()
        self._health: dict[str, _Health] = {}
        self._disk_failures: dict[str, int] = {}
        self.quarantine: set[str] = set()
        self._quarantine_hooks: list[Callable[[str], None]] = []

    # -- seeded draws --------------------------------------------------------

    def _stream(self, name: str):
        s = self._streams.get(name)
        if s is None:
            s = self._rng.stream(name)
            self._streams[name] = s
        return s

    def _draw(self, family: str, node: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        return float(self._stream(f"integrity-{family}-{node}").uniform()) < rate

    # -- ledger --------------------------------------------------------------

    def _detected(self, counter: str | None, node: str, key: tuple) -> None:
        self.counters.add("detected", 1)
        if counter is not None:
            self.counters.add(counter, 1)
        if key in self._condemned:
            # Already being re-executed; this stale copy's mismatch is
            # covered by that recovery.
            self.counters.add("recovered", 1)
        else:
            self._pending[key] = self._pending.get(key, 0) + 1
        self._note_failure(node)
        if self._tracer is not None:
            now = self.sim.now
            self._tracer.record(f"integrity-{node}", f"integrity-{counter}", now, now)

    def _verified(self, node: str, key: tuple, nbytes: float = 0.0) -> None:
        self.counters.add("verified", 1)
        self.counters.add("verified_bytes", nbytes)
        open_count = self._pending.pop(key, 0)
        if open_count:
            self.counters.add("recovered", open_count)
        h = self._health.get(node)
        if h is not None:
            h.ok()

    def note_condemned(self, host: str, file_name: str) -> None:
        """The canonical artifact at ``(host, file_name)`` was condemned.

        Re-execution *is* the recovery for every open detection on it; the
        replacement output gets a fresh key (new stamp), so settle now.
        """
        key = ("disk", host, file_name)
        self._condemned.add(key)
        open_count = self._pending.pop(key, 0)
        if open_count:
            self.counters.add("recovered", open_count)
            self.counters.add("condemned", 1)

    # -- health / quarantine -------------------------------------------------

    def _note_failure(self, node: str) -> None:
        h = self._health.get(node)
        if h is None:
            h = self._health[node] = _Health()
        h.fail()
        if (
            node not in self.quarantine
            and h.failures >= self.min_failures
            and h.score >= self.threshold
        ):
            self.quarantine.add(node)
            self.counters.add("quarantined_trackers", 1)
            for fn in self._quarantine_hooks:
                fn(node)

    def note_disk_error(self, node: str) -> None:
        """An attributable hard disk-read error (``FaultInjector``) on ``node``.

        Hard read errors and silent flips feed the same health score: both
        say "this disk is going".
        """
        self._disk_failures[node] = self._disk_failures.get(node, 0) + 1
        self._note_failure(node)

    def on_quarantine(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(node_name)`` to run when a node is quarantined."""
        self._quarantine_hooks.append(fn)

    def quarantined(self, node: str) -> bool:
        return node in self.quarantine

    def health_score(self, node: str) -> float:
        """Current EWMA failure score for ``node`` (0.0 = spotless)."""
        h = self._health.get(node)
        return h.score if h is not None else 0.0

    def note_quarantine_fallback(self, node: str) -> None:
        """Placement had no non-quarantined tracker and fell back to
        ``node`` (the least-degraded of the quarantined).  Previously this
        happened silently in arbitrary order; now bench reports can see
        how often the job was forced onto suspect hardware.
        """
        self.counters.add("quarantine.fallback", 1)
        if self._tracer is not None:
            now = self.sim.now
            self._tracer.record(
                f"integrity-{node}", "integrity-quarantine-fallback", now, now
            )

    def note_migrated(self, node: str, reduce_id: int) -> None:
        """A reduce attempt was migrated off quarantined ``node``.

        The abandoned attempt's partially fetched state is refetched from
        scratch by the relaunch (partitioning is deterministic, so the
        replacement bytes are identical); settle its open detections —
        in-flight wire exchanges destined for this reducer and the staged
        spill files it wrote on ``node`` — so the ledger's
        detected == recovered invariant survives the kill.
        """
        prefix = f"staged/r{reduce_id}a"
        settled = 0
        for key in list(self._pending):
            kind = key[0]
            if (
                kind == "wire"
                and key[1] == node
                and isinstance(key[2], tuple)
                and len(key[2]) == 2
                and key[2][1] == reduce_id
            ):
                settled += self._pending.pop(key)
            elif (
                kind == "disk"
                and key[1] == node
                and str(key[2]).startswith(prefix)
            ):
                settled += self._pending.pop(key)
        if settled:
            self.counters.add("recovered", settled)

    # -- per-hop checks ------------------------------------------------------

    def stamp_artifact(self, node: str, file) -> None:
        """Checksum a freshly committed map output; maybe rot it on write.

        Rot models the write itself landing flipped bits on the platter:
        the stored digest no longer matches the content fingerprint, every
        future read of this file fails verification, and the only recovery
        is condemning the output and re-executing the map.
        """
        file.checksum = fingerprint("file", node, file.name, file.size)
        rates = self._disk.get(node)
        if rates is not None and self._on_disk(file, rates[2]):
            if self._draw("rot", node, rates[1]):
                file.rotten = True
                file.checksum ^= CORRUPTION_MASK
                self.counters.add("disk_rot", 1)

    @staticmethod
    def _on_disk(file, disk_index: int) -> bool:
        """Does a ``DiskCorruption`` entry scoped to one disk cover ``file``?"""
        if disk_index < 0:
            return True
        return file.disk.name.endswith(f".disk{disk_index}")

    def check_segment_read(self, node: str, file, nbytes: float) -> str:
        """Verify a provider-side segment read; ``ok|transient|persistent``.

        ``persistent`` means the on-disk copy itself is rotten (write-time
        corruption): retrying the read cannot help, the output must be
        condemned.  ``transient`` is a read-path bit flip: the next read
        draws fresh.
        """
        key = ("disk", node, file.name)
        if getattr(file, "rotten", False):
            # The write-time `disk_rot` tally already attributes the cause;
            # each read that trips over it only counts as a detection.
            self._detected(None, node, key)
            return "persistent"
        rates = self._disk.get(node)
        if rates is not None and self._on_disk(file, rates[2]):
            if self._draw("disk", node, rates[0]):
                self._detected("disk_flips", node, key)
                return "transient"
        self._verified(node, key, nbytes)
        return "ok"

    def local_read_flipped(self, node: str, file, nbytes: float) -> bool:
        """Verify a consumer-side local read (staged shuffle data).

        Transient only — staged files are re-readable, so the caller just
        re-reads on mismatch (count it via :meth:`note_reread`).
        """
        key = ("disk", node, file.name)
        rates = self._disk.get(node)
        if rates is not None and self._on_disk(file, rates[2]):
            if self._draw("disk", node, rates[0]):
                self._detected("disk_flips", node, key)
                return True
        self._verified(node, key, nbytes)
        return False

    def note_reread(self) -> None:
        self.counters.add("rereads", 1)

    def note_refetch(self) -> None:
        self.counters.add("refetches", 1)

    def segment_serve_fault(self, node: str, file_name: str) -> str | None:
        """Draw truncated/stale segment faults for one responder serve.

        Shares the disk artifact key — a later clean serve of the same
        file (or its condemnation) settles the detection.
        """
        for rate, kind in self._segment.get(node, ()):
            if self._draw("seg", node, rate):
                self._detected(kind, node, ("disk", node, file_name))
                return kind
        return None

    def settle_serve(self, node: str, file_name: str) -> None:
        """A cache-hit serve of ``file_name`` completed cleanly.

        The cached copy carries its own verified digest, so a successful
        serve recovers any open truncated/stale serve fault against the
        file — without it, a file whose every later serve hits the cache
        would leak its pending detection.
        """
        self._verified(node, ("disk", node, file_name))

    def cache_load_corrupted(self, node: str) -> bool:
        """Draw: does this prefetch/demand load poison the cached copy?

        Silent at load time — the bad digest sits in the cache until a
        reducer's fetch verifies it (:meth:`check_cache_hit`).
        """
        rates = self._disk.get(node)
        if rates is None:
            return False
        return self._draw("cache", node, rates[0])

    def check_cache_hit(
        self, node: str, seg_id: tuple, stored: int | None, expected: int
    ) -> bool:
        """Verify a cache hit; True when the entry is poisoned (evict it)."""
        key = ("cache", node, seg_id)
        if stored is not None and stored != expected:
            self._detected("cache_corruptions", node, key)
            self.counters.add("cache_invalidations", 1)
            return True
        self._verified(node, key)
        return False

    def settle_cache_recovery(self, node: str, seg_id: tuple) -> None:
        """The disk re-read replacing a poisoned cache entry completed."""
        self._verified(node, ("cache", node, seg_id))

    def wire_corrupted(
        self, src: str, dst: str, n_packets: float, seg: tuple
    ) -> bool:
        """Verify-on-receive for one shuffle exchange of ``n_packets``.

        Per-packet corruption applies when either endpoint's link is in
        the plan; one seeded draw per exchange against the compound
        probability ``1 - (1 - p_eff)^n`` keeps draws cheap and streams
        stable.  The receiver re-requests on mismatch.  Keyed by the
        *segment* being exchanged, not the link pair: when the re-request
        itself dies (the re-serve draws a disk fault and the output is
        condemned), the clean delivery that settles the detection comes
        from whichever host serves the replacement.
        """
        key = ("wire", dst, seg)
        p_src = self._wire.get(src, 0.0)
        p_dst = self._wire.get(dst, 0.0)
        p_packet = 1.0 - (1.0 - p_src) * (1.0 - p_dst)
        if p_packet > 0.0 and n_packets > 0:
            p_exchange = 1.0 - (1.0 - p_packet) ** max(1.0, n_packets)
            if self._draw("wire", dst, p_exchange):
                # Blame the planned endpoint (the receiver may be clean).
                sick = src if p_src >= p_dst else dst
                self._detected("wire_corruptions", sick, key)
                return True
        self._verified(dst, key)
        return False

    def hdfs_read_corrupted(self, owner: str, block_id: str, nbytes: float) -> bool:
        """Verify one HDFS block (or partial-block) read off ``owner``.

        Keyed by block, not by replica: recovery is *any* clean read of
        the block, usually off another location.
        """
        key = ("hdfs", block_id)
        rates = self._disk.get(owner)
        if rates is not None and self._draw("hdfs", owner, rates[0]):
            self._detected("hdfs_corruptions", owner, key)
            return True
        self._verified(owner, key, nbytes)
        return False

    def note_replica_failover(self) -> None:
        self.counters.add("replica_failovers", 1)

    # -- reporting -----------------------------------------------------------

    @property
    def pending_detections(self) -> int:
        return sum(self._pending.values())

    def metrics_snapshot(self) -> dict[str, float]:
        out = self.counters.as_dict()
        for node, h in sorted(self._health.items()):
            out[f"score.{node}"] = h.score
            out[f"failures.{node}"] = float(h.failures)
        for node, n in sorted(self._disk_failures.items()):
            out[f"disk_errors.{node}"] = float(n)
        return out

    def report(self) -> dict:
        """Phase-report section: ledger totals, scores, quarantine list.

        ``scores`` and ``quarantined`` appear only when non-empty — a
        checksums-only run with nothing corrupting reports the ledger
        totals without empty placeholder rows.
        """
        out = {
            "detected": self.counters.get("detected"),
            "recovered": self.counters.get("recovered"),
            "pending": float(self.pending_detections),
        }
        if self._health:
            out["scores"] = {n: h.score for n, h in sorted(self._health.items())}
        if self.quarantine:
            out["quarantined"] = sorted(self.quarantine)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IntegrityManager detected={self.counters.get('detected'):.0f} "
            f"recovered={self.counters.get('recovered'):.0f} "
            f"quarantined={sorted(self.quarantine)}>"
        )
