"""Content-addressed result store — the daemon's permanent memory.

Every WAIT-FREE-GATHER run is a pure function of ``(scenario, seed,
backend, engine, code version)`` — the determinism the paper's
crash-fault model guarantees and the replay suite enforces bit for bit.
That purity makes memoization *sound forever*: a cached result is not a
stale approximation that might need revalidating, it is the exact bytes
any future computation of the same key would produce.  The store
therefore never expires entries and never revalidates; keys include the
package version, so a code change simply addresses a different entry.

Two layers, both optional:

* an in-memory LRU (``memory_entries`` newest keys) serving repeated
  traffic at dict-lookup speed;
* an on-disk layer under ``root`` (sharded by key prefix), written
  through :func:`~repro.resilience.atomic.atomic_write` — temp file +
  fsync + atomic rename — so concurrent daemons sharing one store
  directory can never serve a torn read: a reader sees either a whole
  document or no file at all.

Integrity (``repro-store/1``): atomic writes rule out *torn* files, not
*corrupted* ones — bit rot, a truncating filesystem, or an operator's
stray editor can all mutate bytes after the rename.  Every on-disk
entry therefore carries a header line with the sha256 of its body::

    {"schema": "repro-store/1", "sha256": "<hex64>"}\\n
    <body bytes, verbatim>

and every disk read re-hashes the body against the header.  A mismatch
is handled the way the paper handles a crashed robot: isolate and carry
on — the corrupt file is moved to ``<root>/quarantine/`` (preserved for
forensics, out of the serving path) and the read reports a **miss**, so
the caller transparently recomputes.  Corruption is never an error.
Likewise a failed disk *write* (disk full, read-only filesystem)
degrades the store to memory-only with one warning instead of failing
the request: the disk layer is an optimization, never a dependency.

Values are the exact serialized response body (a ``str``), not a parsed
document: what the cache returns is byte-identical to what the first
computation sent, which is the property the CI serve job asserts.

Offline audits: :meth:`ResultStore.verify_disk`,
:meth:`ResultStore.gc_disk` and :meth:`ResultStore.disk_stats` back the
``repro serve-store`` CLI (``verify`` / ``gc`` / ``stats``) so an
operator can sweep a shared store without a daemon in the loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..obs.log import get_logger
from ..resilience import ChaosPolicy, atomic_write
from ..sim.trace import scenario_hash

__all__ = ["ResultStore", "result_key", "STORE_SCHEMA"]

slog = get_logger("repro.serve.store")

#: Schema of the on-disk entry envelope (header line + verbatim body).
STORE_SCHEMA = "repro-store/1"

#: Subdirectory (under the store root) corrupt entries are moved to.
QUARANTINE_DIR = "quarantine"


def result_key(
    scenario: Optional[dict],
    seed: int,
    *,
    backend: str,
    engine: str,
    code_version: str,
) -> str:
    """The content address of one run (sha256 hex, 64 chars)."""
    return scenario_hash(
        scenario,
        seed=seed,
        backend=backend,
        engine=engine,
        code_version=code_version,
    )


def _body_digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def encode_entry(body: str) -> str:
    """Body -> on-disk envelope (header line + verbatim body)."""
    header = json.dumps(
        {"schema": STORE_SCHEMA, "sha256": _body_digest(body)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return header + "\n" + body


def decode_entry(raw: str) -> Optional[str]:
    """Envelope -> verified body, or ``None`` when the bytes are corrupt.

    A file written before the envelope existed (no parseable
    ``repro-store/1`` header) is accepted as a legacy raw body — an
    upgraded daemon must keep serving a store populated by an old one —
    but anything *claiming* to be an envelope must verify.
    """
    header_line, sep, body = raw.partition("\n")
    if not sep:
        # Single line: either a legacy raw body or a truncated envelope.
        try:
            document = json.loads(header_line)
        except ValueError:
            return None
        if (
            isinstance(document, dict)
            and document.get("schema") == STORE_SCHEMA
        ):
            return None  # header without its body: truncated
        return raw  # legacy single-line raw body
    try:
        header = json.loads(header_line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("schema") != STORE_SCHEMA:
        return raw  # legacy raw body that happens to span lines
    if header.get("sha256") != _body_digest(body):
        return None
    return body


class ResultStore:
    """In-memory LRU over an optional on-disk layer with verified reads.

    Thread-safe: the daemon handles requests on a thread per connection,
    and the lock only guards the ordered dict — disk I/O happens outside
    it so a slow write never blocks a memory-speed hit.

    ``hits`` / ``misses`` / ``disk_hits`` / ``stores`` / ``quarantined``
    / ``write_errors`` / ``read_errors`` are plain counters read by
    ``GET /metrics`` and the serve tests; they make the
    cache auditable without scraping logs.

    ``chaos`` (a :class:`~repro.resilience.ChaosPolicy`, normally wired
    from ``REPRO_CHAOS`` by the server) deterministically injects
    ``OSError`` into disk reads/writes — through the *same* code paths
    real disk faults take, so the chaos suite proves the production
    degradation behavior, not a test-only branch.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        memory_entries: int = 4096,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.root = root
        self.memory_entries = memory_entries
        self.chaos = chaos
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key disk-op counters: the chaos "attempt" number, so a
        #: fault injected on one read re-rolls on the retry — transient
        #: faults heal, which is what the self-healing tests assert.
        self._io_attempts: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self.quarantined = 0
        self.write_errors = 0
        self.read_errors = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _path(self, key: str) -> str:
        # Two-character shard, mirroring git's object layout, so a
        # million-entry store never piles every file into one directory.
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _quarantine_path(self, key: str) -> str:
        return os.path.join(self.root, QUARANTINE_DIR, f"{key}.json")

    def _maybe_inject(self, kind: str, key: str) -> None:
        """Raise a deterministic OSError when chaos schedules one."""
        if self.chaos is None:
            return
        with self._lock:
            attempt = self._io_attempts.get(f"{kind}:{key}", 0)
            self._io_attempts[f"{kind}:{key}"] = attempt + 1
        if self.chaos.decide_serve(kind, key, attempt):
            raise OSError(f"chaos: injected {kind} fault for {key}")

    # -- serving path ------------------------------------------------------

    def get(self, key: str, *, count: bool = True) -> Optional[str]:
        """The cached body for ``key``, or ``None`` on a miss.

        A memory hit refreshes the key's LRU position.  A disk hit is
        digest-verified, then promoted into memory so repeated traffic
        converges to memory speed even after a daemon restart.  A
        corrupt disk entry is quarantined and reported as a miss.

        ``count=False`` skips the hit/miss counters — for internal
        re-checks (e.g. the single-flight leader confirming its miss)
        that would otherwise double-count one client request.
        """
        with self._lock:
            body = self._memory.get(key)
            if body is not None:
                self._memory.move_to_end(key)
                if count:
                    self.hits += 1
                return body
        if self.root is not None:
            try:
                self._maybe_inject("store_read", key)
                with open(self._path(key), "r", encoding="utf-8") as handle:
                    raw = handle.read()
            except FileNotFoundError:
                raw = None
            except OSError:
                # A transient read failure is a miss, never an error:
                # the value is recomputable by definition.
                with self._lock:
                    self.read_errors += 1
                raw = None
            if raw is not None:
                body = decode_entry(raw)
                if body is None:
                    self._quarantine(key)
                else:
                    with self._lock:
                        if count:
                            self.hits += 1
                            self.disk_hits += 1
                        self._remember(key, body)
                    return body
        if count:
            with self._lock:
                self.misses += 1
        return None

    def put(self, key: str, body: str) -> None:
        """Store one computed body under its content address.

        The disk write is atomic (whole-or-nothing), so two daemons
        racing to store the same key both land complete documents —
        and by determinism, identical ones, so the race has no loser.
        A failing disk (full, read-only, chaos) degrades the store to
        memory-only with one warning: a request whose result cannot be
        persisted is still a served request.
        """
        with self._lock:
            self.stores += 1
            self._remember(key, body)
        if self.root is not None:
            try:
                self._maybe_inject("store_write", key)
                atomic_write(self._path(key), encode_entry(body))
            except OSError as exc:
                with self._lock:
                    self.write_errors += 1
                slog.warn_once(
                    f"store.write_error:{self.root}",
                    "store.write_error",
                    f"result store disk write failed "
                    f"({type(exc).__name__}: {exc}); serving from memory "
                    f"only, disk writes keep being attempted",
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry out of the serving path, keeping it."""
        with self._lock:
            self.quarantined += 1
        destination = self._quarantine_path(key)
        try:
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(self._path(key), destination)
        except OSError:
            # Unlink beats leaving a poisoned file where every future
            # read re-trips on it; if even that fails the entry simply
            # stays a (logged) persistent miss.
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
        slog.warning(
            "store.entry_quarantined",
            f"quarantined corrupt result store entry {key} (digest "
            f"mismatch or truncated envelope); it will be recomputed "
            f"on demand",
            key=key,
        )

    def _remember(self, key: str, body: str) -> None:
        # Caller holds the lock.
        self._memory[key] = body
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def counters(self) -> dict:
        """Auditable cache counters (the ``/metrics`` cache block)."""
        with self._lock:
            return {
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "quarantined": self.quarantined,
                "write_errors": self.write_errors,
                "read_errors": self.read_errors,
                "memory_entries": len(self._memory),
                "memory_limit": self.memory_entries,
                "disk": self.root,
            }

    # -- offline audits (``repro serve-store``) ----------------------------

    def _iter_disk_keys(self):
        """Yield ``(key, path)`` for every on-disk entry, sorted."""
        if self.root is None or not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if shard == QUARANTINE_DIR or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")], os.path.join(shard_dir, name)

    def verify_disk(self, *, repair: bool = True) -> dict:
        """Digest-check every on-disk entry; optionally quarantine.

        ``repair=True`` (the CLI default) moves corrupt entries to the
        quarantine directory exactly like the serving path would; with
        ``repair=False`` it only reports.  Returns a summary document.
        """
        checked = corrupt = legacy = unreadable = 0
        bad_keys = []
        for key, path in self._iter_disk_keys():
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    raw = handle.read()
            except OSError:
                unreadable += 1
                continue
            body = decode_entry(raw)
            if body is None:
                corrupt += 1
                bad_keys.append(key)
                if repair:
                    self._quarantine(key)
            elif body == raw:
                # decode returned the input unchanged: a pre-envelope
                # legacy entry that carries no digest to verify.
                legacy += 1
        return {
            "root": self.root,
            "checked": checked,
            "ok": checked - corrupt - unreadable,
            "corrupt": corrupt,
            "legacy": legacy,
            "unreadable": unreadable,
            "quarantined": corrupt if repair else 0,
            "corrupt_keys": bad_keys,
        }

    def gc_disk(self) -> dict:
        """Delete quarantined entries and stray temp files.

        Quarantine is a forensic holding area, not a second cache —
        once an operator has looked (or decided not to), ``gc`` frees
        the space.  Stray ``*.tmp`` files are debris of writers that
        died between ``mkstemp`` and rename; they are never read by
        anything and are safe to remove.
        """
        removed = 0
        freed_bytes = 0
        if self.root is None or not os.path.isdir(self.root):
            return {"root": self.root, "removed": 0, "freed_bytes": 0}
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        victims = []
        if os.path.isdir(quarantine):
            victims.extend(
                os.path.join(quarantine, name)
                for name in sorted(os.listdir(quarantine))
            )
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".tmp"):
                    victims.append(os.path.join(dirpath, name))
        for path in victims:
            try:
                freed_bytes += os.path.getsize(path)
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return {
            "root": self.root,
            "removed": removed,
            "freed_bytes": freed_bytes,
        }

    def disk_stats(self) -> dict:
        """Entry/byte counts of the disk layer (plus quarantine)."""
        entries = 0
        total_bytes = 0
        for _, path in self._iter_disk_keys():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        quarantined = 0
        quarantine = (
            os.path.join(self.root, QUARANTINE_DIR) if self.root else None
        )
        if quarantine and os.path.isdir(quarantine):
            quarantined = len(os.listdir(quarantine))
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "quarantined": quarantined,
        }
