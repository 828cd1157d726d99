"""Persistent on-disk cache of simulation and thermal results.

Every figure consumes the same (benchmark x configuration) grid of
trace-replay simulations, and those simulations are deterministic: the
trace is a pure function of (benchmark name, length, seed) and the timing
model is a pure function of (trace, config, warmup).  Thermal solves are
equally deterministic — a pure function of the solver geometry and the
power grids.  The cache exploits that determinism to make repeated CLI
invocations, benchmark sessions, and report regenerations hit disk
instead of re-simulating or re-solving.

Layout::

    .repro_cache/
        v1/                     <- one directory per key-schema version
            ab/
                ab3f...e2.pkl.gz   <- one gzip-compressed pickled
                                      SimulationResult or ThermalResult
                                      per key

Keys are SHA-256 content hashes over everything a result depends on.
For simulations: the key-schema version, the workload-generator version,
the timing-simulator version, the benchmark name, the fidelity knobs
(trace length, warmup), and every field of the :class:`CPUConfig`.  For
thermal solves (:func:`thermal_key`): the thermal model version, the
solver's geometry fingerprint, and the power grids' raw bytes.
Changing any of these yields a different key, so stale entries are never
*returned* — and bumping :data:`CACHE_SCHEMA_VERSION` moves the cache to
a fresh ``v<N>/`` directory, leaving old versions inert until
``python -m repro cache clear`` (or :meth:`ResultCache.prune_stale`)
removes them.

The cache is on by default; ``REPRO_CACHE=0`` disables it and
``REPRO_CACHE_DIR`` relocates it.

Two cross-process concerns are handled here as well:

* **claim files** — ``<key>.claim`` markers (created with
  ``O_CREAT|O_EXCL``, carrying the claimant's pid and a timestamp) let
  concurrent cold starts on the same key deduplicate to one simulation:
  the loser waits for the winner's entry instead of re-simulating, and
  takes over stale claims whose holder died.  Claims are advisory —
  losing one never blocks progress, it only avoids duplicate work.
* **size bound** — ``REPRO_CACHE_MAX_MB`` sets a high-water mark; every
  ``store`` evicts entries until the cache fits.  Sizes come from an
  exact, crash-safe, sharded on-disk **size ledger**
  (:class:`SizeLedger`): each store/unlink appends a delta record to
  one of ``LEDGER_SHARDS`` append-only shard files (serialized by the
  same ``O_CREAT|O_EXCL`` lock-file protocol the claims use), and a
  compaction pass periodically folds the shards into a checkpoint.
  ``enforce_size_cap`` therefore reads the ledger total instead of
  re-``stat``-ing the whole directory on every store, concurrent
  writers share one exact total (a single cross-process eviction lock
  stops them from each evicting below the watermark), compiled-trace
  entries count against the cap and are evicted *first* (they are
  large and cheap to regenerate), and entries another process holds a
  live claim on are never eviction victims.  Loads still touch their
  entry's mtime *before* reading, so an entry being read sorts
  freshest among the remaining victims and survives.
"""

from __future__ import annotations

import dataclasses
import enum
import gzip
import hashlib
import itertools
import json
import os
import pickle
import shutil
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.results import SimulationResult

#: Bump when the cache key schema or the pickled payload layout changes.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable relocating the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache ("0", "off", "no", "false").
ENV_CACHE_ENABLED = "REPRO_CACHE"

#: Environment variable bounding the cache size (megabytes, float OK).
ENV_CACHE_MAX_MB = "REPRO_CACHE_MAX_MB"

_DISABLED_VALUES = frozenset({"0", "off", "no", "false"})

#: Suffix of cross-process claim markers (next to their ``.pkl.gz`` entry).
CLAIM_SUFFIX = ".claim"

#: Age beyond which a claim is stale even if its holder pid is alive
#: (a wedged holder must not block other processes forever).
DEFAULT_CLAIM_STALE_S = 1800.0

#: Shard files the size ledger spreads its append-only delta records
#: across (more shards = less lock contention between writers).
LEDGER_SHARDS = 4

#: A shard larger than this triggers an opportunistic compaction pass
#: that folds every shard into the checkpoint.
LEDGER_COMPACT_BYTES = 32 * 1024

#: Age beyond which a ledger lock held by a live pid is broken anyway
#: (appends and compactions take milliseconds; a minute-old lock is a
#: wedged or killed holder).
LEDGER_LOCK_STALE_S = 60.0

#: Bounded wait for the cross-process eviction lock before enforcing
#: the size cap uncoordinated (never starve; duplicate eviction only
#: risks dipping below the watermark, not correctness).
EVICT_LOCK_WAIT_S = 5.0


def _canonical(value):
    """JSON-serializable canonical form of a config field value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def simulation_key(
    benchmark: str,
    config: CPUConfig,
    trace_length: int,
    warmup: int,
) -> str:
    """Content hash identifying one deterministic simulation."""
    from repro.cpu.results import SIMULATOR_VERSION
    from repro.workloads.parameters import GENERATOR_VERSION

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "simulator": SIMULATOR_VERSION,
        "generator": GENERATOR_VERSION,
        "benchmark": benchmark,
        "trace_length": trace_length,
        "warmup": warmup,
        "config": _canonical(dataclasses.asdict(config)),
    }
    return _digest(payload)


def thermal_key(solver, die_power_grids) -> str:
    """Content hash identifying one deterministic thermal solve.

    Covers the solver's full result geometry (stack layers, floorplan,
    grid resolution, spreader, boundary conditions — see
    :meth:`repro.thermal.solver.ThermalSolver.result_key`) plus the raw
    bytes of every per-die power grid.
    """
    import numpy as np

    digest = hashlib.sha256()
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "thermal",
        "geometry": _canonical(solver.result_key()),
    }
    digest.update(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for grid in die_power_grids:
        array = np.ascontiguousarray(np.asarray(grid, dtype=np.float64))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def interval_trace_key(
    sim_key: str,
    interval_insts: int,
    activity_scale: float,
    core_count: int,
    solver,
) -> str:
    """Content hash identifying one interval power trace.

    Covers the simulation it was extracted from (``sim_key`` already
    folds in trace, config, simulator and generator versions), the power
    model's version, the interval granularity, the calibrated power
    scale, the core replication factor, and the rasterization geometry
    (the solver's :meth:`~repro.thermal.solver.ThermalSolver.result_key`,
    since the trace stores chip-resolution per-die grids).
    """
    from repro.power.model import POWER_MODEL_VERSION

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "interval_trace",
        "power_model": POWER_MODEL_VERSION,
        "sim": sim_key,
        "interval_insts": interval_insts,
        "activity_scale": activity_scale,
        "core_count": core_count,
        "geometry": _canonical(solver.result_key()),
    }
    return _digest(payload)


def transient_key(schedule_key: dict, solver, dt_s: float,
                  duration_s: float, initial_k) -> str:
    """Content hash identifying one deterministic transient run.

    ``schedule_key`` is the schedule's own description
    (:meth:`~repro.thermal.transient.PowerSchedule.cache_key`: its class,
    parameters, and the content key of the power input it replays, e.g.
    an :func:`interval_trace_key`); the rest is the integration setup —
    the step matrix (:func:`~repro.thermal.transient.step_matrix_key`),
    the solver's full result geometry, the window and the start
    temperature.
    """
    from repro.thermal.transient import step_matrix_key

    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "transient",
        "schedule": _canonical(schedule_key),
        "step_matrix": _canonical(step_matrix_key(solver, dt_s)),
        "geometry": _canonical(solver.result_key()),
        "duration_s": float(duration_s),
        "initial_k": None if initial_k is None else float(initial_k),
    })


def leakage_key(dynamic_key: str, leak_key: str, reference_k: float,
                efold_k: float) -> str:
    """Content hash identifying one leakage-feedback fixed point: the
    :func:`thermal_key` of its dynamic and of its reference leakage grids
    (each already covering the geometry), the feedback loop's version,
    and the leakage model's reference and e-folding temperatures."""
    from repro.thermal.feedback import FEEDBACK_VERSION

    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "leakage",
        "feedback": FEEDBACK_VERSION,
        "dynamic": dynamic_key,
        "leakage": leak_key,
        "reference_k": float(reference_k),
        "efold_k": float(efold_k),
    })


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


#: Per-process tiebreak so two records of one process sharing a wall-clock
#: timestamp still fold in append order.
_LEDGER_SEQ = itertools.count()


class SizeLedger:
    """Exact, crash-safe, sharded on-disk accounting of cache entry sizes.

    Layout (inside the cache's version directory)::

        ledger/
            checkpoint.json      <- folded state: {"gen": G, "entries":
                                    {"<kind>:<key>": [bytes, ts]}, "total": N}
            shard-00.g<G>.jsonl  <- append-only delta records of generation G
            shard-00.lock        <- O_CREAT|O_EXCL writer lock (pid + ts)
            compact.lock, evict.lock

    Every ``store``/``unlink`` appends one JSON record — ``{"op", "kind",
    "key", "bytes", "ts", "seq", "pid"}`` — to one of :data:`LEDGER_SHARDS`
    shard files, serialized by the same ``O_CREAT|O_EXCL`` lock-file
    protocol the cache's claims use (stale locks of dead or wedged
    holders are broken).  Reading the total folds the checkpoint with
    every current-generation shard record: O(shards) small-file reads,
    never an O(entries) directory scan.

    Crash model:

    * A writer killed mid-append leaves at most one torn trailing line;
      readers skip lines that do not parse, and :meth:`rebuild` (driven
      by :meth:`ResultCache.repair_ledger`'s directory scan) restores
      exactness.
    * Compaction is generation-based: it folds the generation-``G``
      shards, atomically replaces the checkpoint with generation
      ``G+1``, *then* deletes the folded shards.  A crash between the
      two steps leaves stale shards whose generation no longer matches
      the checkpoint; readers ignore them and the next compaction
      deletes them — deltas are never double-counted.
    * Records fold by ``(ts, seq)`` order, so a store and an unlink of
      the same key in different shards resolve the same way for every
      reader.
    """

    def __init__(self, directory: os.PathLike, shards: int = LEDGER_SHARDS):
        self.dir = Path(directory)
        self.shards = max(1, int(shards))
        self._checkpoint_cache: Optional[Tuple[tuple, dict]] = None
        #: per-process telemetry for the metrics snapshot
        self.appends = 0
        self.compactions = 0
        self.rebuilds = 0

    # -------------------------------------------------------------- #
    # Lock files (same O_CREAT|O_EXCL protocol as the cache claims)

    def _lock_path(self, name: str) -> Path:
        return self.dir / f"{name}.lock"

    def _try_lock(self, name: str) -> bool:
        """One non-blocking attempt at ``name``'s lock; breaks stale locks
        (dead holder, or older than :data:`LEDGER_LOCK_STALE_S`) first."""
        path = self._lock_path(name)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if self._lock_stale(path):
                try:
                    path.unlink()
                except OSError:
                    pass
            return False
        except OSError:
            return True  # filesystem refused coordination: run uncoordinated
        try:
            os.write(fd, json.dumps(
                {"pid": os.getpid(), "ts": time.time()}).encode("utf-8"))
        except OSError:
            pass
        finally:
            os.close(fd)
        return True

    @staticmethod
    def _lock_stale(path: Path) -> bool:
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return False  # vanished (released) or unreadable: retry instead
        try:
            holder = json.loads(raw)
        except ValueError:
            return True  # garbled lock: whoever wrote it died mid-write
        pid = holder.get("pid") if isinstance(holder, dict) else None
        if not isinstance(pid, int) or not _pid_alive(pid):
            return True
        ts = holder.get("ts")
        if not isinstance(ts, (int, float)):
            return True
        return (time.time() - ts) > LEDGER_LOCK_STALE_S

    def _unlock(self, name: str) -> None:
        try:
            self._lock_path(name).unlink()
        except OSError:
            pass

    def _acquire(self, name: str, wait_s: float) -> bool:
        """Acquire ``name``'s lock within ``wait_s`` seconds (False = give up)."""
        deadline = time.monotonic() + wait_s
        while not self._try_lock(name):
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.001)
        return True

    # -------------------------------------------------------------- #
    # Checkpoint

    def _checkpoint_path(self) -> Path:
        return self.dir / "checkpoint.json"

    @staticmethod
    def _empty_checkpoint() -> dict:
        return {"gen": 0, "entries": {}, "total": 0}

    def _read_checkpoint(self) -> dict:
        """The parsed checkpoint (cached by stat signature)."""
        path = self._checkpoint_path()
        try:
            st = path.stat()
        except OSError:
            self._checkpoint_cache = None
            return self._empty_checkpoint()
        signature = (st.st_mtime_ns, st.st_size, st.st_ino)
        cached = self._checkpoint_cache
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return self._empty_checkpoint()
        if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
            return self._empty_checkpoint()
        data.setdefault("gen", 0)
        self._checkpoint_cache = (signature, data)
        return data

    def _write_checkpoint(self, gen: int, entries: Dict[str, list]) -> bool:
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "gen": gen,
            "entries": entries,
            "total": sum(int(v[0]) for v in entries.values()),
            "ts": time.time(),
        }
        path = self._checkpoint_path()
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self._checkpoint_cache = None
        return True

    # -------------------------------------------------------------- #
    # Shards

    def _shard_path(self, index: int, gen: int) -> Path:
        return self.dir / f"shard-{index:02d}.g{gen}.jsonl"

    def _shard_files(self) -> List[Path]:
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("shard-*.jsonl"))

    @staticmethod
    def _shard_gen(path: Path) -> Optional[int]:
        try:
            return int(path.name.rsplit(".g", 1)[1].split(".", 1)[0])
        except (IndexError, ValueError):
            return None

    def _shard_records(self, gen: int) -> List[dict]:
        """Parsed records of every generation-``gen`` shard (torn trailing
        lines from writers killed mid-append are skipped)."""
        records: List[dict] = []
        for path in self._shard_files():
            if self._shard_gen(path) != gen:
                continue
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            for line in raw.splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "op" in record:
                    records.append(record)
        return records

    def shard_record_count(self) -> int:
        """Unfolded delta records currently in the shards (metrics)."""
        return len(self._shard_records(self._read_checkpoint().get("gen", 0)))

    def initialized(self) -> bool:
        """Whether the ledger has ever recorded anything (checkpoint or
        shard present).  False on a pre-ledger cache directory — the
        owner should bootstrap with :meth:`rebuild` from a scan."""
        return self._checkpoint_path().exists() or bool(self._shard_files())

    # -------------------------------------------------------------- #
    # Appends

    def record_store(self, kind: str, key: str, nbytes: int) -> bool:
        """Account a stored (or replaced) entry of ``nbytes`` bytes."""
        return self._append({"op": "store", "kind": kind, "key": key,
                             "bytes": int(nbytes)})

    def record_unlink(self, kind: str, key: str) -> bool:
        """Account a removed entry."""
        return self._append({"op": "unlink", "kind": kind, "key": key})

    def _append(self, record: dict) -> bool:
        """Append one delta record to a shard, under that shard's lock.

        Writers start at a pid-spread shard and probe the others when it
        is busy; with every shard locked they retry briefly, then append
        to their home shard *unlocked* as a last resort (a torn line is
        skipped by readers and healed by the next repair — blocking a
        store on ledger contention would be worse).  Appending re-reads
        the checkpoint generation under the lock, so a record can never
        land in a shard file a concurrent compaction already folded.
        """
        record = {**record, "ts": time.time(), "seq": next(_LEDGER_SEQ),
                  "pid": os.getpid()}
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        base = os.getpid() % self.shards
        shard_size = None
        locked = False
        for attempt in range(4 * self.shards):
            index = (base + attempt) % self.shards
            if not self._try_lock(f"shard-{index:02d}"):
                if attempt >= 2 * self.shards:
                    time.sleep(0.001)
                continue
            locked = True
            break
        if not locked:
            index = base
        try:
            gen = self._read_checkpoint().get("gen", 0)
            path = self._shard_path(index, gen)
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                with open(path, "ab") as stream:
                    stream.write(line)
                shard_size = path.stat().st_size
            except OSError:
                return False  # degraded filesystem: repair will resync
        finally:
            if locked:
                self._unlock(f"shard-{index:02d}")
        self.appends += 1
        if shard_size is not None and shard_size >= LEDGER_COMPACT_BYTES:
            self.compact()
        return True

    # -------------------------------------------------------------- #
    # Reads

    @staticmethod
    def _fold(entries: Dict[str, list], records: Iterable[dict]) -> Dict[str, list]:
        """Apply delta records to a checkpoint's entry map, in record order."""
        folded = {k: list(v) for k, v in entries.items()}
        def order(record):
            return (record.get("ts", 0.0), record.get("seq", 0))
        for record in sorted(records, key=order):
            key = record.get("key")
            kind = record.get("kind", "result")
            if not isinstance(key, str):
                continue
            composite = f"{kind}:{key}"
            if record.get("op") == "store":
                nbytes = record.get("bytes")
                if isinstance(nbytes, int) and nbytes >= 0:
                    folded[composite] = [nbytes, record.get("ts", 0.0)]
            else:
                folded.pop(composite, None)
        return folded

    def state(self) -> Dict[str, list]:
        """The folded entry map: ``{"<kind>:<key>": [bytes, store_ts]}``.

        Retries when a compaction replaces the checkpoint between the
        checkpoint read and the shard read, so the snapshot is always
        internally consistent.
        """
        for _ in range(3):
            checkpoint = self._read_checkpoint()
            gen = checkpoint.get("gen", 0)
            records = self._shard_records(gen)
            after = self._read_checkpoint()
            if after.get("gen", 0) == gen:
                return self._fold(checkpoint.get("entries", {}), records)
        return self._fold(after.get("entries", {}),
                          self._shard_records(after.get("gen", 0)))

    def total_bytes(self) -> int:
        """The exact tracked size of every accounted entry."""
        return sum(int(v[0]) for v in self.state().values())

    def entry_count(self) -> int:
        return len(self.state())

    # -------------------------------------------------------------- #
    # Compaction / rebuild

    def compact(self) -> bool:
        """Fold every current-generation shard into a new checkpoint.

        Takes the compaction lock plus every shard lock (so no append is
        in flight), writes the generation-``G+1`` checkpoint atomically,
        then deletes the folded (and any orphaned older-generation)
        shard files.  Returns False when another process is compacting
        or a lock could not be acquired in time — never blocks progress.
        """
        if not self._try_lock("compact"):
            return False
        held: List[str] = []
        try:
            for index in range(self.shards):
                name = f"shard-{index:02d}"
                if not self._acquire(name, wait_s=1.0):
                    return False
                held.append(name)
            checkpoint = self._read_checkpoint()
            gen = checkpoint.get("gen", 0)
            entries = self._fold(checkpoint.get("entries", {}),
                                 self._shard_records(gen))
            if not self._write_checkpoint(gen + 1, entries):
                return False
            for path in self._shard_files():
                shard_gen = self._shard_gen(path)
                if shard_gen is None or shard_gen <= gen:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self.compactions += 1
            return True
        finally:
            for name in held:
                self._unlock(name)
            self._unlock("compact")

    def rebuild(self, entries: Dict[str, list]) -> bool:
        """Replace the ledger state with ``entries`` (a repair scan's
        ground truth), resetting every shard."""
        self._acquire("compact", wait_s=EVICT_LOCK_WAIT_S)
        held: List[str] = []
        try:
            for index in range(self.shards):
                name = f"shard-{index:02d}"
                if self._acquire(name, wait_s=1.0):
                    held.append(name)
            gen = self._read_checkpoint().get("gen", 0)
            if not self._write_checkpoint(gen + 1, entries):
                return False
            for path in self._shard_files():
                try:
                    path.unlink()
                except OSError:
                    pass
            self.rebuilds += 1
            return True
        finally:
            for name in held:
                self._unlock(name)
            self._unlock("compact")


class ResultCache:
    """Load/store :class:`SimulationResult` objects keyed by content hash."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_mb: Optional[float] = None,
    ):
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.version_dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        if max_mb is None:
            self.max_bytes = self._max_bytes_from_env()
        else:
            self.max_bytes = int(max_mb * 1024 * 1024) if max_mb > 0 else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: bad entries (corrupt, truncated, wrong type) deleted on load
        self.evictions = 0
        #: good entries evicted to respect the size high-water mark
        self.evictions_size = 0
        self._ledger: Optional[SizeLedger] = None

    @staticmethod
    def _max_bytes_from_env() -> Optional[int]:
        raw = os.environ.get(ENV_CACHE_MAX_MB, "").strip()
        if not raw:
            return None
        try:
            max_mb = float(raw)
        except ValueError:
            warnings.warn(
                f"ignoring invalid {ENV_CACHE_MAX_MB}={raw!r} (not a number); "
                f"cache size is unbounded",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if max_mb <= 0:
            # A zero or negative cap is nonsensical (no store could ever
            # fit under it); treat it like the invalid-number path above.
            warnings.warn(
                f"ignoring invalid {ENV_CACHE_MAX_MB}={raw!r} (must be a "
                f"positive number of megabytes); cache size is unbounded",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return int(max_mb * 1024 * 1024)

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when disabled via REPRO_CACHE."""
        flag = os.environ.get(ENV_CACHE_ENABLED, "").strip().lower()
        if flag in _DISABLED_VALUES:
            return None
        return cls()

    # ------------------------------------------------------------------ #
    # Size ledger

    @property
    def ledger(self) -> SizeLedger:
        """The cache's size ledger, bootstrapped on first touch.

        A pre-ledger cache directory (entries on disk but no checkpoint
        or shard files) is brought up to date with one repair scan —
        the only directory-wide scan outside compaction/repair, paid
        once per cache lifetime, never per store.
        """
        if self._ledger is None:
            self._ledger = SizeLedger(self.version_dir / "ledger")
            if not self._ledger.initialized() and (
                self.version_dir.is_dir()
                and next(self.version_dir.glob("*/*.pkl.gz"), None) is not None
                or (self.version_dir / "traces").is_dir()
            ):
                self.repair_ledger()
        return self._ledger

    def _scan_entries(self) -> Dict[str, list]:
        """Ground-truth ledger state from a full directory scan (repair)."""
        entries: Dict[str, list] = {}
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            key = path.name.split(".")[0]
            entries[f"result:{key}"] = [st.st_size, st.st_mtime]
        store = self.trace_store()
        for npy in store.entries():
            key = npy.name[: -len(".npy")]
            total = 0
            ts = 0.0
            for part in (npy, store._meta_path(key)):
                try:
                    st = part.stat()
                except OSError:
                    continue
                total += st.st_size
                ts = max(ts, st.st_mtime)
            entries[f"trace:{key}"] = [total, ts]
        return entries

    def repair_ledger(self) -> int:
        """Rebuild the ledger checkpoint from a directory scan; returns
        the exact tracked byte total.  This is the crash-recovery path —
        torn appends, evictors killed between unlink and record, or
        out-of-band deletions all resync here."""
        entries = self._scan_entries()
        self.ledger.rebuild(entries)
        return sum(int(v[0]) for v in entries.values())

    def _entry_paths(self, kind: str, key: str) -> Tuple[Path, ...]:
        """The on-disk files backing one ledger entry (primary first)."""
        if kind == "trace":
            store = self.trace_store()
            return (store.npy_path(key), store._meta_path(key))
        return (self._path(key),)

    def _claim_live(self, key: str) -> bool:
        """Whether ``key`` has a live (non-stale) claim — a peer is
        producing or loading it right now, so it is not an eviction
        victim."""
        if self.claim_holder(key) is None:
            return False
        return not self.claim_stale(key)

    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.pkl.gz"

    def load(self, key: str, expected_type: type = SimulationResult):
        """The cached result for ``key``, or ``None`` on a miss.

        ``expected_type`` guards against key collisions across result
        kinds (simulation vs thermal).  Bad entries — truncated writes,
        incompatible pickles, payloads of the wrong type — are deleted
        and treated as misses, so one damaged file costs one re-run, not
        a re-read-and-miss on every subsequent load.
        """
        path = self._path(key)
        try:
            # Touch *before* reading: the size-cap evictor removes
            # oldest-mtime entries first, so an entry being read is the
            # freshest in the cache and never the victim.
            os.utime(path)
        except OSError:
            pass
        try:
            with gzip.open(path, "rb") as stream:
                result = pickle.load(stream)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, EOFError, pickle.UnpicklingError,
                AttributeError, ImportError, IndexError):
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(result, expected_type):
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        self.evictions += 1
        self.ledger.record_unlink("result", path.name.split(".")[0])

    def store(self, key: str, result) -> None:
        """Persist ``result`` under ``key`` (atomic within a filesystem)."""
        # Touch the ledger *before* the entry lands on disk: on a truly
        # fresh cache directory the bootstrap check then sees an empty
        # directory and skips the repair scan entirely.
        ledger = self.ledger
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Level 2 instead of the gzip default (9): cache entries are
            # written once per cold simulation on the critical path, and
            # the ~5x faster compression is worth the slightly larger
            # files (the size cap bounds total growth either way).
            with gzip.open(tmp, "wb", compresslevel=2) as stream:
                pickle.dump(result, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full filesystem degrades to cacheless operation.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        try:
            nbytes = path.stat().st_size
        except OSError:
            nbytes = None
        if nbytes is not None:
            ledger.record_store("result", key, nbytes)
        self.enforce_size_cap(protect=path)

    # ------------------------------------------------------------------ #
    # Size high-water mark

    def enforce_size_cap(self, protect=None) -> int:
        """Evict entries until the ledger total fits ``max_bytes``.

        The total comes from the size ledger — O(shards) small-file
        reads, never a directory-wide ``stat`` scan — so every process
        sharing the cache sees the same exact number, and a single
        cross-process eviction lock keeps concurrent writers from each
        evicting below the watermark.  Victim policy: compiled-trace
        entries go first (large, cheap to regenerate), then result
        entries, each oldest-mtime first; ``protect`` (the entry or
        entries just stored), keys with a live claim (a peer is
        producing or waiting on them), and the freshest-mtime survivor
        an in-progress ``load`` just touched are never victims.
        Returns the number of entries removed.
        """
        if self.max_bytes is None:
            return 0
        ledger = self.ledger
        if ledger.total_bytes() <= self.max_bytes:
            return 0
        if protect is None:
            protected = frozenset()
        elif isinstance(protect, (str, os.PathLike)):
            protected = frozenset((Path(protect),))
        else:
            protected = frozenset(Path(p) for p in protect)
        # One evictor at a time: everyone reads the same exact ledger
        # total, so the loser can simply wait — two uncoordinated
        # evictors would each pick victims and land below the watermark.
        locked = ledger._acquire("evict", wait_s=EVICT_LOCK_WAIT_S)
        try:
            state = ledger.state()
            total = sum(int(v[0]) for v in state.values())
            if total <= self.max_bytes:
                return 0  # the previous lock holder already made room
            candidates = []
            for composite, (nbytes, _ts) in state.items():
                kind, _, key = composite.partition(":")
                paths = self._entry_paths(kind, key)
                try:
                    mtime = paths[0].stat().st_mtime
                except OSError:
                    # Vanished behind the ledger's back (peer evictor
                    # died between unlink and record): heal the ledger.
                    ledger.record_unlink(kind, key)
                    total -= int(nbytes)
                    continue
                candidates.append(
                    (kind != "trace", mtime, str(paths[0]), kind, key,
                     int(nbytes), paths)
                )
            removed = 0
            for _, _, _, kind, key, nbytes, paths in sorted(candidates):
                if total <= self.max_bytes:
                    break
                if protected and not protected.isdisjoint(paths):
                    continue
                if kind == "result" and self._claim_live(key):
                    continue
                try:
                    paths[0].unlink()
                except FileNotFoundError:
                    total -= nbytes  # a peer removed (and recorded) it
                    continue
                except OSError:
                    continue
                for extra in paths[1:]:
                    try:
                        extra.unlink()
                    except OSError:
                        pass
                ledger.record_unlink(kind, key)
                total -= nbytes
                removed += 1
                self.evictions_size += 1
            return removed
        finally:
            if locked:
                ledger._unlock("evict")

    # ------------------------------------------------------------------ #
    # Cross-process claims

    def _claim_path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}{CLAIM_SUFFIX}"

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key`` for this process.

        True means "go simulate" — either the claim file was created
        (``O_CREAT|O_EXCL``: exactly one process wins) or the filesystem
        refused coordination (read-only etc.), in which case running
        uncoordinated is the only safe degradation.  False means another
        live process holds the claim; wait for its entry instead.
        """
        path = self._claim_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return True
        try:
            os.write(fd, json.dumps(
                {"pid": os.getpid(), "ts": time.time()}).encode("utf-8"))
        except OSError:
            pass
        finally:
            os.close(fd)
        return True

    def claim_holder(self, key: str) -> Optional[dict]:
        """The claim's ``{"pid": ..., "ts": ...}`` payload; ``{}`` when the
        claim exists but is unreadable/garbled; ``None`` when unclaimed."""
        path = self._claim_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return {}
        try:
            data = json.loads(raw)
        except ValueError:
            return {}
        return data if isinstance(data, dict) else {}

    def claim_stale(
        self, key: str, max_age_s: float = DEFAULT_CLAIM_STALE_S
    ) -> bool:
        """Whether ``key``'s claim is abandoned (dead holder or too old)."""
        holder = self.claim_holder(key)
        if holder is None:
            return False
        pid = holder.get("pid")
        if not isinstance(pid, int) or not _pid_alive(pid):
            return True
        ts = holder.get("ts")
        if not isinstance(ts, (int, float)):
            try:
                ts = self._claim_path(key).stat().st_mtime
            except OSError:
                return False  # claim vanished between reads: not stale, gone
        return (time.time() - ts) > max_age_s

    def break_claim(self, key: str) -> None:
        """Forcibly remove ``key``'s claim (stale-claim takeover)."""
        try:
            self._claim_path(key).unlink()
        except OSError:
            pass

    def release_claim(self, key: str) -> None:
        """Remove ``key``'s claim if this process owns it (or it is garbled)."""
        holder = self.claim_holder(key)
        if holder is None:
            return
        pid = holder.get("pid")
        if isinstance(pid, int) and pid != os.getpid():
            return
        self.break_claim(key)

    def claims(self) -> List[Path]:
        """All claim files of the current schema version, sorted."""
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob(f"*/*{CLAIM_SUFFIX}"))

    def sweep_claims(self, max_age_s: float = DEFAULT_CLAIM_STALE_S) -> int:
        """Delete claims abandoned by dead holders (or older than
        ``max_age_s``); returns the count removed."""
        removed = 0
        for path in self.claims():
            key = path.name[: -len(CLAIM_SUFFIX)]
            if not self.claim_stale(key, max_age_s):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    # ------------------------------------------------------------------ #

    def entries(self) -> List[Path]:
        """All entry files of the current schema version, sorted."""
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob("*/*.pkl.gz"))

    def stale_version_dirs(self) -> List[Path]:
        """``v<N>/`` directories left behind by older key schemas."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("v") and p != self.version_dir
        )

    def size_bytes(self) -> int:
        """Recursive size of the result entries, tolerant of entries a
        concurrent evictor removes between ``entries()`` and ``stat``."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------ #
    # Temp-file hygiene

    def tmp_files(self) -> List[Path]:
        """All ``*.tmp`` writer scratch files anywhere under the cache."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.rglob("*.tmp") if p.is_file())

    @staticmethod
    def _writer_alive(path: Path) -> bool:
        """Whether the process that owns a ``<key>.pkl.gz.<pid>.tmp`` lives."""
        parts = path.name.split(".")
        try:
            pid = int(parts[-2])
        except (IndexError, ValueError):
            return False  # not one of ours; treat as abandoned
        return _pid_alive(pid)

    def sweep_tmp(self, max_age_s: float = 3600.0) -> int:
        """Delete scratch files abandoned by writers that died mid-store.

        A ``store`` that is interrupted between writing its temp file and
        the atomic ``os.replace`` leaks the temp file forever; this
        removes any whose writer process is gone, plus any older than
        ``max_age_s`` (stores take milliseconds — an hour-old temp file
        is garbage no matter who owns the pid now).  Returns the count.
        """
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # already gone (concurrent sweep or writer finish)
            if self._writer_alive(path) and age < max_age_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove the whole cache directory; returns the entry count removed."""
        count = len(self.entries())
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return count

    def prune_stale(self) -> int:
        """Remove entries from older schema versions; returns dirs removed."""
        stale = self.stale_version_dirs()
        for directory in stale:
            shutil.rmtree(directory, ignore_errors=True)
        return len(stale)

    def prune(self) -> dict:
        """One-shot hygiene pass: stale schema dirs, abandoned temp files
        and claims, a ledger repair scan, and size-cap enforcement.
        Returns what was removed."""
        return {
            "stale_dirs": self.prune_stale(),
            "tmp_files": self.sweep_tmp(),
            "claims": self.sweep_claims(),
            "ledger_bytes": self.repair_ledger(),
            "evicted": self.enforce_size_cap(),
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------------ #
    # Compiled-trace store

    def trace_store(self) -> "TraceStore":
        """The compiled-trace store sharing this cache's directory.

        The store shares this cache's size ledger and size cap: every
        stored trace is accounted (and triggers cap enforcement, with
        its own files protected), and trace entries are the *first*
        eviction victims when the cache outgrows ``REPRO_CACHE_MAX_MB``.
        """
        store = getattr(self, "_trace_store", None)
        if store is None:
            store = TraceStore(self.version_dir / "traces",
                               ledger=self.ledger,
                               on_store=self.enforce_size_cap)
            self._trace_store = store
        return store

    def describe(self) -> str:
        """Human-readable cache summary for the CLI."""
        entries = self.entries()
        if self.max_bytes is not None:
            cap = f"{self.max_bytes / (1024 * 1024):.1f} MiB ({ENV_CACHE_MAX_MB})"
        else:
            cap = "unbounded"
        ledger = self.ledger
        lines = [
            f"cache directory: {self.root.resolve()}",
            f"key schema:      v{CACHE_SCHEMA_VERSION}",
            f"entries:         {len(entries)}",
            f"size:            {self.size_bytes() / 1024:.1f} KiB",
            f"size cap:        {cap}",
            f"size evictions:  {self.evictions_size} (this process)",
            f"size ledger:     {ledger.total_bytes() / 1024:.1f} KiB tracked "
            f"(gen {ledger._read_checkpoint().get('gen', 0)}, "
            f"{ledger.shard_record_count()} unfolded record(s))",
        ]
        stale = self.stale_version_dirs()
        if stale:
            names = ", ".join(p.name for p in stale)
            lines.append(f"stale versions:  {names} (run `repro cache clear`)")
        tmp = self.tmp_files()
        if tmp:
            lines.append(f"temp files:      {len(tmp)} in-flight or abandoned")
        claims = self.claims()
        if claims:
            lines.append(f"claims:          {len(claims)} in-flight or stale")
        traces = self.trace_store().entries()
        if traces:
            lines.append(f"compiled traces: {len(traces)}")
        return "\n".join(lines)


def trace_store_key(workload_fingerprint: str) -> str:
    """Content hash keying one compiled trace in the :class:`TraceStore`.

    Composes the workload fingerprint (which already covers the
    generator version, parameters, seed, and length — see
    :func:`repro.workloads.parameters.workload_fingerprint`) with the cache
    key schema and the columnar trace schema, so a change to either the
    on-disk layout or the key derivation retires every stored trace.
    """
    from repro.isa.compiled import TRACE_SCHEMA_VERSION

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "trace",
        "trace_schema": TRACE_SCHEMA_VERSION,
        "workload": workload_fingerprint,
    }
    return _digest(payload)


class TraceStore:
    """Persistent store of compiled (columnar) traces.

    One entry per workload fingerprint: ``traces/<key>.npy`` (the
    structured array, loaded memory-mapped) plus ``traces/<key>.json``
    (identifying metadata).  Lives inside the result cache's version
    directory — ``REPRO_CACHE=0`` disables both together, and
    ``REPRO_CACHE_DIR`` relocates both together — and when constructed
    through :meth:`ResultCache.trace_store` its entries count against
    ``REPRO_CACHE_MAX_MB`` through the shared size ledger.  Trace
    entries are the *first* eviction victims: they are large, and a
    vanished trace costs one deterministic regeneration, not a lost
    result.  A standalone ``TraceStore(directory)`` has no ledger and
    stays unaccounted.

    Writes go through per-pid temp files and ``os.replace``; the array
    is renamed into place before the metadata, and readers require both,
    so a torn write is indistinguishable from a miss and the stray
    ``.npy`` is evicted on the next load.  Any damaged entry
    (:class:`repro.isa.compiled.TraceReadError`) is deleted — both files
    — and reported as a miss, costing one regeneration, not a failure.
    """

    def __init__(self, directory: os.PathLike, ledger: Optional[SizeLedger] = None,
                 on_store=None):
        self.dir = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: shared size ledger (set by :meth:`ResultCache.trace_store`)
        self._ledger = ledger
        #: size-cap hook invoked after each store with the new entry's
        #: files as ``protect``
        self._on_store = on_store

    def npy_path(self, key: str) -> Path:
        return self.dir / f"{key}.npy"

    def _meta_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def load(self, key: str):
        """The stored compiled trace (memory-mapped), or ``None``."""
        from repro.isa.compiled import read_compiled, TraceReadError

        npy = self.npy_path(key)
        try:
            compiled = read_compiled(npy, self._meta_path(key), mmap=True)
        except TraceReadError:
            self._evict(key)
            self.misses += 1
            return None
        self.hits += 1
        return compiled

    def _evict(self, key: str) -> None:
        """Remove whatever remains of a damaged or torn entry."""
        evicted = False
        for path in (self.npy_path(key), self._meta_path(key)):
            try:
                path.unlink()
                evicted = True
            except OSError:
                pass
        if evicted:
            self.evictions += 1
            if self._ledger is not None:
                self._ledger.record_unlink("trace", key)

    def store(self, key: str, compiled) -> Optional[Path]:
        """Persist ``compiled`` under ``key``; returns the ``.npy`` path
        (for shipping to workers), or ``None`` when the filesystem
        refuses (read-only, full) and operation degrades to storeless."""
        from repro.isa.compiled import write_compiled

        npy = self.npy_path(key)
        meta = self._meta_path(key)
        pid = os.getpid()
        tmp_npy = npy.with_name(f"{npy.name}.{pid}.tmp")
        tmp_meta = meta.with_name(f"{meta.name}.{pid}.tmp")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            write_compiled(compiled, tmp_npy, tmp_meta)
            os.replace(tmp_npy, npy)
            os.replace(tmp_meta, meta)
        except OSError:
            for tmp in (tmp_npy, tmp_meta):
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return None
        self.stores += 1
        if self._ledger is not None:
            nbytes = 0
            for part in (npy, meta):
                try:
                    nbytes += part.stat().st_size
                except OSError:
                    pass
            self._ledger.record_store("trace", key, nbytes)
        if self._on_store is not None:
            self._on_store(protect=(npy, meta))
        return npy

    def entries(self) -> List[Path]:
        """All stored ``.npy`` entries, sorted."""
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("*.npy"))

    def size_bytes(self) -> int:
        total = 0
        for path in list(self.entries()) + sorted(self.dir.glob("*.json")):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total
