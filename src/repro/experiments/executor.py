"""Parallel trial execution.

Every paper experiment replays ``run_trial`` over a range of trial
indices.  Each trial is a fully seeded, independent simulation, so the
sweep is embarrassingly parallel — but a live
:class:`~repro.experiments.harness.TrialResult` cannot cross a process
boundary.  :class:`TrialExecutor` therefore maps *picklable task
callables* over trial indices; tasks run the trial and extract a
picklable :class:`~repro.experiments.harness.TrialSummary` (or any
other plain-data result) worker-side.

Backends:

* ``serial``  — a plain in-process loop (the default for 1 worker).
* ``process`` — a spawn-context :mod:`multiprocessing` pool.  Spawn is
  used on every platform so workers never inherit forked simulator
  state, and because tasks must be picklable anyway.

Determinism: trials are seeded from their index alone, dispatch is
chunked over a fixed index order, and results are returned in trial
order (``Pool.map`` preserves input order), so aggregates are
bit-identical regardless of worker count or backend.

Worker count resolution order: explicit ``workers=`` argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).

Fault tolerance
---------------

``map_trials`` accepts an optional :class:`FaultTolerance` policy.  With
one active, the executor switches from a shared pool to supervised
one-process-per-trial dispatch and guarantees:

* a worker exception is returned as a structured :class:`TrialError`
  carrying the trial index and traceback instead of poisoning the pool;
* a crashed worker (``SIGKILL``, OOM, hard exit) is detected by its
  exit code and only that trial is affected;
* a hung trial is killed after ``timeout`` wall-clock seconds;
* each failed trial is retried up to ``retries`` times — trials are
  seeded from their index alone, so a retry deterministically
  reproduces what the lost worker would have computed;
* completed results stream into a JSON checkpoint
  (``checkpoint_path``), and a re-run with the same checkpoint skips
  completed trials — a long sweep survives interruption of the whole
  run, with a final output identical to an uninterrupted one.

Even without a :class:`FaultTolerance` policy, worker exceptions are
wrapped as :class:`TrialExecutionError` so the failing trial index is
never lost.

Supervision extensions (campaign supervisor layer)
--------------------------------------------------

The policy also carries the knobs the campaign supervisor needs:

* **checkpoint integrity** — checkpoint files embed a payload SHA-256
  (and optionally the owning config's digest); a corrupted, truncated,
  foreign or unversioned file found on resume is *quarantined* to a
  ``<path>.corrupt`` sidecar and the run restarts those trials cleanly
  instead of crashing.  :meth:`Checkpoint.flush` fsyncs both the temp
  file and its directory before/after the atomic ``os.replace`` so a
  power loss cannot tear the file either.
* **deadline** — a wall-clock budget for the whole ``map_trials`` call;
  once exhausted, no new trials launch, running ones are killed, and
  every unfinished trial yields a :class:`TrialError` with
  ``kind="deadline"`` (never persisted, so a later resume recomputes
  them).
* **heartbeat watchdog** — tasks report progress via :func:`heartbeat`;
  with ``heartbeat_timeout`` set, a supervised worker that stays silent
  longer than that is declared stalled (``kind="stalled"``), killed and
  retried, even if its per-trial ``timeout`` has not expired.
* **deterministic retry backoff** — the wait before a same-seed retry
  is seeded from ``(backoff_seed, trial index, attempt)``, so
  fault-tolerant reruns pause identically; ``REPRO_BACKOFF=0`` (the
  test/CI default) disables waiting entirely.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import pickle
import queue as queue_module
import sys
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
    Union,
)

T = TypeVar("T")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: While set, worker processes swallow their own stdout so that a
#: parent-side :func:`capture_stdout` capture stays byte-clean even
#: with ``--workers`` parallelism (experiment tables are rendered
#: parent-side; anything a worker prints is non-deterministic noise).
CAPTURE_ENV = "REPRO_CAPTURE_WORKER_STDOUT"

#: While set to a directory, :meth:`TrialExecutor.map_trials` calls
#: without an explicit policy checkpoint into it (see
#: :func:`auto_fault_tolerance`) — the hook the ``repro verify``
#: determinism matrix uses to kill-and-resume *any* experiment.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Overrides the retry-backoff base for every policy when set: a float
#: number of seconds, ``0`` disabling backoff waits entirely (tests/CI).
BACKOFF_ENV = "REPRO_BACKOFF"

_BACKENDS = ("serial", "process")

#: Grace period between noticing a dead worker and declaring it crashed
#: (its result may still be in flight through the queue feeder).
_CRASH_GRACE = 1.0

#: Supervision loop poll interval, seconds.
_POLL_INTERVAL = 0.05

#: Minimum spacing between heartbeat messages a worker emits.
_HEARTBEAT_INTERVAL = 0.2

#: Sentinel in a result tuple's ``ok`` slot marking a heartbeat.
_HEARTBEAT = "heartbeat"


@contextlib.contextmanager
def capture_stdout() -> Iterator[io.StringIO]:
    """Capture experiment stdout for golden-master comparison.

    Redirects this process's ``sys.stdout`` into the yielded buffer and
    sets :data:`CAPTURE_ENV` so spawned workers (which write to the
    real file descriptor, out of reach of a parent-side redirect)
    silence their own stdout instead of interleaving into the capture.
    """
    buffer = io.StringIO()
    previous = os.environ.get(CAPTURE_ENV)
    os.environ[CAPTURE_ENV] = "1"
    try:
        with contextlib.redirect_stdout(buffer):
            yield buffer
    finally:
        if previous is None:
            os.environ.pop(CAPTURE_ENV, None)
        else:
            os.environ[CAPTURE_ENV] = previous


def _silence_worker_stdout() -> None:
    """Worker-side half of :func:`capture_stdout` (spawn inherits env)."""
    if os.environ.get(CAPTURE_ENV):
        sys.stdout = io.StringIO()


#: Worker-side heartbeat channel, set by :func:`_trial_worker`:
#: ``(result_queue, trial_index, last_beat_monotonic)`` or ``None``
#: outside a supervised worker.
_worker_heartbeat: Optional[List[Any]] = None


def heartbeat() -> None:
    """Report liveness from inside a supervised trial task.

    A no-op outside supervised workers, so tasks may call it
    unconditionally (the campaign shard loop beats once per session).
    Beats are throttled to one per :data:`_HEARTBEAT_INTERVAL` so a
    tight loop cannot flood the result queue.  The parent's hung-shard
    watchdog (``FaultTolerance.heartbeat_timeout``) kills and retries a
    worker whose beats stop.
    """
    channel = _worker_heartbeat
    if channel is None:
        return
    queue, index, last = channel
    now = time.monotonic()
    if now - last < _HEARTBEAT_INTERVAL:
        return
    channel[2] = now
    try:
        queue.put((index, _HEARTBEAT, None, ""))
    except Exception:  # queue torn down mid-shutdown — liveness only
        pass


def retry_backoff(base: float, seed_key: str, index: int, attempt: int) -> float:
    """Deterministic exponential backoff before a same-seed retry.

    The jitter is derived from ``sha256(seed_key | index | attempt)``
    rather than wall-clock randomness, so a fault-tolerant rerun of the
    same configuration pauses for exactly the same spans — timing noise
    never sneaks into otherwise bit-identical executions.  The
    :data:`BACKOFF_ENV` environment variable overrides ``base`` when
    set (``REPRO_BACKOFF=0`` disables waiting in tests and CI).
    """
    env = os.environ.get(BACKOFF_ENV, "").strip()
    if env:
        try:
            base = float(env)
        except ValueError:
            raise ValueError(
                f"{BACKOFF_ENV} must be a float, got {env!r}"
            ) from None
    if base <= 0:
        return 0.0
    token = hashlib.sha256(
        f"{seed_key}|{index}|{attempt}".encode("utf-8")
    ).digest()
    jitter = int.from_bytes(token[:8], "big") / 2**64
    return base * (2 ** max(0, attempt - 1)) * (0.5 + jitter)


#: Sequence number for :func:`auto_fault_tolerance` checkpoint files,
#: distinguishing repeated ``map_trials`` calls with identical tasks.
#: Reset via :func:`reset_auto_checkpoint_calls` before a run so an
#: interrupted and a resumed run derive the same file names.
_auto_checkpoint_calls = itertools.count()


def reset_auto_checkpoint_calls() -> None:
    """Restart auto-checkpoint file numbering (before each tracked run)."""
    global _auto_checkpoint_calls
    _auto_checkpoint_calls = itertools.count()


def auto_fault_tolerance(
    task: Callable[[int], Any], indices: List[int]
) -> Optional["FaultTolerance"]:
    """The :data:`CHECKPOINT_DIR_ENV`-derived policy, if the env is set.

    The checkpoint file name combines a per-process call sequence
    number with a digest of the task's ``repr`` and the index list, so
    every ``map_trials`` call in a deterministic experiment maps to a
    stable file — which is exactly what lets a killed run resume: the
    re-run replays the same call sequence and finds its own files.
    Tasks are frozen dataclasses or partials of module functions, whose
    reprs are deterministic; an address-bearing repr would only cost a
    cache miss (the trials re-run), never a wrong resume.
    """
    directory = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    if not directory:
        return None
    call = next(_auto_checkpoint_calls)
    digest = hashlib.sha256(
        f"{task!r}|{indices!r}".encode()
    ).hexdigest()[:12]
    path = os.path.join(directory, f"call{call:03d}-{digest}.json")
    return FaultTolerance(retries=0, checkpoint_path=path)


def _encode_checkpoint_result(result: Any) -> Any:
    """JSON-encode a result, wrapping non-JSON payloads via pickle.

    Experiment tasks return either plain-JSON dicts (robustness study)
    or picklable dataclasses (``TrialSummary``); the wrapper lets one
    checkpoint format carry both.
    """
    try:
        json.dumps(result)
        return result
    except (TypeError, ValueError):
        payload = base64.b64encode(pickle.dumps(result)).decode("ascii")
        return {"__pickled__": payload}


def _decode_checkpoint_result(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__pickled__"}:
        return pickle.loads(base64.b64decode(value["__pickled__"]))
    return value


class TrialExecutionError(RuntimeError):
    """A worker-side exception, wrapped with the failing trial index.

    Raised in the parent process when a trial task fails and no
    :class:`FaultTolerance` policy asked for structured error records.
    ``trial`` identifies the failing trial; ``details`` carries the
    worker-side ``repr`` (and traceback, when available) of the cause.
    """

    def __init__(self, trial: int, details: str) -> None:
        super().__init__(f"trial {trial} failed: {details}")
        self.trial = trial
        self.details = details

    def __reduce__(self):
        # Exceptions cross the process boundary pickled; rebuild from
        # the two real arguments rather than the formatted message.
        return (TrialExecutionError, (self.trial, self.details))


#: The per-trial failure taxonomy carried by :class:`TrialError.kind`.
ERROR_KINDS = ("exception", "crash", "timeout", "stalled", "deadline")


@dataclass(frozen=True)
class TrialError:
    """Structured record of one trial that exhausted its retries.

    ``kind`` classifies the terminal failure (:data:`ERROR_KINDS`);
    ``history`` is the attempt-by-attempt record — one dict per failed
    attempt with ``attempt``, ``kind``, ``error`` and ``elapsed_s`` —
    which the campaign failure manifest surfaces verbatim.
    """

    trial: int
    attempts: int
    error: str
    traceback: str = ""
    kind: str = "exception"
    history: tuple = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "trial": self.trial,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
            "kind": self.kind,
            "history": [dict(entry) for entry in self.history],
        }


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance policy for :meth:`TrialExecutor.map_trials`.

    Attributes:
        timeout: per-trial wall-clock budget in seconds; a worker
            running longer is killed and the trial retried (process
            backend only — a serial run cannot preempt itself).
        retries: extra attempts per trial after the first failure.
        checkpoint_path: JSON file streaming completed results; on the
            next run, trials already recorded there are not re-run.
            Results must be JSON-serializable (plain dicts/lists/
            scalars) when checkpointing is enabled.
        checkpoint_every: flush the checkpoint after this many newly
            completed trials (1 = after every trial).
        checkpoint_digest: config digest bound into the checkpoint
            file; a file carrying a *different* digest is quarantined
            on resume instead of silently poisoning the run.
        deadline: wall-clock budget in seconds for the whole
            ``map_trials`` call; unfinished trials become
            ``kind="deadline"`` :class:`TrialError` records.
        heartbeat_timeout: a supervised worker silent (no
            :func:`heartbeat`) for longer than this is declared stalled,
            killed and retried (process backend only).
        backoff_base: base seconds of the deterministic exponential
            backoff before each same-seed retry (0 disables; the
            :data:`BACKOFF_ENV` environment variable overrides).
        backoff_seed: seed key mixed into the backoff jitter (the
            campaign passes its config digest).
    """

    timeout: Optional[float] = None
    retries: int = 1
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    checkpoint_digest: Optional[str] = None
    deadline: Optional[float] = None
    heartbeat_timeout: Optional[float] = None
    backoff_base: float = 0.0
    backoff_seed: str = ""

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")


class _IndexedTask:
    """Wraps the user task so worker failures carry the trial index."""

    def __init__(self, task: Callable[[int], T]) -> None:
        self.task = task

    def __call__(self, index: int) -> T:
        try:
            return self.task(index)
        except Exception as error:
            raise TrialExecutionError(
                index, f"{type(error).__name__}: {error}"
            ) from error


def _trial_worker(task, index, result_queue):  # pragma: no cover - subprocess
    """Spawn target: run one trial, ship (index, ok, payload, tb) back."""
    global _worker_heartbeat
    _silence_worker_stdout()
    # Open the heartbeat channel and announce liveness once, so the
    # parent's watchdog clock starts from task entry, not spawn time.
    _worker_heartbeat = [result_queue, index, 0.0]
    heartbeat()
    try:
        result = task(index)
    except BaseException as error:
        result_queue.put(
            (
                index,
                False,
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
        )
    else:
        result_queue.put((index, True, result, ""))


#: Chaos/test hook: when set, called at the top of every checkpoint
#: write — raising ``OSError`` there simulates ENOSPC/EIO on the
#: checkpoint writer (see :mod:`repro.chaos.inject`).
_flush_fault_hook: Optional[Callable[[], None]] = None


def set_flush_fault_hook(hook: Optional[Callable[[], None]]) -> None:
    """Install (or clear) the checkpoint-writer fault-injection hook."""
    global _flush_fault_hook
    _flush_fault_hook = hook


class Checkpoint:
    """A JSON file of completed trial results, written atomically.

    Format (version 2)::

        {"version": 2,
         "config_digest": "<owning config digest or ''>",
         "results": {"<trial index>": <result>, ...},
         "payload_sha256": "<sha256 of the canonical rest>"}

    Only successes are persisted — errored trials are retried from
    scratch on resume.

    Integrity: the embedded SHA-256 covers the canonical JSON of every
    other field.  A file that fails to parse, carries an unknown
    version, fails the digest check, or belongs to a *different* config
    (``config_digest`` mismatch) is **quarantined** — atomically renamed
    to ``<path>.corrupt`` — and the checkpoint starts empty, so a
    corrupted or foreign file costs a recompute, never a crash and
    never a silently wrong merge.

    Durability: :meth:`flush` writes to a temp file, fsyncs it, renames
    it over ``path``, then fsyncs the directory — the pair of fsyncs is
    what makes the rename actually atomic across power loss.

    Degradation: a flush that fails with ``OSError`` (disk full, I/O
    error) disables further writes (``disabled``/``write_error``) with
    a one-line stderr warning instead of killing the run; the
    computation continues, merely losing resumability.
    """

    VERSION = 2

    def __init__(
        self, path: str, config_digest: Optional[str] = None
    ) -> None:
        self.path = path
        self.config_digest = config_digest
        self.results: Dict[int, Any] = {}
        self.quarantined: Optional[str] = None
        self.quarantine_reason: Optional[str] = None
        self.disabled = False
        self.write_error: Optional[str] = None
        self._dirty = 0
        if os.path.exists(path):
            self._load(path)
        #: Results read back on open (0 after a quarantine): the trials
        #: a resumed run skips.
        self.loaded = len(self.results)

    # -- loading & quarantine -------------------------------------------

    def _quarantine(self, reason: str) -> None:
        corrupt = self.path + ".corrupt"
        try:
            os.replace(self.path, corrupt)
        except OSError as error:  # can't even move it aside: start fresh
            corrupt = f"{self.path} (unmovable: {error})"
        self.quarantined = corrupt
        self.quarantine_reason = reason
        self.results = {}
        print(
            f"repro: warning: quarantined checkpoint {self.path} -> "
            f"{corrupt} ({reason}); affected trials restart cleanly",
            file=sys.stderr,
        )

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            self._quarantine(f"unreadable: {type(error).__name__}: {error}")
            return
        if not isinstance(payload, dict):
            self._quarantine("not a JSON object")
            return
        if payload.get("version") != self.VERSION:
            self._quarantine(
                f"unsupported version {payload.get('version')!r}"
            )
            return
        recorded_sha = payload.get("payload_sha256")
        body = {k: v for k, v in payload.items() if k != "payload_sha256"}
        actual_sha = self._payload_sha(body)
        if recorded_sha != actual_sha:
            self._quarantine(
                f"payload sha256 mismatch (recorded "
                f"{str(recorded_sha)[:12]}, actual {actual_sha[:12]})"
            )
            return
        file_digest = payload.get("config_digest") or None
        if self.config_digest is None:
            self.config_digest = file_digest
        elif file_digest is not None and file_digest != self.config_digest:
            self._quarantine(
                f"foreign config digest {file_digest!r} "
                f"(expected {self.config_digest!r})"
            )
            return
        self.results = {
            int(key): _decode_checkpoint_result(value)
            for key, value in payload.get("results", {}).items()
        }

    @staticmethod
    def _payload_sha(body: Dict[str, Any]) -> str:
        canonical = json.dumps(body, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, index: int) -> bool:
        return index in self.results

    def record(self, index: int, result: Any, flush_every: int = 1) -> None:
        self.results[index] = result
        self._dirty += 1
        if self._dirty >= flush_every:
            self.flush()

    def flush(self) -> None:
        """Write the sealed payload atomically; degrade on I/O failure."""
        if self.disabled:
            return
        try:
            self._write()
        except OSError as error:
            self.disabled = True
            self.write_error = f"{type(error).__name__}: {error}"
            print(
                f"repro: warning: checkpoint write to {self.path} failed "
                f"({self.write_error}); continuing without checkpointing",
                file=sys.stderr,
            )
        else:
            self._dirty = 0

    def _write(self) -> None:
        if _flush_fault_hook is not None:
            _flush_fault_hook()
        body = {
            "version": self.VERSION,
            "config_digest": self.config_digest or "",
            "results": {
                str(index): _encode_checkpoint_result(value)
                for index, value in sorted(self.results.items())
            },
        }
        payload = dict(body)
        payload["payload_sha256"] = self._payload_sha(body)
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
            self._fsync_directory(directory)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Persist the rename itself (no-op where dirs can't be opened)."""
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directory open
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def truncate(cls, path: str, keep: Optional[int] = None) -> int:
        """Drop the tail of a checkpoint's results and re-seal the file.

        Simulates a kill between flushes (every flush is atomic, so a
        real kill always leaves some valid earlier file).  ``keep`` is
        how many results survive, default half.  Returns the kept
        count; a missing or empty file is left alone.
        """
        if not os.path.exists(path):
            return 0
        checkpoint = cls(path)
        keys = sorted(checkpoint.results)
        if keep is None:
            keep = len(keys) // 2
        checkpoint.results = {
            key: checkpoint.results[key] for key in keys[:keep]
        }
        checkpoint.flush()
        return len(checkpoint.results)


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else env, else 1.

    Raises:
        ValueError: on a non-positive worker count.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class TrialExecutor:
    """Maps picklable tasks over trial indices, serially or in a pool.

    Attributes:
        workers: resolved worker count.
        backend: ``"serial"`` or ``"process"``.
        chunk_size: trial indices dispatched per pool task; None picks
            ~4 chunks per worker so stragglers rebalance.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if backend is None:
            backend = "process" if self.workers > 1 else "serial"
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.backend = backend
        self.chunk_size = chunk_size
        #: The Checkpoint of the most recent fault-tolerant map (None
        #: otherwise) — supervisors read quarantine/write-error state.
        self.last_checkpoint: Optional[Checkpoint] = None

    def _chunk_size(self, count: int, workers: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, count // (workers * 4))

    def map_trials(
        self,
        trials: Union[int, Iterable[int]],
        task: Callable[[int], T],
        fault_tolerance: Optional[FaultTolerance] = None,
    ) -> List[Union[T, TrialError]]:
        """Run ``task(index)`` for every trial index, in index order.

        Args:
            trials: a trial count (mapped over ``range(trials)``) or an
                explicit iterable of indices.
            task: a picklable callable — a module-level function,
                ``functools.partial`` of one, or an instance of a
                module-level class defining ``__call__``.  Its return
                value must be picklable on the process backend.
            fault_tolerance: optional policy adding per-trial timeout,
                retry, crash isolation and checkpoint/resume.  With a
                policy active, trials that exhaust their retries yield
                :class:`TrialError` records in the result list instead
                of raising; without one, a worker exception is raised
                as :class:`TrialExecutionError` naming the trial.

        Returns:
            The task results, ordered like the input indices regardless
            of backend or worker count.
        """
        indices = (
            list(range(trials)) if isinstance(trials, int) else list(trials)
        )
        if fault_tolerance is None:
            fault_tolerance = auto_fault_tolerance(task, indices)
        if fault_tolerance is not None:
            return self._map_fault_tolerant(indices, task, fault_tolerance)
        workers = min(self.workers, len(indices))
        wrapped = _IndexedTask(task)
        if self.backend == "serial" or workers <= 1:
            return [wrapped(index) for index in indices]
        context = multiprocessing.get_context("spawn")
        with context.Pool(
            processes=workers, initializer=_silence_worker_stdout
        ) as pool:
            return pool.map(
                wrapped, indices,
                chunksize=self._chunk_size(len(indices), workers),
            )

    # -- Fault-tolerant dispatch ------------------------------------------

    def _map_fault_tolerant(
        self,
        indices: List[int],
        task: Callable[[int], T],
        policy: FaultTolerance,
    ) -> List[Union[T, TrialError]]:
        started = time.monotonic()
        checkpoint = (
            Checkpoint(
                policy.checkpoint_path,
                config_digest=policy.checkpoint_digest,
            )
            if policy.checkpoint_path else None
        )
        #: Exposed for supervisors (the campaign engine reads quarantine
        #: and write-degradation state off it for the failure manifest).
        self.last_checkpoint = checkpoint
        results: Dict[int, Any] = {}
        if checkpoint is not None:
            results.update(
                (index, checkpoint.results[index])
                for index in indices
                if index in checkpoint
            )
        pending = [index for index in indices if index not in results]
        workers = min(self.workers, len(pending)) if pending else 0
        if pending:
            if self.backend == "serial" or workers <= 1:
                self._run_serial_tolerant(
                    pending, task, policy, results, checkpoint, started
                )
            else:
                self._run_supervised(
                    pending, task, policy, results, checkpoint, workers,
                    started,
                )
        if checkpoint is not None:
            checkpoint.flush()
        return [results[index] for index in indices]

    def _deadline_error(self, index: int, attempts: int,
                        history: tuple = ()) -> TrialError:
        return TrialError(
            trial=index,
            attempts=attempts,
            error="deadline: campaign wall-clock budget exhausted",
            kind="deadline",
            history=history,
        )

    def _run_serial_tolerant(
        self, pending, task, policy, results, checkpoint, started
    ) -> None:
        """In-process fallback: retries and checkpointing, no preemption.

        ``timeout`` and ``heartbeat_timeout`` cannot preempt a trial on
        this backend; ``deadline`` is honoured between trials and
        between retries.
        """
        deadline_at = (
            started + policy.deadline if policy.deadline is not None else None
        )
        for position, index in enumerate(pending):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                for skipped in pending[position:]:
                    self._finish_trial(
                        skipped, self._deadline_error(skipped, 0),
                        results, checkpoint, policy,
                    )
                return
            attempts = 0
            history: List[Dict[str, Any]] = []
            trial_started = time.monotonic()
            while True:
                attempts += 1
                try:
                    outcome = task(index)
                except Exception as error:
                    history.append({
                        "attempt": attempts,
                        "kind": "exception",
                        "error": f"{type(error).__name__}: {error}",
                        "elapsed_s": round(
                            time.monotonic() - trial_started, 3
                        ),
                    })
                    if attempts <= policy.retries:
                        delay = retry_backoff(
                            policy.backoff_base, policy.backoff_seed,
                            index, attempts,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        if (
                            deadline_at is not None
                            and time.monotonic() >= deadline_at
                        ):
                            outcome = self._deadline_error(
                                index, attempts, tuple(history)
                            )
                            break
                        continue
                    outcome = TrialError(
                        trial=index,
                        attempts=attempts,
                        error=f"{type(error).__name__}: {error}",
                        traceback=traceback.format_exc(),
                        kind="exception",
                        history=tuple(history),
                    )
                break
            self._finish_trial(index, outcome, results, checkpoint, policy)

    def _run_supervised(
        self, pending, task, policy, results, checkpoint, workers, started
    ) -> None:
        """One supervised spawn process per trial, ``workers`` at a time.

        Unlike a shared pool, a crashed or hung worker here is *one
        process* whose exit code and runtime the parent watches — so a
        ``SIGKILL`` mid-trial, an OOM kill or an infinite loop costs one
        attempt of one trial, never the sweep.  Workers report progress
        heartbeats over the result queue; with ``heartbeat_timeout``
        set, a silent-but-alive worker (a stalled shard) is killed and
        retried like a hung one.  ``deadline`` bounds the whole call:
        on expiry every unfinished trial is recorded as
        ``kind="deadline"`` and the loop stops.
        """
        context = multiprocessing.get_context("spawn")
        result_queue = context.Queue()
        todo = deque(pending)
        running: Dict[int, Dict[str, Any]] = {}
        attempts: Dict[int, int] = {}
        history: Dict[int, List[Dict[str, Any]]] = {}
        ready_at: Dict[int, float] = {}
        deadline_at = (
            started + policy.deadline if policy.deadline is not None else None
        )

        def launch(index: int) -> None:
            attempts[index] = attempts.get(index, 0) + 1
            process = context.Process(
                target=_trial_worker,
                args=(task, index, result_queue),
                daemon=True,
            )
            process.start()
            now = time.monotonic()
            running[index] = {
                "process": process,
                "started": now,
                "last_beat": now,
                "dead_since": None,
            }

        def retire(index: int, outcome: Any) -> None:
            state = running.pop(index)
            state["process"].join(timeout=_CRASH_GRACE)
            self._finish_trial(index, outcome, results, checkpoint, policy)

        def kill(process) -> None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_CRASH_GRACE)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=_CRASH_GRACE)

        def retry_or_fail(
            index: int, error: str, tb: str = "", kind: str = "exception"
        ) -> None:
            state = running.pop(index)
            kill(state["process"])
            history.setdefault(index, []).append({
                "attempt": attempts[index],
                "kind": kind,
                "error": error,
                "elapsed_s": round(time.monotonic() - state["started"], 3),
            })
            if attempts[index] <= policy.retries:
                delay = retry_backoff(
                    policy.backoff_base, policy.backoff_seed,
                    index, attempts[index],
                )
                ready_at[index] = time.monotonic() + delay
                todo.appendleft(index)
            else:
                self._finish_trial(
                    index,
                    TrialError(
                        trial=index,
                        attempts=attempts[index],
                        error=error,
                        traceback=tb,
                        kind=kind,
                        history=tuple(history.get(index, ())),
                    ),
                    results, checkpoint, policy,
                )

        def expire_deadline() -> None:
            """Kill everything in flight; record all unfinished trials."""
            for index in list(running):
                state = running.pop(index)
                kill(state["process"])
                self._finish_trial(
                    index,
                    self._deadline_error(
                        index, attempts.get(index, 0),
                        tuple(history.get(index, ())),
                    ),
                    results, checkpoint, policy,
                )
            while todo:
                index = todo.popleft()
                self._finish_trial(
                    index,
                    self._deadline_error(
                        index, attempts.get(index, 0),
                        tuple(history.get(index, ())),
                    ),
                    results, checkpoint, policy,
                )

        try:
            while todo or running:
                if (
                    deadline_at is not None
                    and time.monotonic() >= deadline_at
                ):
                    expire_deadline()
                    break
                while todo and len(running) < workers:
                    # The head of the queue may be backing off; trials
                    # behind it wait too (retries go to the front so a
                    # recovering shard is not starved by fresh work).
                    if ready_at.get(todo[0], 0.0) > time.monotonic():
                        break
                    launch(todo.popleft())
                try:
                    message = result_queue.get(timeout=_POLL_INTERVAL)
                except queue_module.Empty:
                    message = None
                if message is not None:
                    index, ok, payload, tb = message
                    if index in running:
                        if ok == _HEARTBEAT:
                            running[index]["last_beat"] = time.monotonic()
                        elif ok:
                            retire(index, payload)
                        else:
                            retry_or_fail(index, payload, tb)
                    continue  # drain before supervising
                now = time.monotonic()
                for index in list(running):
                    state = running[index]
                    process = state["process"]
                    if (
                        policy.timeout is not None
                        and now - state["started"] > policy.timeout
                        and process.is_alive()
                    ):
                        retry_or_fail(
                            index,
                            f"timeout: trial exceeded {policy.timeout:.1f}s",
                            kind="timeout",
                        )
                        continue
                    if (
                        policy.heartbeat_timeout is not None
                        and now - state["last_beat"]
                        > policy.heartbeat_timeout
                        and process.is_alive()
                    ):
                        retry_or_fail(
                            index,
                            "stalled: no heartbeat for "
                            f"{policy.heartbeat_timeout:.1f}s",
                            kind="stalled",
                        )
                        continue
                    if not process.is_alive():
                        # Dead without a result *yet* — allow the queue
                        # feeder a grace period before declaring a crash.
                        if state["dead_since"] is None:
                            state["dead_since"] = now
                        elif now - state["dead_since"] > _CRASH_GRACE:
                            retry_or_fail(
                                index,
                                "worker crashed with exit code "
                                f"{process.exitcode}",
                                kind="crash",
                            )
        finally:
            for state in running.values():
                process = state["process"]
                if process.is_alive():
                    process.terminate()
            result_queue.close()
            result_queue.join_thread()

    def _finish_trial(self, index, outcome, results, checkpoint, policy):
        results[index] = outcome
        if checkpoint is not None and not isinstance(outcome, TrialError):
            checkpoint.record(
                index, outcome, flush_every=policy.checkpoint_every
            )

    def __repr__(self) -> str:
        return (
            f"TrialExecutor(workers={self.workers}, backend={self.backend!r})"
        )


def map_trials(
    trials: Union[int, Iterable[int]],
    task: Callable[[int], T],
    workers: Optional[int] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
) -> List[Union[T, TrialError]]:
    """One-shot convenience wrapper over :class:`TrialExecutor`."""
    return TrialExecutor(workers=workers).map_trials(
        trials, task, fault_tolerance=fault_tolerance
    )
