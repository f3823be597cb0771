"""Parallel trial execution.

Every paper experiment replays ``run_trial`` over a range of trial
indices.  Each trial is a fully seeded, independent simulation, so the
sweep is embarrassingly parallel — but a live
:class:`~repro.experiments.harness.TrialResult` cannot cross a process
boundary.  :class:`TrialExecutor` therefore maps *picklable task
callables* over trial indices; tasks run the trial and extract a
picklable :class:`~repro.experiments.harness.TrialSummary` (or any
other plain-data result) worker-side.

Dispatch has two paths:

* **in process** — a plain loop, whenever at most one worker would be
  busy (``min(workers, pending trials) <= 1``).
* **worker pool** — ``min(workers, pending trials)`` long-lived spawn
  workers.  Each owns one duplex pipe and is fed one trial index at a
  time; the parent multiplexes the pipes and the workers' process
  sentinels with :func:`multiprocessing.connection.wait`.  Spawn is
  used on every platform so workers never inherit forked simulator
  state, and because tasks must be picklable anyway.

Both paths share one piece of bookkeeping — attempts, per-attempt
history, retry backoff, deadline and checkpoint — so a trial fails,
retries and resumes the same way whichever path runs it.

Determinism: trials are seeded from their index alone and results are
returned in trial order, so aggregates are bit-identical regardless of
worker count.

Worker count resolution order: explicit ``workers=`` argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).

Fault tolerance
---------------

Without a :class:`FaultTolerance` policy every trial gets one attempt,
and the first failure — a worker exception or a crashed worker — is
raised as :class:`TrialExecutionError`, so the failing trial index is
never lost.  ``map_trials`` accepts an optional policy; with one
active:

* a worker exception is returned as a structured :class:`TrialError`
  carrying the trial index and traceback;
* a crashed worker (``SIGKILL``, OOM, hard exit) is detected by its
  process sentinel or by end-of-file on its pipe; only the trial it was
  running is affected, and a fresh worker replaces it;
* a hung trial's worker is killed after ``timeout`` wall-clock seconds;
* each failed trial is retried up to ``retries`` times — trials are
  seeded from their index alone, so a retry deterministically
  reproduces what the lost worker would have computed;
* completed results stream into a JSON checkpoint
  (``checkpoint_path``), and a re-run with the same checkpoint skips
  completed trials — a long sweep survives interruption of the whole
  run, with a final output identical to an uninterrupted one.

The in-process loop cannot preempt a trial, so it ignores ``timeout``
and ``heartbeat_timeout`` and honours ``deadline`` between attempts.

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
  once exhausted, no new trials launch, busy workers are killed, and
  every unfinished trial yields a :class:`TrialError` with
  ``kind="deadline"`` (never persisted, so a later resume recomputes
  them).
* **heartbeat watchdog** — tasks report progress via :func:`heartbeat`,
  which writes to the worker's own pipe (a killed worker can break only
  its own channel); with ``heartbeat_timeout`` set, a worker that stays
  silent longer than that is declared stalled (``kind="stalled"``),
  killed and its trial retried, even if its per-trial ``timeout`` has
  not expired.
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
import multiprocessing.connection
import os
import pickle
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

#: Supervision loop poll interval, seconds.
_POLL_INTERVAL = 0.05

#: Minimum spacing between heartbeat messages a worker emits.
_HEARTBEAT_INTERVAL = 0.2

#: How long a hung-up worker may take to exit before it is killed.
_JOIN_GRACE = 5.0


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


#: Worker-side heartbeat channel, set by :func:`_worker_main`:
#: ``[pipe, last_beat_monotonic]``, or ``None`` outside a pool worker.
_worker_channel: Optional[List[Any]] = None


def heartbeat() -> None:
    """Report liveness from inside a trial task running in a pool worker.

    A no-op in process, so tasks may call it unconditionally (the
    campaign shard loop beats once per session).  A beat is a ``None``
    message on the worker's own pipe, throttled to one per
    :data:`_HEARTBEAT_INTERVAL` so a tight loop cannot flood it.  The
    parent's hung-shard watchdog (``FaultTolerance.heartbeat_timeout``)
    kills a worker whose beats stop and retries its trial.
    """
    channel = _worker_channel
    if channel is None:
        return
    pipe, last = channel
    now = time.monotonic()
    if now - last < _HEARTBEAT_INTERVAL:
        return
    channel[1] = now
    try:
        pipe.send(None)
    except OSError:  # the parent hung up mid-shutdown — liveness only
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
            running longer is killed and the trial retried (worker
            pool only — the in-process loop cannot preempt itself).
        retries: extra attempts per trial after the first failure.
        checkpoint_path: JSON file streaming completed results; on the
            next run, trials already recorded there are not re-run.
            Results must be JSON-serializable (plain dicts/lists/
            scalars) when checkpointing is enabled.
        checkpoint_every: flush the checkpoint after this many newly
            completed trials (1 = after every trial); the map ends with
            one more flush only if the file still lags.
        checkpoint_digest: config digest bound into the checkpoint
            file; a file carrying a *different* digest is quarantined
            on resume instead of silently poisoning the run.
        deadline: wall-clock budget in seconds for the whole
            ``map_trials`` call; unfinished trials become
            ``kind="deadline"`` :class:`TrialError` records.
        heartbeat_timeout: a worker silent (no :func:`heartbeat`) for
            longer than this is declared stalled, killed and its trial
            retried (worker pool only).
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
        #: A loaded file lacks the config digest: the next write seals it.
        self._unsealed = False
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
        elif file_digest is None:
            self._unsealed = True
        elif file_digest != self.config_digest:
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

    @property
    def pending(self) -> bool:
        """Whether the file lags this checkpoint: results were recorded
        since the last write, or the loaded file lacks the config digest.
        """
        return self._dirty > 0 or self._unsealed

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
            self._unsealed = False

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


class _Ledger:
    """The bookkeeping both dispatch paths share for one ``map_trials``.

    It holds the checkpoint, the results, the trials still to run
    (``todo``), attempts and per-attempt history, the retry backoff and
    the deadline.  A retried trial re-enters at the front of ``todo``,
    so a recovering trial is not starved by fresh work, and the trials
    behind it wait out its backoff too.  Without a policy (``strict``) a
    trial gets one attempt and its failure raises
    :class:`TrialExecutionError`.
    """

    def __init__(
        self, indices: List[int], policy: Optional[FaultTolerance]
    ) -> None:
        started = time.monotonic()
        self.strict = policy is None
        self.policy = FaultTolerance(retries=0) if policy is None else policy
        self.deadline_at = (
            started + self.policy.deadline
            if self.policy.deadline is not None else None
        )
        self.checkpoint = (
            Checkpoint(
                self.policy.checkpoint_path,
                config_digest=self.policy.checkpoint_digest,
            )
            if self.policy.checkpoint_path else None
        )
        self.results: Dict[int, Any] = {}
        if self.checkpoint is not None:
            self.results.update(
                (index, self.checkpoint.results[index])
                for index in indices
                if index in self.checkpoint
            )
        self.todo = deque(
            index for index in indices if index not in self.results
        )
        self.attempts: Dict[int, int] = {}
        self.history: Dict[int, List[Dict[str, Any]]] = {}
        self.ready_at: Dict[int, float] = {}

    def expired(self) -> bool:
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )

    def head_delay(self) -> float:
        """Seconds until the trial at the head of ``todo`` may start."""
        return self.ready_at.get(self.todo[0], 0.0) - time.monotonic()

    def start(self) -> int:
        """Pop the head of ``todo`` and count an attempt for it."""
        index = self.todo.popleft()
        self.attempts[index] = self.attempts.get(index, 0) + 1
        return index

    def succeed(self, index: int, result: Any) -> None:
        self.results[index] = result
        if self.checkpoint is not None:
            self.checkpoint.record(
                index, result, flush_every=self.policy.checkpoint_every
            )

    def fail(
        self, index: int, kind: str, error: str, tb: str, started: float
    ) -> None:
        """Record a failed attempt; schedule a retry or settle the trial."""
        if self.strict:
            raise TrialExecutionError(index, error)
        attempt = self.attempts[index]
        history = self.history.setdefault(index, [])
        history.append({
            "attempt": attempt,
            "kind": kind,
            "error": error,
            "elapsed_s": round(time.monotonic() - started, 3),
        })
        if attempt <= self.policy.retries:
            self.ready_at[index] = time.monotonic() + retry_backoff(
                self.policy.backoff_base, self.policy.backoff_seed,
                index, attempt,
            )
            self.todo.appendleft(index)
            return
        self.results[index] = TrialError(
            trial=index, attempts=attempt, error=error, traceback=tb,
            kind=kind, history=tuple(history),
        )

    def expire(self, running: Iterable[int]) -> None:
        """The deadline passed: settle every running and waiting trial."""
        for index in [*running, *self.todo]:
            self.results[index] = TrialError(
                trial=index,
                attempts=self.attempts.get(index, 0),
                error="deadline: campaign wall-clock budget exhausted",
                kind="deadline",
                history=tuple(self.history.get(index, ())),
            )
        self.todo.clear()


def _run_in_process(task: Callable[[int], Any], ledger: _Ledger) -> None:
    while ledger.todo:
        if ledger.expired():
            ledger.expire(())
            return
        delay = ledger.head_delay()
        if delay > 0:
            time.sleep(delay)
            continue
        index = ledger.start()
        started = time.monotonic()
        try:
            result = task(index)
        except Exception as error:
            ledger.fail(
                index, "exception", f"{type(error).__name__}: {error}",
                traceback.format_exc(), started,
            )
        else:
            ledger.succeed(index, result)


def _worker_main(pipe, task):  # pragma: no cover - subprocess
    """Spawn target: run each trial index the parent sends on ``pipe``.

    Every trial ends in one reply, ``(ok, result_or_error, traceback)``;
    a ``None`` message is a :func:`heartbeat`.  End-of-file — the parent
    hung up — ends the worker.
    """
    global _worker_channel
    _silence_worker_stdout()
    _worker_channel = [pipe, 0.0]
    with contextlib.suppress(EOFError, OSError):
        while True:
            index = pipe.recv()
            try:
                reply = (True, task(index), "")
            except Exception as error:
                reply = (
                    False,
                    f"{type(error).__name__}: {error}",
                    traceback.format_exc(),
                )
            pipe.send(reply)


class _Worker:
    """One long-lived spawn worker and the parent's end of its pipe."""

    def __init__(self, context, task: Callable[[int], Any]) -> None:
        self.pipe, child = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child, task), daemon=True
        )
        self.process.start()
        # The worker now holds the only other end, so end-of-file on
        # ours means it died.
        child.close()
        #: The trial in flight, or None while idle.
        self.index: Optional[int] = None
        self.started = self.last_beat = 0.0

    def assign(self, index: int) -> None:
        self.index = index
        self.started = self.last_beat = time.monotonic()
        with contextlib.suppress(OSError):  # dead already: reaped as a crash
            self.pipe.send(index)

    def drain(self) -> List[Any]:
        """Every message a dead worker left in its pipe, in order."""
        messages = []
        with contextlib.suppress(EOFError, OSError):
            while self.pipe.poll():
                messages.append(self.pipe.recv())
        return messages

    def hang_up(self, kill: bool) -> None:
        """Close the pipe (an idle worker then exits); ``kill`` SIGKILLs."""
        self.pipe.close()
        if kill:
            self.process.kill()

    def join(self) -> Optional[int]:
        """Reap the process, killing it after a grace; its exit code."""
        self.process.join(_JOIN_GRACE)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        return self.process.exitcode


def _receive(worker: _Worker, message: Any, ledger: _Ledger) -> None:
    if message is None:
        worker.last_beat = time.monotonic()
        return
    ok, payload, tb = message
    index, worker.index = worker.index, None
    if ok:
        ledger.succeed(index, payload)
    else:
        ledger.fail(index, "exception", payload, tb, worker.started)


def _run_pool(
    task: Callable[[int], Any], ledger: _Ledger, workers: int
) -> None:
    """Feed ``ledger.todo`` to up to ``workers`` long-lived workers.

    A crash (sentinel or end-of-file), timeout or stall removes only
    the worker it hit; a fresh worker replaces it when a trial is next
    assigned.  Every worker is joined before this returns, on every
    exit path, so ``RUSAGE_CHILDREN`` covers all of them.
    """
    context = multiprocessing.get_context("spawn")
    policy = ledger.policy
    pool: List[_Worker] = []

    def retire(worker: _Worker, kill: bool) -> Optional[int]:
        pool.remove(worker)
        worker.hang_up(kill)
        return worker.join()

    try:
        while ledger.todo or any(w.index is not None for w in pool):
            if ledger.expired():
                ledger.expire(w.index for w in pool if w.index is not None)
                return
            idle = [worker for worker in pool if worker.index is None]
            while ledger.todo and ledger.head_delay() <= 0:
                if idle:
                    worker = idle.pop()
                elif len(pool) < workers:
                    worker = _Worker(context, task)
                    pool.append(worker)
                else:
                    break
                worker.assign(ledger.start())
            handles = {}
            for worker in pool:
                handles[worker.pipe] = worker
                handles[worker.process.sentinel] = worker
            for handle in multiprocessing.connection.wait(
                list(handles), _POLL_INTERVAL
            ):
                worker = handles[handle]
                if worker.pipe.closed:  # retired earlier in this pass
                    continue
                if handle is worker.pipe:
                    try:
                        message = worker.pipe.recv()
                    except (EOFError, OSError):
                        pass  # the worker died
                    else:
                        _receive(worker, message, ledger)
                        continue
                # Dead: its last reply may still sit in the pipe.
                for message in worker.drain():
                    _receive(worker, message, ledger)
                code = retire(worker, kill=False)
                if worker.index is not None:
                    ledger.fail(
                        worker.index, "crash",
                        f"worker crashed with exit code {code}", "",
                        worker.started,
                    )
            now = time.monotonic()
            for worker in [w for w in pool if w.index is not None]:
                if (
                    policy.timeout is not None
                    and now - worker.started > policy.timeout
                ):
                    kind = "timeout"
                    error = f"timeout: trial exceeded {policy.timeout:.1f}s"
                elif (
                    policy.heartbeat_timeout is not None
                    and now - worker.last_beat > policy.heartbeat_timeout
                ):
                    kind = "stalled"
                    error = (
                        "stalled: no heartbeat for "
                        f"{policy.heartbeat_timeout:.1f}s"
                    )
                else:
                    continue
                retire(worker, kill=True)
                ledger.fail(worker.index, kind, error, "", worker.started)
    finally:
        for worker in pool:
            worker.hang_up(kill=worker.index is not None)
        for worker in pool:
            worker.join()


class TrialExecutor:
    """Maps picklable tasks over trial indices, in process or on workers.

    Attributes:
        workers: resolved worker count.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        #: The Checkpoint of the most recent map (None without one) —
        #: supervisors read quarantine/write-error state off it.
        self.last_checkpoint: Optional[Checkpoint] = None

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
                value must be picklable when workers run it.
            fault_tolerance: optional policy adding per-trial timeout,
                retry, crash isolation and checkpoint/resume.  With a
                policy active, trials that exhaust their retries yield
                :class:`TrialError` records in the result list instead
                of raising; without one, the first failed trial — an
                exception or a crashed worker — is raised as
                :class:`TrialExecutionError` naming the trial.

        Returns:
            The task results, ordered like the input indices regardless
            of worker count.
        """
        indices = (
            list(range(trials)) if isinstance(trials, int) else list(trials)
        )
        if fault_tolerance is None:
            fault_tolerance = auto_fault_tolerance(task, indices)
        ledger = _Ledger(indices, fault_tolerance)
        self.last_checkpoint = ledger.checkpoint
        workers = min(self.workers, len(ledger.todo))
        if workers <= 1:
            _run_in_process(task, ledger)
        else:
            _run_pool(task, ledger, workers)
        if ledger.checkpoint is not None and ledger.checkpoint.pending:
            ledger.checkpoint.flush()
        return [ledger.results[index] for index in indices]

    def __repr__(self) -> str:
        return f"TrialExecutor(workers={self.workers})"


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
