"""Two-way data parallelism for the second core of a 2-core box: ``in_halves``
is the one place that forks."""

from __future__ import annotations

import os
import pickle
import signal


def _sendable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else its nearest built-in class
    naming its type and message, so that one CPU or two raise the same class."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        text = f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"
    base = next(c for c in type(exc).__mro__ if c.__module__ == "builtins")
    try:
        return base(text)
    except Exception:  # a built-in class whose constructor takes other arguments
        return RuntimeError(text)


def in_halves(work, items: list, channel=None) -> tuple:
    """``work`` on the first ceil(k/2) of ``items`` and on the rest, in order.
    With two usable CPUs and a non-empty second half, the second runs in a
    forked child: it inherits this process copy-on-write, pipes back its
    pickled result or exception, ends in ``os._exit`` and is always reaped,
    killed first if this process's half raises. ``channel()``, if given, is
    called before the fork and returns ``(pack, unpack)``: the child sends
    ``pack(result)`` and the parent returns ``unpack`` of it."""
    k = (len(items) + 1) // 2
    first, second = items[:k], items[k:]
    if not second or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return work(first), work(second)
    pack, unpack = channel() if channel else (lambda result: result,) * 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # e.g. BlockingIOError at the process limit
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, pack(work(second))))
            except BaseException as exc:  # raised again in the parent, as is pickle's own
                payload = pickle.dumps((False, _sendable(exc)))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = work(first)
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"the forked second half ended with wait status {status}")
    ok, message = pickle.loads(payload)
    if not ok:
        raise message
    return mine, unpack(message)
