"""Run a stage's parts on every usable CPU.

``run_parts`` runs part 0 in this process and each other part in a child made
by ``os.fork``, so a part sees everything the stage built before it: the
imports, the checked options, the fleet. A child sends its result or its
exception back over a pipe, pickled, and always ends with ``os._exit``, so
it never unwinds the caller's stack (a test runner's, a tracer's) and never
flushes the caller's buffers. Every child is reaped before ``run_parts``
returns or raises. A child whose parent has died exits when its pipe write
fails, so no process is left running.

``serial_on_failure`` makes a failure independent of the part count: if any
part fails, the stage runs again as one part, in this process, and that run
raises the error, with the row number and exit code a single process gives.

This is the one module of the package that starts processes.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence, TypeVar

P = TypeVar("P")
R = TypeVar("R")

_READ = 1 << 20


def cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def ranges(n: int, count: int) -> list[range]:
    """``range(n)`` cut into ``min(count, n)`` contiguous ranges whose lengths
    differ by at most one (one empty range when n is 0)."""
    count = max(1, min(count, n))
    return [range(n * i // count, n * (i + 1) // count) for i in range(count)]


def run_parts(fn: Callable[[P], R], parts: Sequence[P]) -> list[R]:
    """``[fn(part) for part in parts]``, the parts run at once: part 0 in this
    process, each other in a forked child. Raises the exception of the
    first part that failed, in part order."""
    if len(parts) == 1:
        return [fn(parts[0])]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                for _, other in children:  # only the parent may hold a read end
                    os.close(other)
                _child(fn, part, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [fn(parts[0])]
        for pid, read_end in children:
            ok, value = _receive(read_end, pid)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read_end in children:
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)  # a child still running is not needed
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _child(fn: Callable[[P], R], part: P, write_end: int) -> None:
    """Run ``fn(part)`` and write (ok, result or exception), pickled, to ``write_end``;
    never returns."""
    try:
        try:
            data = pickle.dumps((True, fn(part)))
        except BaseException as exc:
            data = pickle.dumps((False, exc))
        view = memoryview(data)
        while view:
            view = view[os.write(write_end, view):]
    finally:
        os._exit(0)


def _receive(read_end: int, pid: int) -> tuple[bool, object]:
    """What the child ``pid`` wrote to ``read_end``, read to its end."""
    chunks = []
    while chunk := os.read(read_end, _READ):
        chunks.append(chunk)
    if not chunks:
        return False, ChildProcessError(f"part process {pid} ended without a result")
    return pickle.loads(b"".join(chunks))


def serial_on_failure(attempt: Callable[[Sequence[P]], R], parts: Sequence[P], whole: P) -> R:
    """``attempt(parts)``; if that raises and there was more than one part,
    ``attempt([whole])``, whose result or error is the one-part result or error."""
    if len(parts) > 1:
        try:
            return attempt(parts)
        except Exception:
            pass  # the one-part run below gives the error a single process gives
    return attempt([whole])
