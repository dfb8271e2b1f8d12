"""The wire adapter: a system under test in a child process, driven
over line-delimited JSON on its standard streams."""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import time
import typing as t

from .errors import ProtocolError, SutCrashed
from .pbt import Command
from .values import value_from_json

# A case whose replies have not all arrived this many seconds after its
# requests were sent has timed out; so has a lone apply().
CASE_DEADLINE_S = 5.0
# close() waits this long for the SUT to exit once its input is closed,
# and as long again after asking it to terminate, before killing it.
CLOSE_GRACE_S = 10.0
# How often close() checks for an exit that brought no EOF.
EXIT_POLL_S = 0.05
# One encoder for every request: json.dumps(..., sort_keys=True) would
# build a new one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _observation(line: bytes) -> dict:
    """The observation map of one reply line; raises SutCrashed for a
    declared fault and ProtocolError for anything malformed."""
    text = line.decode("utf-8", "replace")
    try:
        reply = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ProtocolError(f"unparseable reply {text!r}") from bad
    if not isinstance(reply, dict) or "ok" not in reply:
        raise ProtocolError(f"malformed reply {reply!r}")
    if not reply["ok"]:
        raise SutCrashed(str(reply.get("error", "unspecified fault")))
    observed = reply.get("observed")
    if not isinstance(observed, dict):
        raise ProtocolError(f"malformed reply {reply!r}")
    return {k: value_from_json(v) for k, v in observed.items()}


def _observations(lines: list, crash: t.Optional[str]) -> t.Iterator[dict]:
    for line in lines:
        yield _observation(line)
    if crash is not None:
        raise SutCrashed(crash)


def _exited(proc: subprocess.Popen, grace: float) -> bool:
    """Whether `proc` exits, and is reaped, within `grace` seconds.

    Its output reaching EOF wakes the wait at once, where Popen.wait
    would sleep between polls; the exit of a process whose output
    something else holds open is seen within EXIT_POLL_S."""
    deadline = time.monotonic() + grace
    stdout = proc.stdout.fileno()
    with selectors.DefaultSelector() as selector:
        selector.register(stdout, selectors.EVENT_READ)
        while (left := deadline - time.monotonic()) > 0:
            if selector.select(min(left, EXIT_POLL_S)):
                if not os.read(stdout, 1 << 13):
                    break  # EOF: the process is exiting
            elif proc.poll() is not None:
                return True
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return False
    return True


class SubprocessAdapter:
    """Line-delimited JSON over a child process's standard streams.

    Requests are {"op": name, "args": {...}} with the special op
    "__reset"; replies are {"ok": true, "observed": {...}} or
    {"ok": false, "error": text}, one line per request, in order.

    A case is one write of "__reset" and all its requests, as the model
    needs no reply to know the next request; the replies are then read
    and judged in order.  So the SUT also receives the rest of a case
    after a divergence or a declared fault; those replies are read and
    dropped, which keeps the next "__reset" reply in step.  Only a SUT
    whose behaviour after "__reset" is not fully determined by the
    requests since can tell.

    A SUT that closes its output, or leaves a reply missing
    CASE_DEADLINE_S after the case was sent, fails the step of the first
    missing reply, and its process is killed.  A dead process is started
    again before the next reset, so each case and shrink replay gets a
    live one.  A reset that gets no good reply raises SutCrashed.
    """

    def __init__(self, argv):
        self.argv = list(argv)
        if not self.argv:
            raise ValueError("the SUT command line is empty")
        self.process = None
        self._spawn()

    def _spawn(self) -> None:
        self.process = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        os.set_blocking(self.process.stdin.fileno(), False)
        self._unread = b""  # reply bytes read past the last exchange

    def _exchange(self, requests: list) -> tuple:
        """Write the request lines in one go and read one reply line per
        request, both as the pipes allow.  Returns the lines read and, when
        some are missing, why: the process then is dead or killed."""
        proc = self.process
        if proc is None or proc.poll() is not None:
            raise SutCrashed("SUT process is not running")
        unsent = memoryview("".join(
            _encode(r) + "\n" for r in requests).encode())
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
        *lines, partial = self._unread.split(b"\n")
        crash = broken = None
        deadline = time.monotonic() + CASE_DEADLINE_S
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            selector.register(stdout, selectors.EVENT_READ)
            while crash is None and len(lines) < len(requests):
                events = selector.select(max(0.0, deadline - time.monotonic()))
                if not events:
                    crash = f"SUT sent no reply within {CASE_DEADLINE_S} s"
                for key, _ in events:
                    if key.fd == stdin:
                        try:
                            unsent = unsent[os.write(stdin, unsent):]
                        except OSError as io_error:  # the SUT stopped reading
                            broken, unsent = io_error, unsent[:0]
                        if not unsent:
                            selector.unregister(stdin)
                    elif chunk := os.read(stdout, 1 << 13):
                        *complete, partial = (partial + chunk).split(b"\n")
                        lines += complete
                    else:
                        crash = (f"SUT pipe broke: {broken}" if broken
                                 else "SUT closed its output stream")
        if crash is not None:
            proc.kill()
            proc.wait()
        self._unread = b"\n".join(lines[len(requests):] + [partial])
        return lines[:len(requests)], crash

    def replies(self, commands) -> t.Iterator[dict]:
        if self.process is not None and self.process.poll() is not None:
            self.restart()  # it died in an earlier case
        requests = [{"op": "__reset", "args": {}}]
        lines, crash = self._exchange(requests + [c.to_json() for c in commands])
        if not lines:
            raise SutCrashed(crash)
        _observation(lines[0])
        return _observations(lines[1:], crash)

    def reset(self) -> None:
        self.replies(())

    def restart(self) -> None:
        self.close()
        self._spawn()

    def apply(self, command: Command) -> dict:
        return next(_observations(*self._exchange([command.to_json()])))

    def close(self) -> None:
        """Close the SUT's input and reap it; never raises.  A SUT still
        running after CLOSE_GRACE_S is terminated, then killed."""
        proc = self.process
        self.process = None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass  # the child stopped reading; its unread input is moot
        for stop in (proc.terminate, proc.kill):
            if _exited(proc, CLOSE_GRACE_S):
                break
            stop()
        else:
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "SubprocessAdapter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
