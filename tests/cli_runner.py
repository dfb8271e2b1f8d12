"""Run a command-line `main` in this process with its output captured."""

import contextlib
import io
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class CliRunner:
    """Calls `main(args)` with stdout and stderr redirected into separate
    buffers, and takes the exit code from the `SystemExit` it raises.
    Any other exception reaches the caller."""

    def invoke(self, main, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as done:
                code = 0 if done.code is None else done.code
        return Result(code, out.getvalue(), err.getvalue())
