"""Run the gmspectra command line in process, as a shell would see it.

``invoke(*args)`` runs ``cli.main()`` with ``sys.argv`` set to
``gmspectra *args`` and returns a ``Result``:

- ``exit_code``: the code of the ``SystemExit``, 0 when main returns, and 1
  when it raises any other exception;
- ``output``: stdout and stderr interleaved as written, ``\\r\\n`` read as
  ``\\n`` (csv rows end in ``\\r\\n``);
- ``stdout`` and ``stderr``: each stream alone, as written;
- ``exception``: the ``SystemExit`` of a nonzero exit, the raised exception
  of exit code 1, or None.
"""

import io
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

from gmspectra import cli

Result = namedtuple("Result", "exit_code output stdout stderr exception")


class _Stream(io.StringIO):
    """One captured stream that also writes into the interleaved one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(*args: str) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    argv, sys.argv = sys.argv, ["gmspectra", *args]
    exit_code, exception = 0, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main()
    except SystemExit as exc:
        exit_code = exc.code or 0
        exception = exc if exit_code else None
    except Exception as exc:
        exit_code, exception = 1, exc
    finally:
        sys.argv = argv
    return Result(exit_code, both.getvalue().replace("\r\n", "\n"), out.getvalue(),
                  err.getvalue(), exception)
