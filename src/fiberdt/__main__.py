"""``python -m fiberdt`` and the ``fiberdt`` script.

A request is one short-lived process.  Once its output is flushed, the
process ends with ``os._exit`` instead of tearing the interpreter down
(10-13 ms a request).  ``cli.main`` itself ends nothing, so library
callers and tests that call it keep a normal interpreter.
"""

import atexit
import os
import sys

from .cli import main


def run() -> int:
    """Run the CLI and return its exit code; the process then ends without
    interpreter teardown, unless flushing the standard streams fails."""
    code = main()
    atexit.register(_exit_flushed, code)
    return code


def _exit_flushed(code: int) -> None:
    # Registered last, so it runs first: atexit handlers registered before it
    # do not run.  A failed flush returns to the normal exit, which reports
    # the error as it would without this handler.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
