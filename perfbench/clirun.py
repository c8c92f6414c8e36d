"""Run a filtcones command as the ``filtcones`` script would.

Only the workloads that drive the command line import this module, and
they do so during set-up: the import of ``filtcones.cli``, and of
everything it pulls in, is then part of ``setup_s`` and not of the first
timed op.
"""

from __future__ import annotations

import contextlib
import io
import sys

from filtcones import cli  # the worker puts src on the path


def run_cli(argv):
    """Returns (exit code, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors and sys.exit end here
            code = exc.code
            if not (code is None or isinstance(code, int)):
                print(code, file=sys.stderr)
                code = 1
    return code or 0, out.getvalue(), err.getvalue()
