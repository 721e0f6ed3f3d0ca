"""The command line as a process: ``python -m urprior <command> ...``.

It runs ``urprior.cli.main`` on ``sys.argv``, with the same exit codes.
Importing the command line loads the whole library before ``main`` can
catch anything. Any exception raised there exits 3 ("internal error")
with one stderr line, as a crash inside ``main`` does, never 1 ("no
ur-prior"); ``crashed`` reports both. Short of memory, that import fails
with a ``MemoryError``, or with another error that Python raises while
it compiles the source or the methods of the two dataclasses (a
``SyntaxError`` on valid source, say). The package itself imports
nothing of the library first. ``python -m urprior.cli`` runs the same
commands without this guard.
"""

from __future__ import annotations

import sys


def main() -> int:
    """Import the command line and run it; exit 3 when the import fails."""
    try:
        from urprior.cli import main as run
    except Exception as exc:  # exit code 1 means "no ur-prior", never "crashed"
        failure = exc
    else:
        return run()
    return crashed(failure)


def crashed(failure: BaseException) -> int:
    """Report ``failure`` on one "internal error" stderr line; return the exit code 3.

    Call it out of the handler (Python 3.10 holds the traceback there): the
    frames of the failure and its context are freed before formatting, which
    may need the memory.
    """
    link: BaseException | None = failure
    while link is not None:
        link.__traceback__ = None
        link = link.__context__
    try:
        message = " ".join(str(failure).split())
        print(f"internal error: {type(failure).__name__}: {message}", file=sys.stderr)
    except Exception:
        pass  # out of memory even for the message: the exit code still says "crashed"
    return 3


if __name__ == "__main__":
    sys.exit(main())
