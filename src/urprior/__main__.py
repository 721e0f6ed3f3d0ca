"""The command line as a process: ``python -m urprior <command> ...``.

It runs ``urprior.cli.main`` on ``sys.argv``, with the same exit codes.
Importing the command line loads the whole library before ``main`` can
catch anything. Any exception raised there exits 3 ("internal error")
with one stderr line, as a crash inside ``main`` does, never 1 ("no
ur-prior"). Short of memory, that import fails with a ``MemoryError``,
or with another error that Python raises while compiling the methods a
dataclass generates. The package itself imports nothing of the library
first. ``python -m urprior.cli`` runs the same commands without this
guard.
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
    failure.__traceback__ = None  # free the failed import's frames before reporting
    try:
        message = " ".join(str(failure).split())
        print(f"internal error: {type(failure).__name__}: {message}", file=sys.stderr)
    except Exception:
        pass  # out of memory even for the message: the exit code still says "crashed"
    return 3


if __name__ == "__main__":
    sys.exit(main())
