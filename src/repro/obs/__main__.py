"""CLI entry: ``python -m repro.obs`` — reports, diffs, live dashboard.

Three subcommands::

    python -m repro.obs report run.jsonl [--series] [--serve] [--png out.png]
    python -m repro.obs diff fast.jsonl reference.jsonl [--tol 1e-9]
    python -m repro.obs top --url http://127.0.0.1:9200 [--interval 1]

Any other first argument prints a usage line and exits with status 2.

This wrapper exists so the package can be invoked directly without the
runpy re-import warning that ``python -m repro.obs.report`` triggers
(the package ``__init__`` already imports the report module).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from . import audit, report, top


_COMMANDS = {"report": report.main, "diff": audit.main, "top": top.main}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to the report, diff, or top CLI."""
    args = list(sys.argv[1:] if argv is None else argv)
    command = _COMMANDS.get(args[0]) if args else None
    if command is None:
        print(
            "usage: python -m repro.obs {report|diff|top} ...",
            file=sys.stderr,
        )
        return 2
    return command(args[1:])


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI usage, not
        # an error.  Detach stdout so interpreter shutdown doesn't warn.
        sys.stdout = None  # type: ignore[assignment]
        code = 0
    sys.exit(code)
