"""Run one ``rankfit`` command with spans around the toolkit's public functions.

Usage: python3 traced_cli.py --spans OUT.json --run-id ID -- <rankfit arguments>

The toolkit must be importable (``src`` on PYTHONPATH). The command runs
exactly as the ``rankfit`` console script runs it; this file only rebinds
functions before the command starts and writes the spans when it exits.
"""

from __future__ import annotations

import argparse
import sys

from tracing import Tracer, install


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import rankfit.cli

    tracer = Tracer(args.run_id)
    install(tracer)
    tracer.open_root("cli.main")
    code = 0
    try:
        rankfit.cli.main(command, prog_name="rankfit")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.close_root({"exit_code": code})
        tracer.dump(args.spans)
    sys.exit(code)


if __name__ == "__main__":
    main()
