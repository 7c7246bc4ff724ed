"""Traced daemon launcher: ``python3 perfbench/launcher.py serve STORE ...``.

Times the CLI import, installs the span wrappers of :mod:`spans`, then
runs the same entry point as ``repro-fgcs`` (``repro.cli.main``) with the
given arguments.  Spans go to ``$PERFBENCH_SPANS`` when the daemon exits.
The untraced run starts ``python3 -m repro.cli`` instead and loads none
of this.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    import spans

    node = spans.RECORDER.begin("cli.import")
    import repro.cli

    spans.RECORDER.end(node)
    spans.install_serve()
    try:
        return repro.cli.main(argv)
    finally:
        spans.dump_to_env("daemon")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
