"""Run one Panorama CLI with the layer wrappers installed.

    python -X importtime trace_child.py OUT.json MODULE [ARGS...]

Imports ``MODULE`` (``repro.driver.cli``, ``repro.engine.campaign`` or
``repro.server.cli``), installs the :mod:`tracing` wrappers, calls the
module's real ``main(ARGS)``, and on the way out writes the process's
spans and layer aggregates to ``OUT.json`` for the harness.  The exit
code is ``main``'s.

The import of ``MODULE`` is timed as ``import_s``, before :mod:`tracing`
is imported: installing the wrappers imports every layer's module, also
those this CLI never loads.  The harness starts the child under
``-X importtime``; the child writes :data:`IMPORTS_DONE` to stderr once
``MODULE`` is imported, and :func:`numpy_seconds` reads only the log
above it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

#: the stderr line that ends the program's own imports
IMPORTS_DONE = "perfbench: program imported"


def numpy_seconds(stderr: str) -> float:
    """Cumulative time of the program's first ``numpy`` import (0 if none),
    from the ``-X importtime`` log of a traced child."""
    for line in stderr.splitlines():
        if line == IMPORTS_DONE:
            break
        fields = line.split("|")
        if line.startswith("import time:") and fields[-1].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out, module_name, *args = sys.argv[1:]
    started = time.perf_counter()
    module = importlib.import_module(module_name)
    import_s = time.perf_counter() - started
    # -X importtime writes to the C-level stderr, unbuffered: write the
    # marker there too, so it lands between the two groups of lines
    sys.stderr.flush()
    os.write(2, f"{IMPORTS_DONE}\n".encode())
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    started = time.perf_counter()
    try:
        code = module.main(args)
    finally:
        main_s = time.perf_counter() - started
        tracer.uninstall()
        tracer.dump(out, exit=code, import_s=import_s, main_s=main_s,
                    module=module_name)
    return code


if __name__ == "__main__":
    sys.exit(main())
