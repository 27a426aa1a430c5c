"""Run one fqlab command in this process, the way the ``fqlab`` script does.

    python3 benchmark/child.py <fqlab arguments>

The package is taken from the checkout's ``src`` directory, and the
command goes through ``fqlab.cli.main``, so the process runs the same
code as an installed ``fqlab``.  When the variable BENCH_TRACE_OUT names
a file, the library layers are first wrapped with spans (see tracer.py)
and a summary of them is written to that file when the command exits.
"""

import os
import sys
import time

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
# Put src where the script's own directory was, so that no benchmark
# module can shadow a name the package imports.
sys.path[0] = os.path.join(os.path.dirname(HERE), "src")
trace_out = os.environ.pop("BENCH_TRACE_OUT", None)

if trace_out is None:
    from fqlab.cli import main

    main()
else:
    import fqlab.cli

    import_s = time.perf_counter() - start
    sys.path.append(HERE)
    import tracer

    spans = tracer.install()
    try:
        fqlab.cli.main()
    finally:
        spans.write(trace_out, import_s)
