"""Start-up hook for the discovery workers of the benchmark's service.

The ``service-campaign`` workload puts this directory on the workers'
``PYTHONPATH`` and names an output directory in ``PERFBENCH_HOOK_DIR``;
Python then imports this module when each worker starts, and it installs
:func:`tracer.install_worker_probe`.  Without that variable it does
nothing.
"""

import os

if os.environ.get("PERFBENCH_HOOK_DIR"):
    import importlib.util

    _path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tracer.py")
    _spec = importlib.util.spec_from_file_location("perfbench_tracer", _path)
    _tracer = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_tracer)
    _tracer.install_worker_probe(
        os.environ["PERFBENCH_HOOK_DIR"], os.environ.get("PERFBENCH_TRACE") == "1"
    )
