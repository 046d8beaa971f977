"""Time `import heisenberg_cmc.cli` in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/import_probe.py

Times the import with `calibrate.run_sampled` and prints
{"seconds": <import wall time>, "ref_seconds": <the same at reference speed>}.
Before the timed import only calibrate and the small standard modules it
needs (gc, math, signal) are loaded; json is imported after it.
"""

from importlib import import_module

from calibrate import at_reference_speed, run_sampled

_, error, seconds, samples = run_sampled(import_module, "heisenberg_cmc.cli")
if error is not None:
    raise error

import json  # noqa: E402

print(json.dumps({"seconds": seconds, "ref_seconds": at_reference_speed(seconds, samples)}))
