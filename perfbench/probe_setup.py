"""Set-up probe: a fresh interpreter imports qgame and loads one scenario.

worker.py times the whole process from outside (that is ``setup_s``); the
probe reports the import and load parts from inside as JSON, wall
seconds not yet scaled to the reference speed.

    python3 perfbench/probe_setup.py SCENARIO.json
"""

import json
import sys
import time

t0 = time.perf_counter()
import qgame.scenario  # noqa: E402

t1 = time.perf_counter()
qgame.scenario.load_scenario(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
