"""Interpreter start-up hook of traced benchmark runs.

``crawlbench/run.py --trace 1`` puts this directory on the PYTHONPATH of
the Ray session it starts, so every Ray worker process (task or actor)
runs this file at interpreter start, before its first task, and installs
the layer tracer. Ray's ``worker_process_setup_hook`` would do the same
through a job ``runtime_env``, but that adds ~0.6 s to every worker and
actor start (measured on a 2-CPU local Ray session), which would distort
the crawls being traced.
"""

import os

if os.environ.get("CRAWLBENCH_TRACE_DIR"):
    from crawlbench.trace import worker_setup

    worker_setup()
