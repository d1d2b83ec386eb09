"""Set-up work of one CLI call, in a fresh interpreter: import fibrum, load
each named config and build its connection.

    python3 perfbench/setup_probe.py CONFIG.json ... | verify:BUNDLE ...

``verify:BUNDLE`` stands for the config that ``fibrum verify BUNDLE``
builds.  The caller times the whole process, interpreter start included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fibrum.cli as cli  # noqa: E402  (the CLI imports the whole package)

for item in sys.argv[1:]:
    if item.startswith("verify:"):
        cfg = cli.load_config({"bundle_name": item[len("verify:"):],
                               "scenario": "verify-all"})
    else:
        cfg = cli.load_config(item)
    cli.build_connection(cfg.bundle_name, cfg.bundle_params)
