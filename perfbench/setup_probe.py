"""Set-up probe: import the CLI, parse a config and build its IfsSystem.

    python3 perfbench/setup_probe.py configs/bm.json

Prints ``ready`` once done; ``run.py`` times a fresh interpreter from
launch to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import affinedim.cli  # noqa: E402,F401  (imports every layer, as the CLI does)
from affinedim.config import load_config  # noqa: E402

load_config(sys.argv[1])
print("ready", flush=True)
