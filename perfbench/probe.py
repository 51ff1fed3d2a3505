"""Set-up probe: import the CLI, load an index config and validate it.

    python3 probe.py SRC_DIR CONFIG
"""

import sys

sys.path.insert(0, sys.argv[1])

from liegroup_index.cli import load_config, validate_index_config  # noqa: E402

validate_index_config(load_config(sys.argv[2]))
