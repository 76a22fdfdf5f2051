"""Everything a ``mahf`` CLI run does before its first filter or kernel call.

Run as a fresh process, so its wall time includes interpreter start and the
``mahf`` import:  python3 perfbench/setup_child.py COMMAND [CLI OPTIONS...]
with the arguments of the CLI command whose set-up it repeats.
"""

import sys

from workloads import cli_setup

if __name__ == "__main__":
    cli_setup(sys.argv[1:])
