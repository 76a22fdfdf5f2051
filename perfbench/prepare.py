"""Write a workload's seeded inputs and the reference value of every output.

    python3 perfbench/prepare.py WORKLOAD SEED WORKDIR

Leaves ``WORKDIR/prepared.pickle`` holding (inputs, references, facts,
reference seconds).  It runs as its own process because a child's
``ru_maxrss`` starts from its parent's high-water mark: the process that
launches the CLI and reads its peak memory must never hold the oracle's
dense matrices.
"""

import pickle
import sys
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS


def main(name: str, seed: int, work: Path) -> None:
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed, work)
    begin = time.perf_counter()
    commands = workload.commands(inputs, work / "out")
    outputs = [o for _, outs in commands for o in outs]
    refs, facts = oracle.references(commands[0][0], outputs)
    with open(work / "prepared.pickle", "wb") as fh:
        pickle.dump((inputs, refs, facts, time.perf_counter() - begin), fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
