"""Set-up probe: import the workloads and one package's fkexit.cli, build one
workload's components on that package, and exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED PACKAGE

PACKAGE is ``fkexit`` (the checkout) or ``fkexit_base`` (the frozen copy).
run.py times this process from start to exit as the benchmark's set-up time.
"""

import sys

from run import bootstrap

bootstrap()
import workloads  # noqa: E402

fk = workloads.package(sys.argv[3])
workloads.WORKLOADS[sys.argv[1]](fk).components(int(sys.argv[2]))
