"""Run one ``ppca`` CLI command with the ppca layers traced.

Used by the traced ``cli_csv`` workload in place of ``python -m ppca.cli``.
The environment names the spans file to write, the parent span (the
command's process in the benchmark), the operation id and the workload.
"""

import os
import sys

from spans import Tracer

import ppca.cli


def main() -> int:
    parent = os.environ["PPCABENCH_PARENT"]
    tracer = Tracer(workload=os.environ["PPCABENCH_WORKLOAD"], id_prefix=f"{parent}.")
    tracer.root_parent = parent
    tracer.op_id = os.environ["PPCABENCH_OP"]
    tracer.instrument()
    try:
        return ppca.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PPCABENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
