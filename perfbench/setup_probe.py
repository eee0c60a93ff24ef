"""Set-up time of one workload, measured in a fresh process.

Times `import asl_forge` plus the construction of the first call's ring,
generators and variable poset, and prints the seconds taken.  run.py
starts it with src/ on PYTHONPATH:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
import time

import workloads


def main() -> None:
    argv = workloads.calls(sys.argv[1], int(sys.argv[2]))[0]
    n = int(workloads.arg(argv, "--n", "0"))
    field_text = workloads.arg(argv, "--field", "rationals")
    mask = json.loads(workloads.arg(argv, "--mask", "null"))

    t0 = time.perf_counter()
    from asl_forge import (CoefficientField, MatrixPattern, build_poset,
                           matrix_product_ideal)

    pattern = MatrixPattern.zero_pattern(mask) if mask else MatrixPattern.generic(n)
    field = (CoefficientField.prime(int(field_text[3:-1]))
             if field_text.startswith("gf(") else CoefficientField.rationals())
    matrix_product_ideal(pattern, field)
    build_poset(n)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
