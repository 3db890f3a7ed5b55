"""Record the expected answers the benchmark compares against.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/record.py

Writes bench/golden/<case>.out and exit_codes.json (the stdout and exit code
of each cli-small case and of example-main at seed 0) and digests.json (the
answer digest of each library workload on each of its W.INPUT_SETS input
sets).  Run it only on a commit whose answers are known to be right: every
later run is checked against it.
"""

from __future__ import annotations

import json
import os
import sys

import child
import workloads as W


def main():
    import dp6.cli

    codes = {}
    cases = [("example-main", False)] + list(W.CLI_SMALL_CASES)
    for name, strict in cases:
        code, text = dp6.cli.run(dp6.cli.bundled_path(name), strict=strict)
        case = W.case_name(name, strict)
        codes[case] = code
        with open(os.path.join(W.GOLDEN_DIR, case + ".out"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(text)
    with open(os.path.join(W.GOLDEN_DIR, "exit_codes.json"), "w",
              encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)

    digests = {}
    for workload in W.LIBRARY:
        digests[workload] = {}
        for seed in range(W.INPUT_SETS):
            _, ops, runner = child.setup(workload, seed)
            answers = []
            for op in ops:
                ok, answer, why = runner(op)
                if not ok:
                    sys.exit(f"{workload} seed {seed}: {why}")
                answers.append(answer)
            digests[workload][str(seed)] = W.digest(answers)
    with open(os.path.join(W.GOLDEN_DIR, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
