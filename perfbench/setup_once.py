"""One set-up sample, taken in a fresh interpreter by ``run.py``.

Times what a user pays before any timed work: importing the workload's
``repro`` modules and building its first round (homes, tenants, WAL
directories, fleet engine), with the speed probe sampled around and
inside it so the parent can normalise the sample.  Prints
``{"setup_s": ..., "probe": ...}``.

Usage: ``python3 perfbench/setup_once.py WORKLOAD SEED WORK_DIR``
(run from the repository root).
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    name, seed, work_dir = argv[0], int(argv[1]), argv[2]
    import probe

    def set_up() -> None:
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
        import workloads

        workloads.WORKLOADS[name](seed, work_dir).prepare(0)

    setup_s, speed = probe.timed(set_up)
    print(json.dumps({"setup_s": setup_s, "probe": speed}))
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
