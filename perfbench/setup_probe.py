"""One cold start: import amecodes, load and verify the catalog, parse inputs.

Run by ``run.py`` in a fresh interpreter per start.  Reads the workload's
table texts as JSON on stdin and prints one JSON line with the time each
step took; the parent times the whole start up to that line.
"""

import json
import sys
import time
from pathlib import Path



def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    from amecodes import catalog, stabtab
    t1 = time.perf_counter()
    catalog.load_catalog(verify=True)
    t2 = time.perf_counter()
    request = json.loads(sys.stdin.read())
    for text in request["tables"]:
        stabtab.parse(text)
    if request["grid"]:
        catalog.catalog_grid()
    t3 = time.perf_counter()
    print(json.dumps({"amecodes.import_s": t1 - t0, "catalog.load_s": t2 - t1,
                      "inputs.parse_s": t3 - t2, "cpu_s": time.process_time()}), flush=True)


if __name__ == "__main__":
    main()
