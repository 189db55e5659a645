"""One benchmark invocation in a fresh process; run.py starts it.

    python3 perfbench/child.py SPEC.json

The spec names the repository root, the argument lists to pass to
``fedcost.cli.main`` one after another, whether to trace, and where to
write the result.  The result holds the moment ``fedcost.cli`` finished
importing (on the same monotonic clock the parent read before starting this
process), the host seconds spent inside the CLI calls, their exit codes,
peak resident memory and CPU seconds (of this process and any it waited
for) and, for a traced run, the layer report.
A probe spec stops after the import.
"""

import json
import os
import resource
import sys
import time


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import fedcost.cli

    imported_at = time.perf_counter()
    result = {"imported_at": imported_at, "module": os.path.abspath(fedcost.cli.__file__)}
    if not spec["probe"]:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        codes = []
        t0 = time.perf_counter()
        try:
            for argv in spec["commands"]:
                codes.append(fedcost.cli.main(argv))
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        result["codes"] = codes
        result["wall_s"] = wall_s
        if tracer is not None:
            result["trace"] = tracer.report()
    # CPU time sums every waited-for child; ru_maxrss of RUSAGE_CHILDREN is
    # the peak of the largest single child, not of children running at once
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0
    result["cpu_s"] = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
