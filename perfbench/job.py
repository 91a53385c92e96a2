"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC_JSON RESULT_PATH

SPEC_JSON is {"name": ..., "argv": [...], "trace": bool}. argv goes to
turan3.cli.main, except for the library job "is_family_free", whose argv is
[GRAPH_FILE, FAMILY] and which prints "is_family_free<TAB>yes|no". An
optional "extra": [KIND, ROUNDS] adds fixed work before the job (see
extra_work); only calibrate.py sets it.
RESULT_PATH receives the monotonic time at which turan3.cli finished
importing, the process's peak resident set and, when tracing, its spans.
The exit code is the job's.
"""

import sys
import time

import turan3.cli

IMPORTED = time.monotonic()

import json  # noqa: E402  (after the set-up timestamp on purpose)
import resource  # noqa: E402


def _is_family_free(graph_path: str, spec: str) -> int:
    from turan3 import families, graphs

    h = graphs.load_graph(graph_path)
    family = families.parse_family(spec)
    free = graphs.is_family_free(h, [fm.graph for fm in family], [fm.induced for fm in family])
    print(f"is_family_free\t{'yes' if free else 'no'}")
    return 0


def extra_work(kind: str, rounds: int) -> None:
    """Fixed work with a small ("cpu") or cache-sweeping ("copy") footprint."""
    if kind == "copy":
        src, dst = bytearray(32 << 20), bytearray(32 << 20)
        for _ in range(rounds):
            dst[:] = src
    else:
        acc = 0
        for i in range(rounds):
            acc ^= (i * 7) >> 3


def main() -> int:
    spec = json.loads(sys.argv[1])
    result: dict = {"imported": IMPORTED}
    if "extra" in spec:
        extra_work(*spec["extra"])
    if spec["name"] == "is_family_free":
        call = lambda: _is_family_free(*spec["argv"])  # noqa: E731
    else:
        call = lambda: turan3.cli.main(spec["argv"])  # noqa: E731
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        call = tracer.span(f"cli.{spec['name']}", call)
    try:
        code = call()
    finally:
        sys.stdout.flush()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["trace"] = tracer.dump()
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
