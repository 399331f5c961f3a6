"""One benchmark child process: import altwalk from a source tree and run its CLI.

    child.py setup SRC
        import ``altwalk.cli`` and print the monotonic clock when the import is
        done; the parent subtracts the time it spawned the process.
    child.py run SPEC_JSON
        SPEC_JSON holds ``src``, ``argv`` (CLI arguments), ``out`` (the CLI
        output directory), ``result`` (where to write the result JSON),
        ``trace`` (bool) and ``spans`` (where to write the span file, if
        traced).  The result holds the exit code, the wall time of
        ``altwalk.cli.main``, the peak RSS and, if traced, the per-layer
        metrics.

Only ``sys`` and ``time`` are imported before ``altwalk.cli``, so the import
time the parent sees is the interpreter's start-up plus the package's.
"""

import sys
import time


def _import_cli(src):
    sys.path.insert(0, src)
    import altwalk.cli

    done = time.monotonic()
    if not altwalk.__file__.startswith(src):
        raise SystemExit(f"altwalk imported from {altwalk.__file__}, not from {src}")
    return altwalk.cli, done


def _run(spec):
    cli, _ = _import_cli(spec["src"])
    import json
    import os
    import resource

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    result = {
        "exit_code": code,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        metrics = spans.summarize(tracer)
        metrics["cli.output_bytes"] = sum(
            os.path.getsize(os.path.join(spec["out"], name)) for name in os.listdir(spec["out"]))
        result["metrics"] = metrics
        result["span_count"] = len(tracer.spans)
        spans.write_spans(tracer, spec["spans"])
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        _, done = _import_cli(argv[1])
        print(repr(done))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        import json

        _run(json.loads(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
