"""Traced stand-in for ``python -m k3motive``: ``cli_child.py SPANS ARGV...``.

Times the import of the library, installs the tracer's wrappers, runs
``k3motive.cli.main(ARGV)`` with recording on, writes the spans to SPANS and
exits with main's return code.  ``json.load`` is wrapped too, so document
parsing counts as decoding.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    rec.active = True
    i = rec.open("cli.import")
    import k3motive.cli
    rec.close(i)
    i = rec.open("trace.install")
    tracer.install(rec)
    json.load = tracer.wrap(json.load, "serialize.decode", rec)
    rec.close(i)
    try:
        code = k3motive.cli.main(argv)
    finally:
        rec.active = False
        rec.dump(spans, t0=T0, dumped=time.perf_counter(),
                 offset=time.time() - time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main())
