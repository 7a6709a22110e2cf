"""Run one persfiber CLI command with the benchmark tracer installed.

    python3 bench/clitrace.py STATS_JSON <persfiber arguments...>

Behaves like ``python -m persfiber.cli <arguments>`` (same stdout, stderr
and exit status, an uncaught exception printing its traceback and exiting
1) and writes the tracer's aggregates to STATS_JSON on the way out.
"""
import json
import sys
import traceback

from tracer import Tracer


def main() -> int:
    stats_path, args = sys.argv[1], sys.argv[2:]
    import persfiber.cli
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return persfiber.cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.enabled = False
        tracer.end_op()
        with open(stats_path, "w") as fh:
            json.dump(tracer.state, fh)


if __name__ == "__main__":
    sys.exit(main())
