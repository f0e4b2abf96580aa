"""One fresh interpreter per measurement; run by perfbench/run.py.

    child.py setup INI
        import vlcudn.cli and load INI; print the CLOCK_MONOTONIC instant the
        config was validated, plus the import and load times.
    child.py run TRACE_DIR|- LANES CLI_ARG...
        time the reference workload (calibrate.py) on LANES processes at
        once, then import vlcudn.cli, call vlcudn.cli.main(CLI_ARG...) in
        process and time it.  The reference passes run before vlcudn is
        imported, so nothing the program does can change them.  With a
        TRACE_DIR, every public vlcudn function is wrapped first and the
        span stats are dumped there.  Prints both times and the peak RSS of
        this process and of its waited-for children.

The last line of stdout is one JSON object.  PYTHONPATH must hold src.
"""

import time

_T0 = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup(ini: str) -> dict:
    import vlcudn.cli  # noqa: F401

    t_import = time.monotonic()
    from vlcudn.config import load_experiment

    load_experiment(ini)
    ready = time.monotonic()
    return {"ready": ready, "import_s": t_import - _T0, "load_s": ready - t_import}


def _run(trace_dir: str, lanes: int, cli_args: list[str]) -> dict:
    from calibrate import reference_seconds

    reference_s = reference_seconds(lanes)
    import vlcudn.cli

    tracer = None
    if trace_dir != "-":
        from tracer import Tracer, install

        tracer = Tracer(trace_dir)
        install(tracer)
    t0 = time.monotonic()
    try:
        vlcudn.cli.main(cli_args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    elapsed = time.monotonic() - t0
    if tracer is not None:
        tracer.dump()
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers pool workers,
    # which ProcessPoolExecutor has joined by the time main() returns.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {"code": code, "elapsed_s": elapsed, "reference_s": reference_s,
            "peak_rss_mb": peak_kib / 1024.0}


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        result = _setup(argv[1])
    elif len(argv) >= 3 and argv[0] == "run":
        result = _run(argv[1], int(argv[2]), argv[3:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return result.get("code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
