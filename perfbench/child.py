"""One CLI run of the benchmark, in a process of its own.

Usage: python3 child.py RESULT_JSON [--trace] [-- CLI ARGV...]

Imports ris2x2 (from the checkout's ``src``, put on PYTHONPATH by the
parent), runs ``ris2x2.cli.main`` on the CLI arguments and writes
RESULT_JSON once at the end:

* ``import_done``: ``time.monotonic()`` right after ``import ris2x2``; the
  parent subtracts its spawn time to get the set-up time;
* ``wall_s``: time from entering ``cli.main`` until it returns;
* ``exit_code``: what ``cli.main`` returned;
* with ``--trace``, ``spans``: every call across a layer boundary, as
  ``[id, name, start, end, parent, thread, attrs]``.

Without CLI arguments it only imports (a set-up probe). Tracing patches the
callers' namespaces from here; the program's source is not touched.
"""

import ris2x2

import time

IMPORT_DONE = time.monotonic()

import itertools
import json
import sys
import threading


class Tracer:
    """Spans kept in memory; parents are tracked per thread.

    A span opened on a pool thread with no open span of its own takes the
    innermost open span of the main thread as parent: the main thread is
    then blocked in the call that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(result)`` gives the
        span's counts and is evaluated after the span has ended."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_thread and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = measure(result) if measure and result is not None else None
                self.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), attrs)
                )
            return result

        return traced


def _stats_bytes(stats):
    arrays = (
        stats.lam, stats.om, stats.z_plain, stats.z_comp,
        stats.alt_factor, stats.alt_iterations, stats.alt_converged,
    )
    return {"bytes": sum(a.nbytes for a in arrays if a is not None)}


def install(tracer):
    """Wrap the public functions where one module calls another."""
    from scipy.integrate import quad as scipy_quad

    from ris2x2 import altopt, analytic, cli, montecarlo, sampling, special

    def patch(module, attr, name, measure=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))

    # scipy -> special: full_output adds the evaluation count without
    # changing the computation; the caller still gets (value, error).
    quad_full = tracer.wrap(
        "special.quad",
        lambda *a, **k: scipy_quad(*a, full_output=1, **k),
        lambda r: {"evals": r[2]["neval"], "err": r[1]},
    )
    special.quad = lambda *a, **k: quad_full(*a, **k)[:2]

    patch(special, "meijer_g", "special.meijer_g")  # weighted_bessel_integral calls it
    analytic.meijer_g = special.meijer_g
    patch(analytic, "weighted_bessel_integral", "special.weighted_bessel_integral")

    patch(sampling, "svd2", "linalg2.svd2", lambda r: {"matrices": r.sigma.size // 2})
    patch(altopt, "svd2", "linalg2.svd2", lambda r: {"matrices": r.sigma.size // 2})
    patch(montecarlo, "channel_realizations", "sampling.channel_realizations",
          lambda r: {"trials": len(r.g)})
    patch(montecarlo, "mode_z_factors", "sysmodel.mode_z_factors")
    patch(montecarlo, "optimize_batch", "altopt.optimize_batch",
          lambda r: {"cycles": int(r.iterations.sum())})
    patch(montecarlo, "channel_statistics", "montecarlo.channel_statistics", _stats_bytes)
    patch(montecarlo, "outage_from_stats", "montecarlo.reduce")
    patch(montecarlo, "throughput_from_stats", "montecarlo.reduce")
    for attr in ("outage_closed_form", "throughput", "outage_quadrature"):
        patch(analytic, attr, f"analytic.{attr}")

    patch(cli, "run_acceptance", "acceptance.run_acceptance",
          lambda r: {f"C{c.criterion}": c.seconds for c in r})


def main(argv):
    out_path, rest = argv[0], argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    cli_argv = rest[1:] if rest and rest[0] == "--" else rest
    record = {"import_done": IMPORT_DONE, "ris2x2_file": ris2x2.__file__}
    if cli_argv:
        from ris2x2 import cli

        run = cli.main
        if trace:
            tracer = Tracer()
            install(tracer)
            run = tracer.wrap("cli.main", cli.main)
        start = time.perf_counter()
        code = run(cli_argv)
        record["wall_s"] = time.perf_counter() - start
        record["exit_code"] = code
        if trace:
            record["spans"] = tracer.spans
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return record.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
