"""Criterion 7 of the acceptance suite in a fresh interpreter.

The first sweep over gains {0.2, 0.6, 1.0, 1.5} x phases {0, pi/2, pi}
builds the splitter matrices (cold), the second reuses them (warm).
Prints one JSON line: wall time and worst relative deviation from the
closed form per sweep, plus the spans when run with ``--trace``.
"""

import contextlib
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from macrohom import fock  # noqa: E402

GAINS = (0.2, 0.6, 1.0, 1.5)
PHASES = (0.0, math.pi / 2.0, math.pi)


def sweep():
    worst = 0.0
    for g in GAINS:
        state = fock.tmsv(g)
        peak = fock.nrf_single_mode(g, g, 0.0)
        for phi in PHASES:
            var_diff, n_total, _ = fock.hom_stats(state, phi)
            expected = fock.nrf_single_mode(g, g, phi)
            # the trace scale is the yardstick where the formula crosses zero
            worst = max(worst, abs(var_diff / n_total - expected) / max(abs(expected), peak))
    return worst


def run(tracer):
    result = {}
    for phase in ("cold", "warm"):
        with tracer.span("bench.fock_" + phase) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result[f"{phase}_dev"] = sweep()
            result[f"{phase}_s"] = time.perf_counter() - t0
    return result


def main():
    if "--trace" in sys.argv[1:]:
        import spans

        tracer = spans.Tracer()
        with spans.instrument(tracer):
            result = run(tracer)
        result["spans"] = tracer.spans
    else:
        result = run(None)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
