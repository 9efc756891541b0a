"""Self-tests of the certification benchmark.

    python3 certbench/selftest.py

Checks that input generation is a pure function of the seed, that one
flipped expected verdict makes the run fail (failed operations and a
nonzero exit status), and that traced and untraced passes give the same
verdicts.  Exits nonzero when a check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import spans
import workloads


def check_pure_generation(lib):
    for name in workloads.WORKLOADS:
        a = workloads.generate(lib, name, 7)
        b = workloads.generate(lib, name, 7)
        assert a.texts() == b.texts(), f"{name}: JSON differs for one seed"
        assert a.ops == b.ops, f"{name}: operations differ for one seed"
    c = workloads.generate(lib, "isotope_json", 8)
    assert c.texts() != a.texts(), "isotope_json ignores its seed"


def check_flipped_verdict():
    original = workloads.generate

    def flipped(lib, workload, seed):
        wl = original(lib, workload, seed)
        op = next(op for op in wl.ops if op.target == "pair")
        op.expect = "reject"
        return wl

    workloads.generate = flipped
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", "desk_json_pair", "--seed", "3",
                               "--seconds", "0", "--trace", "0"])
    finally:
        workloads.generate = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert status != 0, "a flipped verdict still exits 0"
    assert result["failed"] > 0 and not result["correct"], result
    assert "UNEXPECTED" in out.getvalue()


def check_traced_verdicts(lib):
    wl = workloads.generate(lib, "isotope_json", 5)
    _, _, plain, _ = run.run_pass(lib, wl)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        _, _, traced, _ = run.run_pass(lib, wl, tracer)
    finally:
        tracer.uninstall()
    assert plain == traced, "tracing changed a verdict"
    assert any(name == spans.OP for name, *_ in tracer.spans)
    assert sum(error for *_, error in tracer.spans) > 0, \
        "isotope_json raised nowhere under tracing"


def main():
    lib = run.load_library()
    run.warm_up(lib)
    check_pure_generation(lib)
    check_flipped_verdict()
    check_traced_verdicts(lib)
    print("certbench self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
