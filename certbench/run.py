"""Certification benchmark for jordanaff.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory.  One process, one thread, closed loop:
the operations of a workload are issued back to back in a fixed seeded
order, and a pass (all operations once) repeats until ``--seconds`` is
used up.  Every verdict is checked against the oracle in
``workloads.py``.

End-to-end times are corrected for the speed of the host: on a shared
2-vCPU VM the one busy thread runs up to 1.7x slower for stretches of
seconds to minutes.  A fixed reference kernel (``reference_kernel``)
runs before every operation and around every set-up step, and each
operation or set-up step is scaled by ``REF_S`` over the mean time of
the kernels next to it.  A corrected time reads as seconds on a host
that runs the kernel in ``REF_S``.  Raw and corrected pass walls are
both printed; per-layer times are raw.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see ``spans.py``), writing every span to
``.certbench_out/``.  The last line of standard output is one JSON
object; the exit status is nonzero when any verdict is unexpected.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads
from workloads import L1, SAMPLES

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".certbench_out"
SETUP_REPEATS = 3
DIM_BANDS = (("<=9", 9), ("10-21", 21), ("22-27", 27), (">=28", None))
HEIGHT_BANDS = (("<=8", 8), ("9-31", 31), ("32-62", 62), (">=63", None))

# Reference kernel time at the fast speed of a 2-vCPU Xeon VM (Python
# 3.11); corrected times are seconds on a host that runs the kernel in
# this time.
REF_S = 0.0003
REF_SAMPLES = 20  # kernels timed before and after each set-up step
REF_HALF = 8      # an operation's factor uses the 2 * 8 + 1 kernels around it

clock = time.perf_counter


def reference_kernel():
    """A fixed slice of the Fraction and list work the library does."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, 3)
    rows = [[(i * j) % 11 for j in range(12)] for i in range(12)]
    return acc, sum(map(sum, rows))


def reference_time():
    """Time of one reference kernel.

    The cyclic collector is held off meanwhile, so that a collection
    the library's garbage is due for runs, and is timed, in the library.
    """
    gc.disable()
    try:
        t0 = clock()
        reference_kernel()
        return clock() - t0
    finally:
        gc.enable()


def corrected(fn, *args):
    """Run ``fn(*args)``: (its result, its host-corrected time in s)."""
    refs = [reference_time() for _ in range(REF_SAMPLES)]
    t0 = clock()
    result = fn(*args)
    wall = clock() - t0
    refs += [reference_time() for _ in range(REF_SAMPLES)]
    return result, wall * REF_S / statistics.fmean(refs)


def load_library():
    """Import jordanaff from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "jordanaff" / "__init__.py").is_file():
        raise SystemExit(f"error: no jordanaff sources under {src}")
    sys.path.insert(0, str(src))
    import jordanaff
    import jordanaff.calabi  # noqa: F401  (every traced layer)
    if Path(jordanaff.__file__).resolve().parent != src / "jordanaff":
        raise SystemExit(f"error: imported jordanaff from "
                         f"{jordanaff.__file__}, not from {src}")
    return jordanaff


def warm_up(lib):
    """Finish the library's lazy imports (scipy expm, sympy)."""
    model = lib.hypersurface.build_model(lib.catalog.build("reals"), L1)
    model.check_level(count=1)
    lib.catalog.build("complex_field").decompose()


# -- one operation -----------------------------------------------------------

def certify(lib, target, j, seed):
    """Verdict of one verification target, as ``jordanaff verify`` runs it."""
    kw = {"n_samples": SAMPLES, "seed": seed}
    if target == "jordan":
        return j.check_jordan(**kw).passed
    if target == "fundamental":
        return j.check_fundamental(**kw).passed
    if target == "triple":
        checks = [j.check_triple(**kw), j.check_self_adjoint(**kw),
                  j.check_inverse_identities(**kw)]
        return all(c.passed for c in checks)
    if target == "semisimple":
        ok, _ = j.is_semisimple()
        nondegenerate = j.is_nondegenerate()
        return ok and nondegenerate
    if target == "detformula":
        return lib.catalog.verify_det_formula(j, **kw).passed
    if target == "decompose":
        return sum(p.dim for p, _ in j.decompose(seed=seed)) == j.dim
    if target == "model":
        _, report = lib.hypersurface.verify_model(
            j, L1, n_float_samples=SAMPLES, seed=seed)
        return report.passed
    if target == "pair":
        pair = lib.structure.restricted_pair(j)
        return lib.structure.check_pair(pair, **kw).passed
    if target == "reconstruct":
        model = lib.hypersurface.build_model(j, L1)
        rebuilt = lib.hypersurface.reconstruct_algebra(model)
        return rebuilt.c == lib.hypersurface.adapted_constants(model)
    raise ValueError(f"unknown target {target!r}")


def execute(lib, wl, op, built):
    """Run one operation; returns "pass", "fail" or "raise <exception>"."""
    inp = wl.inputs[op.input]
    try:
        if op.target == "build":
            j = lib.catalog.build(inp.family, **inp.params)
            built[op.input] = j
            return "pass" if j.name == inp.label else "fail"
        if op.target == "loads":
            j = lib.serialization.loads(inp.text)
            built[op.input] = j
            return "pass" if j.dim == inp.dim else "fail"
        if op.target == "calabi":
            models = [lib.hypersurface.build_model(built[f], L1)
                      for f in inp.factors]
            comp = lib.calabi.compose(models, L1)
            report = lib.calabi.check_composition(
                comp, n_samples=SAMPLES, seed=op.seed)
            return "pass" if report.passed else "fail"
        if op.input not in built:
            return "raise (its build or load did not return an algebra)"
        return "pass" if certify(lib, op.target, built[op.input], op.seed) \
            else "fail"
    except Exception as exc:  # every outcome is judged by the oracle
        return f"raise {type(exc).__name__}: {exc}"


def judge(op, outcome):
    """Classify an outcome as ok, known (a listed defect) or wrong."""
    if op.expect == "pass":
        ok = outcome == "pass"
    else:
        exc = outcome.removeprefix("raise ").partition(":")[0]
        ok = outcome == "fail" or (outcome.startswith("raise ")
                                   and exc in workloads.REJECTIONS)
    if ok:
        return "ok"
    guard = op.expect == "reject" and outcome.startswith("raise ") and any(
        text in outcome for text in workloads.GUARD_ERRORS)
    return "known" if op.known or guard else "wrong"


def local_factors(refs):
    """Host factor of each operation: REF_S over the mean time of the
    reference kernels run next to it."""
    factors = []
    for i in range(len(refs)):
        window = refs[max(0, i - REF_HALF):i + REF_HALF + 1]
        factors.append(REF_S * len(window) / sum(window))
    return factors


def run_pass(lib, wl, tracer=None, pass_no=0):
    """One pass over every operation.

    Returns (wall s, latencies s, outcomes, host factors): the wall is
    the sum of the latencies, and an operation's latency times its
    factor is corrected for host speed.
    """
    built = {}
    latencies, outcomes, refs = [], [], []
    for idx, op in enumerate(wl.ops):
        refs.append(reference_time())
        ts = clock()
        if tracer is None:
            outcome = execute(lib, wl, op, built)
        else:
            outcome = tracer.call(pass_no * 100_000 + idx, execute, lib, wl,
                                  op, built)
        latencies.append(clock() - ts)
        outcomes.append(outcome)
    _fill_census(wl, built)
    return sum(latencies), latencies, outcomes, local_factors(refs)


def _fill_census(wl, built):
    """Dims and heights of inputs that only exist once built."""
    for i, inp in enumerate(wl.inputs):
        if inp.kind == "calabi":
            parts = [wl.inputs[f] for f in inp.factors]
            inp.dim = sum(p.dim for p in parts)
            inp.height = max(p.height for p in parts)
        elif not inp.dim and i in built:
            inp.dim = built[i].dim
            inp.height = workloads.height(built[i])


# -- set-up ------------------------------------------------------------------

def set_up(lib, workload, seed):
    """Generate the inputs SETUP_REPEATS times; (workload, median s, ok)."""
    times, gens = [], []
    for _ in range(SETUP_REPEATS):
        wl, secs = corrected(workloads.generate, lib, workload, seed)
        gens.append(wl)
        times.append(secs)
    first = gens[0]
    same = all(g.texts() == first.texts() and g.ops == first.ops
               for g in gens[1:])
    return first, statistics.median(times), same


# -- metrics -----------------------------------------------------------------

def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least 10 operations beyond it."""
    return max(0, math.floor(100 * (ops_per_pass - 10) / ops_per_pass))


def quantile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def corrected_walls(results):
    """Host-corrected wall of each pass."""
    return [sum(x * f for x, f in zip(r[1], r[3])) for r in results]


def op_latencies(results):
    """Each operation's median host-corrected latency over the passes."""
    return [statistics.median(x * f for x, f in zip(lats, factors))
            for lats, factors in zip(zip(*(r[1] for r in results)),
                                     zip(*(r[3] for r in results)))]


def census(wl):
    """Share of operations per dimension band and per input height."""
    def band(value, bands):
        for name, top in bands:
            if top is None or value <= top:
                return name

    lines = []
    for what, bands, key in (("dim", DIM_BANDS, "dim"),
                             ("height bits", HEIGHT_BANDS, "height")):
        counts = {name: 0 for name, _ in bands}
        for op in wl.ops:
            counts[band(getattr(wl.inputs[op.input], key), bands)] += 1
        shares = ", ".join(f"{name} {100 * c / len(wl.ops):.1f}%"
                           for name, c in counts.items())
        lines.append(f"census ops by {what}: {shares}")
    return lines


def measure(lib, wl, seconds, trace):
    """Run passes for ``seconds``; alternate traced passes when tracing."""
    tracer = spans.Tracer() if trace else None
    plain, traced = [], []
    start = clock()
    last = 0.0
    while not plain or (trace and not traced) \
            or clock() - start + last <= seconds:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.install(lib)
            try:
                result = run_pass(lib, wl, tracer, len(plain) + len(traced))
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            result = run_pass(lib, wl)
            plain.append(result)
        last = result[0]
    return plain, traced, tracer


def verdicts(wl, results):
    """Judge every outcome; verdicts must repeat exactly across passes."""
    first = results[0][2]
    counts = {"ok": 0, "known": 0, "wrong": 0}
    notes = []
    for p, (_, _, outcomes, _) in enumerate(results):
        for idx, (op, outcome) in enumerate(zip(wl.ops, outcomes)):
            verdict = judge(op, outcome)
            if outcome != first[idx]:
                verdict = "wrong"
                outcome += f" (pass 0 gave: {first[idx]})"
            counts[verdict] += 1
            if verdict != "ok" and (p == 0 or outcome != first[idx]):
                inp = wl.inputs[op.input]
                tag = "KNOWN DEFECT" if verdict == "known" else "UNEXPECTED"
                notes.append(
                    f"{tag}: workload={wl.name} seed={wl.seed} "
                    f"input={op.input} ({inp.label}) target={op.target} "
                    f"sample_seed={op.seed} expected={op.expect} "
                    f"-> {outcome}")
    return counts, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One thread: numpy must not spread the closed loop over BLAS threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    lib, import_s = corrected(load_library)
    _, warmup_s = corrected(warm_up, lib)
    wl, gen_s, deterministic = set_up(lib, args.workload, args.seed)
    setup_s = import_s + warmup_s + gen_s
    plain, traced, tracer = measure(lib, wl, args.seconds, args.trace)

    counts, notes = verdicts(wl, plain + traced)
    if not deterministic:
        counts["wrong"] += 1
        notes.append("UNEXPECTED: two input generations from the same seed "
                     "differ")
    attempted = len(wl.ops) * (len(plain) + len(traced))
    failed = counts["known"] + counts["wrong"]
    pass_s = statistics.median(corrected_walls(plain))
    pct = tail_percentile(len(wl.ops))

    print(f"workload {wl.name} seed {wl.seed}: {len(wl.inputs)} inputs, "
          f"{len(wl.ops)} ops per pass, {len(plain)} untraced and "
          f"{len(traced)} traced passes")
    print("pass walls (s): " + " ".join(f"{r[0]:.3f}" for r in plain)
          + (" traced: " + " ".join(f"{r[0]:.3f}" for r in traced)
             if traced else ""))
    print("corrected walls (s): "
          + " ".join(f"{x:.3f}" for x in corrected_walls(plain))
          + (" traced: " + " ".join(f"{x:.3f}"
                                    for x in corrected_walls(traced))
             if traced else ""))
    for note in notes:
        print(note)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} "
          f"ops: {counts['known']} known defects, {counts['wrong']} "
          f"unexpected)")
    for line in census(wl):
        print(line)

    if args.trace:
        metrics = {}
        summary = tracer.summary(len(traced))
        traced_s = statistics.median(corrected_walls(traced))
        for name in spans.layer_metric_names():
            unit = "count" if name.endswith(("calls", "errors")) else "s"
            value = summary.get(name, 0.0)
            if name == "trace.overhead_s":
                value = traced_s - pass_s
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit}")
        layer_s = sum(summary.get(f"{layer}.self_s", 0.0)
                      for layer in spans.LAYERS)
        op_s = summary.get(f"{spans.OP}.self_s", 0.0)
        mean_s = statistics.fmean(r[0] for r in traced)
        print(f"accounting: mean traced pass {mean_s:.4f} s = layer self "
              f"time {layer_s:.4f} s + operation glue {op_s:.4f} s + "
              f"loop {mean_s - layer_s - op_s:.4f} s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans_{wl.name}_seed{wl.seed}.csv.gz"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
    else:
        latencies = op_latencies(plain)
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies),
                          "unit": "ms"},
            "op_tail_ms": {"value": 1000 * quantile(latencies, pct),
                           "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"op_tail_ms is the p{pct} latency ({len(wl.ops)} ops per "
              f"pass); setup_s = import {import_s:.4f} s + warm-up "
              f"{warmup_s:.4f} s + median of {SETUP_REPEATS} input "
              f"generations {gen_s:.4f} s")

    correct = counts["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": counts["wrong"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
