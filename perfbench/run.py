"""Benchmark of the gfharmonic library and CLI, run from the repository root.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client: each operation starts when the previous
one has finished; at most two worker processes):

  spectral     in-process transforms, bent verdicts, duals, the product
               construction, the classical bridge and md_ft, warm caches
  census       in-process exhaustive bent search at jobs 1 and 2
  cli          one cold `gfharmonic` process at a time, every subcommand and
               the documented error paths

One round runs every operation of the workload, in a seeded order.
Rounds repeat until `--seconds` of timed operation time have passed and at
least MIN_ROUNDS rounds ran, so every run measures whole rounds of identical
composition.  Each output is checked outside the timed region (see
workloads.py); a wrong output or an exception counts as a failed operation
and the run goes on.

op_p50_ms and op_p90_ms are percentiles of the latencies of every
operation completed correctly in the run (over a hundred samples, at least
ten beyond p90); ops_per_s is the number of those operations over the timed
wall time, which is the time spent inside operations, failed ones included.
Every round has the same composition, and the copies of each operation per
round are chosen so that each percentile falls inside a dense cluster of
latencies, not in a gap between two clusters (see workloads.py).  setup_s is
the median time of up to SETUPS complete set-ups spread evenly over the run.
These four are reported at the reference host speed of hostspeed.py: every
duration is scaled by the host speed measured around it, with the kernel
HOST_KERNEL names.  The same figures unscaled are printed and recorded as
raw.<metric>.  peak_rss_mb is the benchmark process's peak resident set plus the largest
peak of any child process it waited for; a forked pool worker's peak counts
the pages it shares with its parent, so on census this overstates the
memory in use.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds, derives the per-layer metrics from the spans of the traced
rounds and reports the gap between the two kinds of round as
`trace.overhead_ratio`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Each run also writes
its full record to .bench_out/runs/ and, when traced, its spans to
.bench_out/spans/; perfbench/compare.py reads the records.

The same seed generates the same inputs; the printed input digest shows it.
Seed 1009 is held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral", "census", "cli")
HOST_KERNEL = {"spectral": "in-process", "census": "in-process", "cli": "cold-process"}
MIN_ROUNDS = 6  # cli completes 19 operations a round: 114 samples, 11 beyond p90
SETUPS = 5
MODULES_WITH_SPANS = ("characters", "fourier", "bent", "classical", "vectorial", "cli")


def _load_program():
    """Import the library from this checkout's src/; exit 2 when it is absent."""
    src = ROOT / "src"
    needed = (src / "gfharmonic" / "__init__.py", ROOT / "tests" / "_oracles.py")
    if not all(path.is_file() for path in needed):
        sys.stderr.write(f"perfbench: no gfharmonic sources under {ROOT}; run from a checkout\n")
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import gfharmonic

    if Path(gfharmonic.__file__).resolve().parent != src / "gfharmonic":
        sys.stderr.write(f"perfbench: imported gfharmonic from {gfharmonic.__file__}, not {src}\n")
        raise SystemExit(2)


def _quantiles(xs: list[float]) -> tuple[float, float]:
    """(p50, p90) by statistics.quantiles' default exclusive method."""
    cuts = statistics.quantiles(xs, n=10)
    return cuts[4], cuts[8]


def _digest(ops, canonical) -> str:
    data = repr([(op.label, canonical(op.inputs)) for op in ops]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak of a child process that was waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    import hostspeed
    import tracing
    import workloads

    tracer = tracing.Tracer()
    meter = hostspeed.Meter(HOST_KERNEL[name])
    setups: list[tuple[float, float]] = []  # (start, seconds) of each set-up
    timings: list[tuple[float, float, bool]] = []  # (start, seconds, correct) of each op
    digest = None
    by_op: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    counts = {False: {}, True: {}}  # work counters of untraced and traced rounds
    verified: dict[str, object] = {}
    rounds_at = {False: [], True: []}  # untraced and traced rounds, as slices of timings
    attempted = 0
    timed = 0.0
    rounds = 0
    while timed < seconds or rounds < MIN_ROUNDS:
        # Up to SETUPS fresh set-ups, spread evenly over the run so that the
        # set-up samples meet the same host conditions as the rounds.
        if timed >= len(setups) * seconds / SETUPS:
            wl = None
            gc.collect()  # free the previous set-up first, so peak RSS repeats
            meter.tick(force=True)
            tracer.enabled = trace
            root = tracer.open("setup")
            t0 = time.perf_counter()
            wl = workloads.SETUPS[name](random.Random(f"perfbench/{name}/{seed}"), tracer, tmp)
            setups.append((t0, time.perf_counter() - t0))
            tracer.close(root)
            digest = digest or _digest(wl.ops, workloads.canonical)
        rounds += 1

        traced = trace and len(rounds_at[False]) > len(rounds_at[True])
        tracer.enabled = traced
        root = tracer.open("round")
        spent = 0.0
        first = len(timings)
        for op in wl.ops:
            meter.tick()
            attempted += 1
            idx = tracer.open(op.span, attempted, op.label)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            dt = time.perf_counter() - t0
            tracer.close(idx)
            spent += dt
            if isinstance(result, Exception):
                ok = False
            elif op.label in verified:
                ok = result == verified[op.label]
            else:
                ok = bool(op.check(result))
                if ok:
                    verified[op.label] = result
            timings.append((t0, dt, ok))
            if ok:
                by_op.setdefault(op.label, []).append(dt * 1e3)
                for key, value in op.counts(result).items():
                    counts[traced][key] = counts[traced].get(key, 0) + value
            else:
                failures[op.label] = failures.get(op.label, 0) + 1
        tracer.close(root)
        rounds_at[traced].append(slice(first, len(timings)))
        timed += spent
    meter.tick(force=True)
    tracer.enabled = trace

    failed = sum(failures.values())
    unexpected = sorted(set(failures) - set(wl.known_defects))
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "inputs_digest": digest,
        "rounds": rounds,
        "ops_per_round": len(wl.ops),
        # Known defects are counted as failed but do not make the run incorrect.
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unexpected_failures": unexpected,
        "known_defects": dict(wl.known_defects),
        "latency_ms": by_op,
    }
    if trace:
        # round times at the reference host speed, so that host-speed changes
        # between traced and untraced rounds do not show as tracing overhead
        round_s = {
            traced: [sum(dt * meter.scale(t0, t0 + dt) for t0, dt, _ in timings[at]) for at in ats]
            for traced, ats in rounds_at.items()
        }
        record["metrics"] = _layer_metrics(tracer, wl, round_s, counts[True], len(setups))
        if name == "cli":
            probe = tracer.open("probe")
            probed = workloads.cli_probes(tracer, tmp)
            tracer.close(probe)
            record["metrics"].update({k: _m(v, "ms", 5) for k, v in probed.items()})
        record["layers_all"] = _all_layers(tracer, record["metrics"])
    else:
        scaled = _times(timings, setups, meter.scale)
        raw = _times(timings, setups, lambda start, end: 1.0)
        record["metrics"] = {**scaled, "peak_rss_mb": _m(_peak_rss_mb(), "MB", 1)}
        record["reported"] = {
            "fail_ratio": _m(failed / attempted, "ratio", attempted),
            "host_kernel_ms": _m(meter.median_ms(), "ms", len(meter.ms)),
            **{f"raw.{k}": v for k, v in raw.items()},
        }
        if name == "census":
            # candidates per correct search, times correct searches per second
            done = attempted - failed
            rate = counts[False]["bent.candidates"] / done * scaled["ops_per_s"]["value"]
            record["reported"]["candidates_per_s"] = _m(rate, "1/s", done)
    record["tracer"] = tracer
    return record


def _m(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _times(timings, setups, scale) -> dict:
    """The timed end-to-end metrics, each duration multiplied by
    scale(start, end) of its interval."""
    ops = [(dt * scale(t0, t0 + dt), ok) for t0, dt, ok in timings]
    done = sorted(dt * 1e3 for dt, ok in ops if ok)
    p50, p90 = _quantiles(done)
    setup_s = [dt * scale(t0, t0 + dt) for t0, dt in setups]
    return {
        "ops_per_s": _m(len(done) / sum(dt for dt, _ in ops), "1/s", len(done)),
        "op_p50_ms": _m(p50, "ms", len(done)),
        "op_p90_ms": _m(p90, "ms", len(done)),
        "setup_s": _m(statistics.median(setup_s), "s", len(setup_s)),
    }


def _layer_metrics(tracer, wl, round_s, counts, setups) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, for every workload."""
    import tracing

    busy = tracing.busy_ms(tracer)
    timed_ms = sum(busy.values())
    cands = counts.get("bent.candidates", 0)
    found = counts.get("bent.bent_found", 0)
    terms = counts.get("fourier.terms", 0)
    n = len(round_s[True]) * len(wl.ops)
    traced_rounds = len(round_s[True])
    by_label = tracer.labelled("round")

    def med(label):
        return statistics.median(by_label[label]) if label in by_label else 0.0

    big = [("Z_3^2", 3), ("Z_2xZ_4", 4)]
    serial = sum(med(f"search {g} d={d} jobs=1") for g, d in big)
    pooled = sum(med(f"search {g} d={d} jobs=2") for g, d in big)
    out = {
        f"{name}_ms": _m(tracing.per_setup_ms(tracer, name), "ms", setups)
        for name in ("field.make_context", "group.make_group")
    }
    for module in MODULES_WITH_SPANS:
        out[f"{module}.busy_share"] = _m(busy[module] / timed_ms, "ratio", n)
    out.update(
        {
            "fourier.terms": _m(terms, "count", n),
            "fourier.terms_per_s": _m(_rate(terms, busy["fourier"]), "1/s", n),
            "bent.candidates": _m(cands, "count", n),
            "bent.bent_found": _m(found, "count", n),
            "bent.hit_ratio": _m(found / cands if cands else 0.0, "ratio", n),
            "bent.candidates_per_s": _m(_rate(cands, busy["bent"]), "1/s", n),
            "bent.parallel_efficiency": _m(
                serial / (2 * pooled) if pooled else 0.0, "ratio", traced_rounds
            ),
            "serialize.bytes_in": _m(counts.get("serialize.bytes_in", 0) / n, "bytes", n),
            "serialize.bytes_out": _m(counts.get("serialize.bytes_out", 0) / n, "bytes", n),
            "trace.overhead_ratio": _m(
                statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1,
                "ratio",
                traced_rounds,
            ),
        }
    )
    pool, serial_z3 = "search Z_3 d=3 jobs=2", "search Z_3 d=3 jobs=1"
    if pool in by_label:
        out["bent.pool_startup_ms"] = _m(med(pool) - med(serial_z3), "ms", len(by_label[pool]))
    return out


def _rate(count: float, busy_ms: float) -> float:
    return count / busy_ms * 1e3 if count else 0.0


def _all_layers(tracer, metrics) -> dict:
    """Every per-layer number the run measured, for the printed summary."""
    import tracing

    calls = tracing.per_call_ms(tracer)
    # set-up totals, reported under the same names in the declared metrics
    calls.pop("field.make_context_ms", None)
    calls.pop("group.make_group_ms", None)
    out = {k: v["value"] for k, v in metrics.items()}
    out.update(calls)
    return dict(sorted(out.items()))


def _summary(rec: dict, bench: dict) -> list[str]:
    head = (
        f"{rec['workload']}: seed {rec['seed']}, inputs sha256:{rec['inputs_digest']}, "
        f"{rec['rounds']} rounds x {rec['ops_per_round']} ops, trace {rec['trace']}, "
        f"{rec['failed']}/{rec['attempted']} failed"
    )
    lines = [head]
    if rec["trace"]:
        declared = {m["name"] for m in bench["per_layer"]}
        for key, value in rec["layers_all"].items():
            mark = "" if key in declared else "   (summary only)"
            lines.append(f"  {key:38s} {value:14.6g}{mark}")
    else:
        for key, m in {**rec["metrics"], **rec["reported"]}.items():
            lines.append(f"  {key:20s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for label, n in sorted(rec["failures"].items()):
        why = rec["known_defects"].get(label, "UNEXPECTED")
        lines.append(f"  failed x{n}: {label} -- {why}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    if args.workload == "all":
        # One process per workload, so that peak RSS is the workload's own.
        results = {}
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            *lines, last = proc.stdout.splitlines() or [""]
            print("\n".join(lines), flush=True)
            if proc.returncode:
                return proc.returncode
            results[name] = json.loads(last)
        print(json.dumps(results))
        return 0

    out_dir = ROOT / ".bench_out"
    tmp = out_dir / "tmp" / f"{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs").mkdir(exist_ok=True)
    (out_dir / "spans").mkdir(exist_ok=True)
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tracer = rec.pop("tracer")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(out_dir / "spans" / f"{stem}.json")
    (out_dir / "runs" / f"{stem}.json").write_text(json.dumps(rec, indent=1))
    print("\n".join(_summary(rec, bench)), flush=True)
    missing = [k for k in declared if k not in rec["metrics"]]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    metrics = {k: {key: rec["metrics"][k][key] for key in ("value", "unit")} for k in declared}
    result = {key: rec[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
