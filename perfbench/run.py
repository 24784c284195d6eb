"""k3motive benchmark: one seeded workload per run, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  A run builds its inputs from the seed a few times (the median
is ``setup_s``), then gives each pass a deep copy of them, clears the
library's caches, times every op of the pass, checks every answer outside
the timed region, and repeats passes until S seconds have gone by; each
op's latency is its best over the passes.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` each pass is run twice, first
untraced and then under the span recorder of ``tracer.py``, and the metrics
are the per-layer ones.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics are counts or times.  Counts (calls, cells, bits, bytes,
# ratios of counts) come from pass 0, whose inputs depend on the seed alone,
# so they repeat exactly; times (``_s`` metrics and the tracer's own ratios)
# are medians over the traced passes.
INTEGER_UNITS = {"count", "bits", "bytes"}


def is_timed(name: str) -> bool:
    return name.endswith("_s") or name.startswith("trace.")


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of the ``kind`` metrics listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# set-ups per run: at least SETUPS, more while they add up to less than
# SETUP_SECONDS (at most MAX_SETUPS); setup_s is their median
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 100

# layers whose work happens while inputs are made, not in the timed ops
SETUP_LAYERS = {"deltaset.refine", "builders.build_type3"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def clear_caches() -> None:
    """Empty every ``functools`` cache the library holds at module level."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "k3motive"
                                or name.startswith("k3motive.")):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# End-to-end timings are scaled to a reference machine speed.  The speed of
# a shared machine was seen to drift by 1.5 times over tens of seconds, for
# all work though not all equally, so a run also times ``speed_probe`` --
# fixed list and dict work that never touches the library -- between ops,
# at most every PROBE_EVERY seconds of op time, and before each set-up.  Op
# times are multiplied by PROBE_REF_S over the best probe of the passes,
# setup_s by PROBE_REF_S over the median set-up probe.  PROBE_REF_S is the
# probe's best time on the reference box (see README.md).
PROBE_EVERY = 0.1
PROBE_REF_S = 0.006


def speed_probe() -> float:
    """Seconds a fixed stretch of list and dict work takes right now."""
    t0 = time.perf_counter()
    rows = [list(range(i, i + 400)) for i in range(200)]
    seen = {}
    for row in rows[1:]:
        row[:] = [a - b for a, b in zip(row, rows[0])]
        for x in row[::7]:
            seen[x * 31 + len(seen)] = row
    sum(map(sum, rows))
    return time.perf_counter() - t0


class Harness:
    def __init__(self, work, seed, tmp, rec=None):
        self.work = work
        self.seed = seed
        self.tmp = tmp
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.speeds: list[float] = []   # speed_probe times, untraced passes

    def run_ops(self, ops, traced: bool):
        """Time each op; returns (latencies, op span ids)."""
        latencies, roots = [], set()
        rec = self.rec
        since = PROBE_EVERY
        for op in ops:
            if not traced and since >= PROBE_EVERY:
                self.speeds.append(speed_probe())
                since = 0.0
            if traced:
                rec.active = True
                i = rec.open("op")
                roots.add(i)
            t0 = time.perf_counter()
            try:
                if traced and op.traced_fn is not None:
                    result = op.traced_fn(rec, op.arg)
                else:
                    result = op.fn(op.arg)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t0
            if traced:
                rec.close(i)
                rec.active = False
            latencies.append(dt)
            since += dt
            self.attempted += 1
            bad = [error] if error else self.work.check(op, result)
            if bad:
                self.failed += 1
                self.problems.append("%s: %s" % (op.label, "; ".join(bad)))
        return latencies, roots

    def set_up(self, index, traced):
        """Build the inputs once; returns (pass, seconds, traced layer
        self times)."""
        rec = self.rec
        if traced:
            rec.active = True
            root = rec.open("setup")
        t0 = time.perf_counter()
        p = self.work.make_pass(self.seed, index, self.tmp)
        dt = time.perf_counter() - t0
        sample = {}
        if traced:
            rec.close(root)
            rec.active = False
            selfs = rec.self_times({root})
            for layer in SETUP_LAYERS:
                sample[layer + ".self_s"] = selfs.get(layer, 0.0)
            rec.reset()
        return p, dt, sample

    def probe(self):
        """Untimed attempt at the workload's probe input, if it has one.

        Returns 1 when the probe raises RecursionError (the size cliff),
        else 0; any other error or a wrong answer is a failed op."""
        make = getattr(self.work, "probe", None)
        if make is None:
            return 0
        op = make()
        try:
            result = op.fn(op.arg)
        except RecursionError:
            print("probe %s: RecursionError (recursion cliff)" % op.label)
            return 1
        except Exception as exc:
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        else:
            error = None
        self.attempted += 1
        bad = [error] if error else self.work.check(op, result)
        if bad:
            self.failed += 1
            self.problems.append("%s: %s" % (op.label, "; ".join(bad)))
        print("probe %s: ok" % op.label)
        return 0


def layer_sample(rec, roots, untraced_s, traced_s, notes):
    selfs = rec.self_times(roots)
    calls = rec.call_counts(roots)
    c = rec.counters
    sample = {
        "intlinalg.sparse.distinct_ratio":
            len(rec.sparse_inputs) / rec.sparse_calls if rec.sparse_calls
            else 1.0,
        "cli.spawn_s": selfs.get("cli.spawn", 0.0),
        "cli.import_s": selfs.get("cli.import", 0.0),
        "input.repeat_share": notes["repeat_share"],
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.uncovered_share": 1.0 - rec.covered_share(roots),
        "serialize.bytes_in": notes.get("bytes_in", 0),
        "serialize.bytes_out": notes.get("bytes_out", 0),
    }
    for name in metric_units("per_layer"):
        if name in sample:
            continue
        layer, _, what = name.rpartition(".")
        if what == "calls":
            sample[name] = calls.get(layer, 0)
        elif what == "self_s":
            sample[name] = selfs.get(layer, 0.0)
        elif name in c:
            sample[name] = c[name]
        else:
            sample[name] = 0
    return sample


def fresh(ops):
    """The ops with a deep copy of each input: equal values, new objects."""
    return [dataclasses.replace(op, arg=copy.deepcopy(op.arg)) for op in ops]


def measure(args, work, tmp):
    import tracer

    rec = tracer.Recorder() if args.trace else None
    inst = tracer.install(rec) if args.trace else None
    h = Harness(work, args.seed, tmp, rec)
    pass_latencies, layer_samples = [], []
    start = time.perf_counter()
    try:
        setups, setup_speeds = [], []
        while len(setups) < SETUPS or (
                len(setups) < MAX_SETUPS
                and sum(t for t, _ in setups) < SETUP_SECONDS):
            p = None  # the last set-up's inputs go before the next is made
            clear_caches()
            setup_speeds.append(speed_probe())
            p, seconds, sample = h.set_up(len(setups), args.trace)
            setups.append((seconds, sample))
        index = 0
        while True:
            ops = fresh(p.ops)
            clear_caches()
            gc.collect()  # every pass starts from the same heap state
            lat, _ = h.run_ops(ops, traced=False)
            pass_latencies.append(lat)
            if args.trace:
                ops = fresh(p.ops)
                clear_caches()
                gc.collect()
                tlat, roots = h.run_ops(ops, traced=True)
                layer_samples.append(layer_sample(rec, roots, sum(lat),
                                                  sum(tlat), pass_notes(p)))
            index += 1
            done = time.perf_counter() - start >= args.seconds
            if args.trace:
                if done:  # the last traced pass is the one written out
                    rec.dump(tmp.parent / ("spans-%s-seed%d.pickle"
                                           % (work.name, args.seed)),
                             workload=work.name, seed=args.seed)
                rec.reset()
            if done:
                break
        # peak memory of the timed work, before the probe can add to it
        rss = resource.getrusage(resource.RUSAGE_CHILDREN
                                 if work.name == "cli-batch"
                                 else resource.RUSAGE_SELF).ru_maxrss
        cliff = h.probe()
    finally:
        if inst is not None:
            inst.uninstall()

    if h.problems:
        for line in h.problems[:20]:
            print("FAILED %s" % line, file=sys.stderr)
    if args.trace:
        # set-up layers are timed over the set-ups, other layers over the
        # traced passes; counts come from pass 0
        setup_layers = {name: statistics.median(s[name] for _, s in setups)
                        for name in setups[0][1]}
        first = dict(layer_samples[0], **{"kummer.cliff_probe_failed": cliff})
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            if name in setup_layers:
                value = setup_layers[name]
            elif is_timed(name):
                value = statistics.median(s.get(name, 0.0)
                                          for s in layer_samples)
            else:
                value = first.get(name, 0)
                if unit in INTEGER_UNITS:
                    value = int(value)
            metrics[name] = {"value": value, "unit": unit}
    else:
        # each op's latency is its best over the passes (same input each
        # pass): interference on a shared machine only ever slows an op
        best = [min(ts) for ts in zip(*pass_latencies)]
        sizes = sorted((op.size for op in p.ops), reverse=True)
        cut = sizes[max(1, len(sizes) // 50) - 1]
        values = {
            "wall_s": sum(best),
            "op_p50_s": statistics.median(best),
            "op_p98_s": quantile(best, 0.98),
            "largest_op_s": statistics.median(
                t for t, op in zip(best, p.ops) if op.size >= cut),
            "setup_s": statistics.median(t for t, _ in setups),
            "peak_rss_mb": rss / 1024.0,
        }
        # best op times scale by the best probe of the passes; the median
        # set-up time by the median probe taken next to the set-ups
        scale = PROBE_REF_S / min(h.speeds)
        setup_scale = PROBE_REF_S / statistics.median(setup_speeds)
        print("unscaled %s; best of %d speed probes %.6f s, scale %.4f; "
              "median of %d set-up probes %.6f s, scale %.4f"
              % (json.dumps(values, sort_keys=True), len(h.speeds),
                 min(h.speeds), scale, len(setup_speeds),
                 statistics.median(setup_speeds), setup_scale))
        for name in values:
            if is_timed(name):
                values[name] *= setup_scale if name == "setup_s" else scale
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    print("%s seed %d: %d passes, %d ops, %d failed"
          % (work.name, args.seed, index, h.attempted, h.failed))
    return {"correct": h.failed == 0, "attempted": h.attempted,
            "failed": h.failed, "metrics": metrics}


def pass_notes(p):
    """Facts about a pass's inputs: bytes the CLI read and wrote (zero for
    library ops) and, unless the workload measured it itself, the share of
    ops whose input repeats an earlier op's."""
    keys = [op.key for op in p.ops]
    notes = {"repeat_share": 1.0 - len(set(keys)) / len(keys),
             "bytes_in": sum(op.expect.get("bytes_in", 0) for op in p.ops),
             "bytes_out": sum(op.expect["report"].stat().st_size
                              for op in p.ops if "report" in op.expect
                              and op.expect["report"].exists())}
    notes.update(p.notes)
    return notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "k3motive" / "__init__.py").is_file():
        print("perfbench: no k3motive sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from k3motive.integrals import GeometricRealizabilityWarning

    warnings.simplefilter("ignore", GeometricRealizabilityWarning)
    if args.workload not in workloads.NAMES:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.NAMES)), file=sys.stderr)
        return 2
    work = workloads.make(args.workload, ROOT)
    tmp = ROOT / ".perfbench" / ("%s-%d-%d" % (work.name, args.seed,
                                               os.getpid()))
    tmp.mkdir(parents=True)
    try:
        result = measure(args, work, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
