#!/usr/bin/env python3
"""Benchmark of record for the Jahob verifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 40 --trace 0

It builds perfbench/jbench.exe and perfbench/calib.exe with dune, runs
the workload in fresh jbench processes, checks the verdicts, and prints
one JSON object as the last line of standard output: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  End-to-end times are
given at the reference host speed: the run is pinned to one CPU, each
timed interval is bracketed by two runs of the calib probe and scaled by
REFERENCE_PROBE_S over their mean time.  README.md next to this file
explains each workload, the scaling, and which layer metric should move
which end-to-end one.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "jbench.exe")
PROBE = os.path.join("_build", "default", "perfbench", "calib.exe")
WORK = ".perfbench-work"
PROCESS_TIMEOUT_S = 150

CORPUS = [
    "examples/list_annotated/Client.java",
    "examples/list_annotated/List.java",
    "examples/arrays/ArrayOps.java",
    "examples/assoc/Assoc.java",
    "examples/assoc/AssocClient.java",
    "examples/game/Game.java",
    "examples/global/Buffer.java",
    "examples/stack/Stack.java",
]
LIST_FIGS = ["examples/list/Client.java", "examples/list/List.java"]
# the five non-List groups: edits to List/Client would re-run the loop
# invariant inference that corpus_cold already measures
EDIT_BASE = CORPUS[2:]

WORKLOADS = ["corpus_cold", "list_figs", "edit_stream"]
PROVERS = ["smt", "fol", "bapa", "mona", "cooper"]
ROLES = ["vc", "loopinv"]
# extra set-up-only processes per run, so setup_s is a median of many
COLD_SETUPS = 16
EDIT_SETUPS = 14
# an edit cycle (every distinct mutant once) and the probe after it take
# about this long on a 2-core 2.0 GHz machine; a run does
# seconds / NOMINAL_CYCLE_S cycles, so its work is fixed by --seconds and
# does not depend on the host's speed
NOMINAL_CYCLE_S = 2.0
# the probe's time at the reference host speed (that machine on a quiet
# day); end-to-end times are scaled to it
REFERENCE_PROBE_S = 0.6

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "valid_share": "ratio",
    "methods_verified_share": "ratio",
    "peak_rss_mb": "MB",
    "edit_ms_p50": "ms",
    "edit_ms_p90": "ms",
    "edit_agree_share": "ratio",
}


def per_layer_units():
    units = {}
    for p in PROVERS:
        for r in ROLES:
            units[f"{p}.{r}.attempts"] = "count"
            units[f"{p}.{r}.settled"] = "count"
            units[f"{p}.{r}.time_s"] = "s"
            units[f"{p}.{r}.giveup_s"] = "s"
    units.update({
        "shape.checks": "count",
        "shape.settled": "count",
        "shape.time_s": "s",
        "javaparser.parse_s": "s",
        "gcl.desugar_s": "s",
        "gcl.tasks": "count",
        "vcgen.wp_s": "s",
        "vcgen.obligations": "count",
        "dispatch.simplify_s": "s",
        "dispatch.saturate_s": "s",
        "dispatch.self_s": "s",
        "dispatch.cache_hits": "count",
        "dispatch.cache_misses": "count",
        "dispatch.sched_skipped": "count",
        "jahob.rounds": "count",
        "jahob.inc_s": "s",
        "jahob.reverified": "count",
        "jahob.unchanged": "count",
        "daemon.persist_s": "s",
        "daemon.store_bytes": "bytes",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------
# Pure helpers (unit-tested in test_run.py)
# ---------------------------------------------------------------------

def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between the
    two nearest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def windowed_percentile(values, window, p):
    """Median over consecutive full windows of `window` values of each
    window's p-th percentile.  A burst of host slowness then moves only
    the windows it hits, not the pooled tail."""
    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    if not windows:
        raise ValueError("fewer values than one window")
    return statistics.median(percentile(w, p) for w in windows)


def role_of(sequent_name):
    """Obligations that check an inferred or annotated loop invariant
    carry "loop invariant" in their name; every other prover call
    (method VCs and Houdini candidate checks) has role "vc"."""
    return "loopinv" if "loop invariant" in sequent_name else "vc"


def is_houdini(sequent_name):
    """Candidate checks of the shape analysis are split under the name
    "houdini"."""
    return sequent_name == "houdini" or sequent_name.startswith("houdini:")


def position_medians(runs):
    """Median of each position across equally long sample lists.  At one
    worker domain a repetition dispatches the same obligations in the
    same order, so position k is the same obligation in every run."""
    if not runs or len({len(r) for r in runs}) != 1:
        raise ValueError("runs differ in length")
    return [statistics.median(xs) for xs in zip(*runs)]


def speed_factors(probes):
    """Scale factors of the intervals between consecutive probe times:
    REFERENCE_PROBE_S over the mean of the two probes around each.  A
    time measured in interval i, multiplied by factor i, is the time it
    would have taken at the reference speed."""
    if len(probes) < 2 or min(probes) <= 0:
        raise ValueError("need two or more positive probe times")
    return [2 * REFERENCE_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


def self_time(inclusive_s, children_s):
    """Exclusive time of a span total: its inclusive time minus the time
    of the spans nested in it, never below zero."""
    return max(0.0, inclusive_s - sum(children_s))


def prover_layers(calls):
    """Per prover and role: attempts, settled, time_s and giveup_s, plus
    the shape.* figures for Houdini candidate checks."""
    out = {}
    for p in PROVERS:
        for r in ROLES:
            for k in ("attempts", "settled", "time_s", "giveup_s"):
                out[f"{p}.{r}.{k}"] = 0
    out["shape.checks"] = out["shape.settled"] = out["shape.time_s"] = 0
    for c in calls:
        if c["p"] not in PROVERS:
            raise ValueError(f"unknown prover {c['p']!r}")
        key = f"{c['p']}.{role_of(c['n'])}"
        out[key + ".attempts"] += c["a"]
        out[key + ".settled"] += c["s"]
        out[key + ".time_s"] += c["t"]
        out[key + ".giveup_s"] += c["g"]
        if is_houdini(c["n"]):
            out["shape.checks"] += c["a"]
            out["shape.settled"] += c["s"]
            out["shape.time_s"] += c["t"]
    return out


def verdict_counts(methods):
    """Per-method verdict multisets of a report."""
    return {m["name"]: (m["valid"], m["invalid"], m["unknown"]) for m in methods}


def signature(methods, calls, reverified):
    """The work one verification did: prover attempts per prover and
    role, obligations, methods and re-verified methods.  At one worker
    domain it must repeat exactly between repetitions."""
    attempts = {}
    for c in calls:
        key = f"{c['p']}.{role_of(c['n'])}"
        attempts[key] = attempts.get(key, 0) + c["a"]
    return {
        "attempts": dict(sorted(attempts.items())),
        "obligations": sum(m["total"] for m in methods),
        "methods": len(methods),
        "reverified": reverified,
    }


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------

def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        r = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/jbench.exe",
                                  "./perfbench/calib.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        raise SystemExit(f"perfbench: cannot run dune: {e}")
    if r.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(PROBE)):
        raise SystemExit("perfbench: build failed")


def probe():
    """One run of the host-speed probe: its time in seconds."""
    try:
        r = subprocess.run([PROBE], stdout=subprocess.PIPE, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: calib timed out")
    if r.returncode != 0:
        raise SystemExit(f"perfbench: calib exited with {r.returncode}")
    return float(r.stdout)


def spawn(args, cycles=0, probing=True):
    """Run one jbench process to completion.  Returns its ready and
    result records, its set-up time (spawn to ready, on the monotonic
    clock both processes share) and its peak resident set.  A stream of
    `cycles` cycles is paced: with `probing`, the probe runs at "ready"
    and after every cycle, while the stream waits, and the probe times
    are returned."""
    t0 = time.monotonic()
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         stdin=subprocess.PIPE if cycles else subprocess.DEVNULL)
    timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    timer.start()
    ready = result = None
    probes = []
    paces = 0  # "ready" and "cycle" lines seen; each but the last starts a cycle
    try:
        try:
            for line in p.stdout:
                rec = json.loads(line)
                if rec["event"] == "ready":
                    ready = rec
                elif rec["event"] == "result":
                    result = rec
                if cycles and rec["event"] in ("ready", "cycle"):
                    paces += 1
                    if probing:
                        probes.append(probe())
                    if paces <= cycles:
                        p.stdin.write("go\n")
                        p.stdin.flush()
        finally:
            if p.stdin:
                p.stdin.close()  # empty: every write above is flushed
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
    except BrokenPipeError:
        pass  # the stream died; its exit code says so below
    finally:
        timer.cancel()
    if p.returncode != 0:
        raise SystemExit(f"perfbench: jbench {' '.join(args[:2])} exited with {p.returncode}")
    if ready is None or result is None:
        raise SystemExit("perfbench: jbench printed no result")
    return {
        "setup_s": ready["mono"] - t0,
        "wall_s": time.monotonic() - t0,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "result": result,
        "probes": probes,
    }


def fresh_store():
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.signatures = []

    def check(self, ok, what):
        if not ok:
            self.correct = False
            self.failed += 1
            log(f"CHECK FAILED: {what}")

    def flag_signature(self, label, sig):
        print(f"signature {label} {json.dumps(sig, sort_keys=True)}")
        if self.signatures and sig != self.signatures[0]:
            print(f"FLAG {label}: work signature differs from the first repetition")
            log(f"FLAG {label}: work signature differs from the first repetition")
        self.signatures.append(sig)


def no_invalid(methods):
    return all(m["invalid"] == 0 for m in methods)


def layer_metrics(r, parse_s, verify_s, untraced_verify_s):
    """Per-layer metrics of one traced process result."""
    spans = r["spans"]
    counters = r["counters"]

    def span(k, field="total_s"):
        return spans.get(k, {}).get(field, 0)

    m = prover_layers(r["calls"])
    prover_s = sum(c["t"] for c in r["calls"])
    simplify_s = span("dispatch:simplify")
    saturate_s = span("dispatch:saturate")
    m.update({
        "javaparser.parse_s": parse_s,
        "gcl.desugar_s": span("frontend:desugar"),
        "vcgen.wp_s": r["wp_s"],
        "vcgen.obligations": r["wp_obligations"],
        "dispatch.simplify_s": simplify_s,
        "dispatch.saturate_s": saturate_s,
        "dispatch.self_s": self_time(span("obligation:prove"),
                                     [simplify_s, saturate_s, prover_s]),
        "dispatch.cache_hits": counters.get("cache.hit", 0),
        "dispatch.cache_misses": counters.get("cache.miss", 0),
        "dispatch.sched_skipped": counters.get("sched.skipped", 0),
        "jahob.rounds": span("verify:round", "count"),
        "trace.overhead": verify_s / untraced_verify_s,
    })
    return m


def run_cold(files, seconds, trace):
    out = Outcome()
    reps = []
    start = time.monotonic()
    min_reps = 2 if trace else 3
    # untraced repetitions are bracketed by probes, see speed_factors
    probes = [] if trace else [probe()]
    while True:
        reps.append(spawn(["cold"] + files))
        if not trace:
            probes.append(probe())
        typical = statistics.median(r["wall_s"] for r in reps)
        typical += statistics.median(probes) if probes else 0.0
        # a traced run keeps room for its one traced repetition
        budget = seconds - (typical if trace else 0.0)
        if len(reps) >= min_reps and time.monotonic() - start + typical > budget:
            break
    first = verdict_counts(reps[0]["result"]["methods"])
    agreeing = 0
    for i, rep in enumerate(reps):
        res = rep["result"]
        out.attempted += 1
        out.check(no_invalid(res["methods"]), f"repetition {i}: Invalid verdict on a correct program")
        same = verdict_counts(res["methods"]) == first
        agreeing += same
        if not same:
            log(f"repetition {i}: per-method verdicts differ from repetition 0")
        out.flag_signature(f"rep{i}", signature(res["methods"], res["calls"], len(res["methods"])))
    untraced_verify = statistics.median(r["result"]["verify_s"] for r in reps)
    if trace:
        t = spawn(["cold", "--trace"] + files)
        res = t["result"]
        out.attempted += 1
        out.check(no_invalid(res["methods"]), "traced repetition: Invalid verdict on a correct program")
        out.flag_signature("traced", signature(res["methods"], res["calls"], len(res["methods"])))
        m = layer_metrics(res, res["parse_s"], res["verify_s"], untraced_verify)
        m.update({"gcl.tasks": res["tasks"], "jahob.inc_s": 0, "jahob.reverified": 0,
                  "jahob.unchanged": 0, "daemon.persist_s": 0, "daemon.store_bytes": 0})
        out.metrics = m
        return out
    factors = speed_factors(probes)
    verify_s = [r["result"]["verify_s"] * f for r, f in zip(reps, factors)]
    setups = [r["setup_s"] * f for r, f in zip(reps, factors)]
    # the set-up-only processes take milliseconds each: one more probe
    # brackets them as a group
    setup_only = [spawn(["cold", "--setup-only"] + files)["setup_s"]
                  for _ in range(COLD_SETUPS)]
    probes.append(probe())
    (group_factor,) = speed_factors(probes[-2:])
    setups += [x * group_factor for x in setup_only]
    res0 = reps[0]["result"]["methods"]
    total = sum(m["total"] for m in res0)
    runs_ms = [[x * 1e3 * f for x in r["result"]["verdicts_s"]]
               for r, f in zip(reps, factors)]
    try:
        # one sample per obligation: its median over the repetitions
        verdicts_ms = position_medians(runs_ms)
    except ValueError:
        log("repetitions dispatched different obligations; pooling their samples")
        verdicts_ms = [x for r in runs_ms for x in r]
    out.metrics = {
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(verify_s),
        "valid_share": sum(m["valid"] for m in res0) / total,
        "methods_verified_share": sum(m["valid"] == m["total"] for m in res0) / len(res0),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "edit_ms_p50": percentile(verdicts_ms, 50),
        "edit_ms_p90": percentile(verdicts_ms, 90),
        "edit_agree_share": agreeing / len(reps),
    }
    print(f"host: probe median {statistics.median(probes):.4f} s, "
          f"unscaled verify_s median {untraced_verify:.4f} s")
    log(f"{len(reps)} repetitions, {len(verdicts_ms)} time-to-verdict samples, "
        f"{len(setups)} set-up samples, {len(probes)} probes")
    return out


def edit_args(seed, cycles, trace):
    args = ["edit", "--seed", str(seed), "--cycles", str(cycles),
            "--store", fresh_store()]
    return args + (["--trace"] if trace else []) + EDIT_BASE


def check_stream(out, res, label):
    base = res["base"]
    out.attempted += res["edits"]
    out.check(no_invalid(base["methods"]), f"{label}: Invalid verdict on the unmodified base")
    out.check(res["agree"] == res["compared"],
              f"{label}: {res['compared'] - res['agree']} of {res['compared']} sampled "
              "methods disagree with a from-scratch verification")
    print(f"stream {label}: {res['edits']} edits over {res['mutants']} distinct mutants, "
          f"{len(res['cycle_s'])} cycles, {res['reverified']} re-verified, "
          f"{res['unchanged']} unchanged")


def run_edit(seed, seconds, trace):
    out = Outcome()
    cycles = max(3, round(seconds / NOMINAL_CYCLE_S))
    if trace:
        # the same seeded stream twice, untraced then traced
        half = max(2, cycles // 2)
        a = spawn(edit_args(seed, half, False), cycles=half, probing=False)
        check_stream(out, a["result"], "untraced")
        t = spawn(edit_args(seed, half, True), cycles=half, probing=False)
        res = t["result"]
        check_stream(out, res, "traced")
        base = res["base"]
        out.flag_signature("traced-setup", signature(base["methods"], base["calls"], len(base["methods"])))
        m = layer_metrics(res, base["parse_s"], statistics.median(res["cycle_s"]),
                          statistics.median(a["result"]["cycle_s"]))
        m.update({
            "gcl.tasks": res["spans"].get("frontend:desugar", {}).get("count", 0),
            "jahob.inc_s": res["inc_s"],
            "jahob.reverified": res["reverified"],
            "jahob.unchanged": res["unchanged"],
            "daemon.persist_s": res["persist_s"],
            "daemon.store_bytes": res["store_bytes"],
        })
        out.metrics = m
        return out
    setups = []
    # the set-ups, the stream's own included, are bracketed as a group by
    # this probe and the stream's first
    probes = [probe()]
    for i in range(EDIT_SETUPS):
        s = spawn(["edit", "--setup-only", "--store", fresh_store()] + EDIT_BASE)
        res = s["result"]
        out.attempted += 1
        out.check(no_invalid(res["methods"]), f"setup {i}: Invalid verdict on the unmodified base")
        out.flag_signature(f"setup{i}", signature(res["methods"], res["calls"], len(res["methods"])))
        setups.append(s["setup_s"])
    main = spawn(edit_args(seed, cycles, False), cycles=cycles)
    res = main["result"]
    base = res["base"]
    out.flag_signature(f"setup{EDIT_SETUPS}", signature(base["methods"], base["calls"], len(base["methods"])))
    setups.append(main["setup_s"])
    check_stream(out, res, "stream")
    mutants = res["mutants"]
    cycle_factors = speed_factors(main["probes"])
    probes.append(main["probes"][0])
    (group_factor,) = speed_factors(probes)
    setups = [x * group_factor for x in setups]
    cycle_s = [x * f for x, f in zip(res["cycle_s"], cycle_factors)]
    # edits are in stream order, one cycle of `mutants` edits after another
    lat_ms = [x * 1e3 * cycle_factors[i // mutants] for i, x in enumerate(res["lat_s"])]
    # two cycles per window: every edit twice, 17 samples beyond its p90
    window = 2 * mutants
    out.metrics = {
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(cycle_s),
        "valid_share": res["valid"] / res["total"],
        "methods_verified_share": res["methods_ok"] / res["methods"],
        "peak_rss_mb": main["rss_mb"],
        "edit_ms_p50": windowed_percentile(lat_ms, window, 50),
        "edit_ms_p90": windowed_percentile(lat_ms, window, 90),
        "edit_agree_share": res["agree"] / res["compared"],
    }
    print(f"host: probe median {statistics.median(probes + main['probes'][1:]):.4f} s, "
          f"unscaled cycle median {statistics.median(res['cycle_s']):.4f} s")
    log(f"{len(lat_ms)} edit latency samples in windows of {window}, "
        f"{res['compared']} methods re-verified from scratch, "
        f"{len(probes) + len(main['probes']) - 1} probes")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    for f in CORPUS + LIST_FIGS:
        if not os.path.isfile(f):
            raise SystemExit(f"perfbench: missing input {f}; run from the root of a checkout")
    build()
    # the probe must measure the CPU the verifier runs on: every process
    # from here on inherits one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if a.workload == "corpus_cold":
            out = run_cold(CORPUS, a.seconds, a.trace == 1)
        elif a.workload == "list_figs":
            out = run_cold(LIST_FIGS, a.seconds, a.trace == 1)
        else:
            out = run_edit(a.seed, a.seconds, a.trace == 1)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = PER_LAYER if a.trace == 1 else END_TO_END
    assert set(out.metrics) == set(units), sorted(set(out.metrics) ^ set(units))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": out.metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
