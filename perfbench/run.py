#!/usr/bin/env python3
"""Benchmark of the Shasta DSM simulator.

    python3 perfbench/run.py --workload fig3-smp --seed 42 --seconds 40 --trace 0

Run from the repository root. Builds perfbench/bench.exe with dune, then
runs the workload's passes, one fresh process each (the peak heap is
process-wide), until --seconds of measuring is used (at least three
passes). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
one untraced pass (counts), one traced pass (observer metrics, spans)
and the per-call layer probes. perfbench/README.md documents each
metric. A metric that does not apply to a workload, or whose layer the
benchmark cannot see there, reads -1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

WORKLOADS = ("fig3-smp", "fig3-base", "ycsb-a")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".perfbench"
MIN_PASSES = 3
MAX_PASSES = 40
DEADLINE_S = 165  # the whole run, after the build, ends well within 180 s
BUILD_TIMEOUT_S = 840
ABSENT = -1

# Pinned again here (bench.exe pins them too) so nothing inherited from
# the caller's environment reaches the build or the passes.
PINNED_ENV = {
    "SHASTA_SHARDS": "1",
    "SHASTA_JOBS": "1",
    "SHASTA_TRACE": "0",
    "SHASTA_SANITIZE": "0",
    "SHASTA_CKPT": "0",
    "SHASTA_FASTPATH": "1",
    "DUNE_CACHE": "disabled",
}

# Pinned sim_cycles as (seed, value), where a seed of None means every
# seed. The nine fig3 apps build their inputs from fixed streams (the seed
# reaches only Dsm.prng, which none of them reads); the ycsb-a key and op
# streams come from the seed. The two fig3 pins sum to the quick-fig3 pin
# 1042130344 once the 129.0M sequential cycles are counted once.
DEFAULT_SEED = 42
SIM_CYCLES_PIN = {
    "fig3-smp": (None, 525024716),
    "fig3-base": (None, 646069884),
    "ycsb-a": (DEFAULT_SEED, 41842870),
}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SHASTA_") and k != "OCAMLRUNPARAM"}
    env.update(PINNED_ENV)
    return env


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            raise BenchError("not a checkout of the simulator: %s is missing" % need)
    p = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       capture_output=True, text=True, env=child_env(),
                       timeout=BUILD_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise BenchError("build failed")


def bench(mode, workload, seed, timeout, extra=()):
    if timeout <= 0:
        raise BenchError("no time left for a %s pass" % mode)
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise BenchError("%s pass exited with %d" % (mode, p.returncode))
    return json.loads(lines[-1])


def fingerprint(ocaml):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(d, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"cores": os.cpu_count(), "cpu_model": model, "ocaml": ocaml,
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def unit_walls(passes):
    """Per unit (one simulated run), its host seconds in every pass."""
    walls = {}
    for p in passes:
        for u in p["units"]:
            if "verify_s" in u:
                w = u["registry_s"] + u["create_s"] + u["app_setup_s"] + u["run_s"] + u["verify_s"]
                s = u["registry_s"] + u["create_s"] + u["app_setup_s"]
            else:
                w = u["run_s"]
                s = None
            walls.setdefault(u["name"], []).append((w, s))
    return walls


def sum_of_medians(walls, pick):
    return sum(median([pick(x) for x in xs]) for xs in walls.values())


def ycsb_setups(passes):
    return [c + k for p in passes for u in p["units"]
            for c, k in zip(u["create_s"], u["kv_create_s"])]


def end_to_end(workload, passes):
    """End-to-end metrics from untraced passes: host figures are medians
    over passes (per unit, then summed), simulated ones repeat exactly."""
    sim = passes[0]["sim"]
    walls = unit_walls(passes)
    wall = sum_of_medians(walls, lambda x: x[0])
    fig3 = workload.startswith("fig3")
    if fig3:
        setup = sum_of_medians(walls, lambda x: x[1])
    else:
        setup = median(ycsb_setups(passes))
    heap = median([p["gc"]["top_heap_words"] * 8 / 1e6 for p in passes])
    m = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "accesses_per_s": (sim["accesses"] / wall if fig3 else ABSENT, "1/s"),
        "kv_ops_per_s": (ABSENT if fig3 else sim["kv_ops"] / wall, "1/s"),
        "heap_peak_mb": (heap, "MB"),
        "sim_cycles": (sim["sim_cycles"], "cycles"),
        "sim_speedup_geomean": (sim["sim_speedup_geomean"] if fig3 else ABSENT, "x"),
    }
    for cls in ("read", "update"):
        for q in ("p50", "p99"):
            key = "%s_%s_cycles" % (cls, q)
            m[key] = (sim.get(key, ABSENT), "cycles")
    return m


def probe_ns(probes, name):
    """A probe's ns per call, net of the switches and messages it
    performed itself."""
    p = probes[name]
    return (p["ns"] - p["switches"] * probes["switch"]["ns"]
            - p["msgs"] * probes["msg"]["ns"])


def per_layer(workload, base, traced):
    """Per-layer metrics: counts from the untraced pass [base], per-call
    costs and observer metrics from the traced pass."""
    fig3 = workload.startswith("fig3")
    sim, gc, units = base["sim"], base["gc"], base["units"]
    probes = traced["probes"]
    mx = traced.get("metrics")

    def when(cond, f):
        return f() if cond else ABSENT

    ns = {
        "switch": probes["switch"]["ns"],
        "hit": probes["check_hit"]["ns"],
        "prog": probes["prog_op"]["ns"],
        "batch": probes["batch_access"]["ns"],
        "msg": probes["msg"]["ns"],
        "miss": probe_ns(probes, "remote_miss"),
        "lock": probe_ns(probes, "lock_pair"),
        "downgrade": probe_ns(probes, "downgrade"),
    }
    msgs = sim["msgs_remote"] + sim["msgs_local"] + sim["downgrade_msgs"]
    sim_est = sim["switches"] * ns["switch"] / 1e9
    net_est = msgs * ns["msg"] / 1e9
    if fig3:
        run_s = sum(u["run_s"] for u in units)
        setup_s = sum(u["registry_s"] + u["app_setup_s"] for u in units)
        create_s = sum(u["create_s"] for u in units)
        verify_s = sum(u["verify_s"] for u in units)
        check_est = ((sim["accesses"] - sim["prog_accesses"]) * ns["hit"]
                     + sim["prog_accesses"] * ns["prog"]) / 1e9
        protocol_est = ((sim["misses_read"] + sim["misses_write"]) * ns["miss"]
                        + sim["downgrade_msgs"] * ns["downgrade"]) / 1e9
        unattributed = run_s - sim_est - net_est - check_est - protocol_est
    else:
        # Ycsb.run's machine is invisible: no Stats, so no check or
        # protocol estimate, and its oracle runs inside the span.
        run_s = units[0]["run_s"]
        setup_s = median(units[0]["kv_create_s"])
        create_s = median(units[0]["create_s"])
        verify_s = check_est = protocol_est = ABSENT
        unattributed = run_s - sim_est - net_est

    m = {
        "sim.switches": (sim["switches"], "count"),
        "sim.switches_elided": (sim["switches_elided"], "count"),
        "sim.ns_per_switch": (ns["switch"], "ns"),
        "sim.est_s": (sim_est, "s"),
        "gc.words_per_switch": (probes["switch"]["words"], "words"),
        "check.accesses": (when(fig3, lambda: sim["accesses"]), "count"),
        "check.checks": (when(fig3, lambda: sim["checks"]), "count"),
        "check.fast_hit_ratio": (when(fig3, lambda: sim["fast_hits"] / sim["checks"]), "ratio"),
        "check.prog_ratio": (when(fig3, lambda: sim["prog_accesses"] / sim["accesses"]), "ratio"),
        "check.ns_per_hit": (ns["hit"], "ns"),
        "check.ns_per_prog_op": (ns["prog"], "ns"),
        "check.ns_per_batch_access": (ns["batch"], "ns"),
        "check.est_s": (check_est, "s"),
        "protocol.misses_read": (when(fig3, lambda: sim["misses_read"]), "count"),
        "protocol.misses_write": (when(fig3, lambda: sim["misses_write"]), "count"),
        "protocol.misses_3hop": (when(fig3, lambda: sim["misses_3hop"]), "count"),
        "protocol.private_upgrades": (when(fig3, lambda: sim["private_upgrades"]), "count"),
        "protocol.ns_per_remote_miss": (ns["miss"], "ns"),
        "protocol.ns_per_lock_pair": (ns["lock"], "ns"),
        "protocol.est_s": (protocol_est, "s"),
        "protocol.miss_latency_p99_cycles": (when(mx, lambda: mx["miss_latency_p99_cycles"]), "cycles"),
        "protocol.downgrade_rtt_p99_cycles": (when(mx, lambda: mx["downgrade_rtt_p99_cycles"]), "cycles"),
        "protocol.busiest_receiver_share": (
            when(mx, lambda: mx["busiest_receiver_msgs"] / mx["recvs"]), "ratio"),
        "protocol.downgrade_msgs": (sim["downgrade_msgs"], "count"),
        "protocol.ns_per_downgrade": (ns["downgrade"], "ns"),
        "net.msgs_remote": (sim["msgs_remote"], "count"),
        "net.msgs_local": (sim["msgs_local"], "count"),
        "net.ns_per_msg": (ns["msg"], "ns"),
        "net.est_s": (net_est, "s"),
        "gc.words_per_msg": (probes["msg"]["words"], "words"),
        "ycsb.msgs_per_read": (when(not fig3, lambda: sim["read_msgs"] / sim["read_ops"]), "count"),
        "ycsb.msgs_per_update": (when(not fig3, lambda: sim["update_msgs"] / sim["update_ops"]), "count"),
        "ycsb.background_msgs": (when(not fig3, lambda: sim["background_msgs"]), "count"),
        "ycsb.read_samples": (when(not fig3, lambda: sim["read_ops"]), "count"),
        "ycsb.update_samples": (when(not fig3, lambda: sim["update_ops"]), "count"),
        "ycsb.ns_per_sample": (probes["sample"]["ns"], "ns"),
        "apps.setup_s": (setup_s, "s"),
        "apps.verify_s": (verify_s, "s"),
        "core.create_s": (create_s, "s"),
        "core.run_s": (run_s, "s"),
        "run.unattributed_s": (unattributed, "s"),
        "gc.minor_words": (gc["minor_words"], "words"),
        "gc.major_words": (gc["major_words"], "words"),
        "gc.minor_words_per_access": (when(fig3, lambda: gc["minor_words"] / sim["accesses"]), "words"),
        "trace.overhead_s": (traced["wall_s"] - base["wall_s"], "s"),
    }
    for cat in ("task", "read", "write", "sync", "message", "other"):
        m["cycles." + cat] = (when(fig3, lambda: sim["cycles_" + cat]), "cycles")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    passes, problems = [], []
    attempted = failed = 0

    start = time.monotonic()

    def run_one(mode, extra=()):
        nonlocal attempted, failed
        try:
            p = bench(mode, args.workload, args.seed,
                      start + DEADLINE_S - time.monotonic(), extra)
        except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
            problems.append("%s pass: %s" % (mode, e))
            attempted += 1
            failed += 1
            return None
        attempted += p["attempted"]
        failed += p["failed"]
        problems.extend(p["failures"] + p["mismatches"])
        return p

    if args.trace == 0:
        # Start another pass only while it is expected to end within
        # --seconds, once MIN_PASSES have completed.
        while len(passes) < MAX_PASSES:
            t = time.monotonic()
            p = run_one("pass")
            if p is not None:
                passes.append(p)
            last = time.monotonic() - t
            used = time.monotonic() - start
            if used + last > args.seconds and (len(passes) >= MIN_PASSES or p is None):
                break
        traced = None
    else:
        base = run_one("pass")
        traced = run_one("trace", ("--spans", os.path.join(OUT_DIR, "spans-%s.json" % tag)))
        passes = [base] if base else []
        # fast_hits counts host-side fused-path hits, which an attached
        # observer turns off; every simulated result must stay identical.
        if base and traced and ({**traced["sim"], "fast_hits": 0}
                                != {**base["sim"], "fast_hits": 0}):
            problems.append("traced pass changed simulated results")

    if not passes:
        print("perfbench: no pass completed: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    for p in passes[1:]:
        if p["sim"] != passes[0]["sim"]:
            problems.append("simulated results differ between passes")
            break
    pin_seed, pin = SIM_CYCLES_PIN[args.workload]
    cycles = passes[0]["sim"].get("sim_cycles")
    if pin_seed in (None, args.seed) and cycles != pin:
        problems.append("sim_cycles %s differs from the pinned %d" % (cycles, pin))

    if args.trace == 0:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(args.workload, passes).items()}
    elif traced is None:
        print("perfbench: traced pass failed: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer(args.workload, passes[0], traced).items()}

    host = fingerprint(passes[0]["ocaml"])
    failed_frac = failed / attempted
    print("# host %s" % json.dumps(host))
    print("# env %s" % json.dumps(passes[0]["env"]))
    print("# %s seed %d: %d passes, %d runs attempted, %d failed, failed_frac %.4f"
          % (args.workload, args.seed, len(passes), attempted, failed, failed_frac))
    for problem in problems:
        print("# FAIL %s" % problem)
    for k, m in metrics.items():
        v = m["value"]
        shown = "absent" if v == ABSENT else ("%.6g" % v)
        print("%-36s %16s %s" % (k, shown, m["unit"]))
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as f:
        json.dump({"host": host, "env": passes[0]["env"], "failed_frac": failed_frac,
                   "problems": problems, "passes": len(passes), **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
