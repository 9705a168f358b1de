#!/usr/bin/env python3
"""End-to-end benchmark of the CPPC reproduction.

    python3 perfbench/run.py --workload sweep|campaign|fuzz|checks \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (Release) into
.bench_build/, runs one workload, checks its outputs against the
committed digests in perfbench/digests.json, prints a manifest line,
and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a separate traced run
(layers the workload does not exercise read 0).  See perfbench/NOTES.md
for what each workload and metric means.

Maintenance:
    --self-test        build and run the shim transparency test
    --record-digests   rewrite perfbench/digests.json from seeds 1 and 2
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cppc_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("sweep", "campaign", "fuzz", "checks")
DIGEST_SEEDS = (1, 2)  # default seed, held-out seed
# setup_s is the median of three groups of SETUP_PROBES set-up probes,
# run before the workload, after it and after the accuracy grid: a
# probe lasts milliseconds, and host speed shifts over seconds.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# The repository parts the benchmark builds and drives.
REQUIRED = ("CMakeLists.txt", "src/CMakeLists.txt",
            "tools/cppc_analyze/cppc_analyze.py",
            "tools/cppc_lint/cppc_lint.py")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    """Run @cmd to completion; return (rc, stdout, wall_s, maxrss_mb).

    The child is reaped with wait4 so its own peak RSS is read; a child
    that outlives @timeout is killed and reaped before raising."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=env)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out, err = [], []
        t_err = threading.Thread(target=lambda: err.append(p.stderr.read()))
        t_err.start()
        out.append(p.stdout.read())
        t_err.join()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if p.returncode != 0 and err[0]:
        sys.stderr.write(err[0].decode(errors="replace")[-4000:])
    if p.returncode in (-9,) and wall >= timeout:
        raise BenchError("%s timed out" % cmd[0])
    return p.returncode, out[0].decode(), wall, ru.ru_maxrss / 1024.0


def check_tree():
    missing = [r for r in REQUIRED if not os.path.exists(os.path.join(ROOT,
                                                                      r))]
    if missing:
        raise BenchError("not a CPPC source tree (missing %s); run from "
                         "the repository root" % ", ".join(missing))


def build(targets):
    def sh(cmd):
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
        "--target"] + targets)


def bench_json(stdout, what):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s printed nothing" % what)
    return json.loads(lines[-1])


def binary(workload, seed, seconds, trace, scratch):
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--scratch=" + scratch]
    cmd += ["--trace"] if trace else []
    rc, out, wall, rss = run_child(cmd)
    if rc != 0:
        raise BenchError("cppc_perfbench %s exited %d" % (workload, rc))
    return bench_json(out, "cppc_perfbench"), wall, rss


def setup_walls(workload, seed):
    """Walls of SETUP_PROBES launches that set up and exit."""
    if workload == "checks":
        cmd = [sys.executable, os.path.join(HERE, "checks_trace.py"),
               "--root", ROOT, "--setup-only"]
    else:
        cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
               "--setup-only"]
    walls = []
    for _ in range(SETUP_PROBES):
        rc, _, wall, _ = run_child(cmd)
        if rc != 0:
            raise BenchError("set-up probe for %s exited %d"
                             % (workload, rc))
        walls.append(wall)
    return walls


# ------------------------------------------------------------- checks

CHECKERS = (
    ("analyze", "tools/cppc_analyze/cppc_analyze.py", "--engine=syntactic"),
    ("lint", "tools/cppc_lint/cppc_lint.py", "--engine=regex"),
)
SUMMARY = re.compile(r"\((\w+) engine\): (\d+) files?, (\d+) findings?")


def checker_pass(pass_no, units):
    """Both tree checks as Tier-1 runs them; returns (wall, files, rss)."""
    wall, files, rss = 0.0, 0, 0.0
    for name, script, engine in CHECKERS:
        rc, out, w, m = run_child([sys.executable,
                                   os.path.join(ROOT, script), engine,
                                   "--root", ROOT])
        found = SUMMARY.search(out)
        n_files = int(found.group(2)) if found else 0
        findings = int(found.group(3)) if found else -1
        ok = rc == 0 and findings == 0
        units.append({"key": "p%d/%s" % (pass_no, name),
                      "digest": "findings=%d" % findings, "ok": ok,
                      "why": "" if ok else "exit %d, %d findings"
                      % (rc, findings)})
        wall += w
        files += n_files
        rss = max(rss, m)
    return wall, files, rss


def run_checks(seconds, trace):
    units, metrics, info = [], {}, {}
    if not trace:
        # At least two passes: a single ~20 s pass leaves the rate at
        # the mercy of one slow stretch of the host.
        walls, files, rss = [], 0, 0.0
        start = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - start < seconds:
            w, f, m = checker_pass(len(walls), units)
            walls.append(w)
            files += f
            rss = max(rss, m)
        # As in the C++ workloads: one pass's files over the first
        # quartile of the pass walls.
        per_pass = files / len(walls)
        q1 = walls[0] if len(walls) == 1 else statistics.quantiles(
            walls, n=4, method="inclusive")[0]
        metrics["work_per_s"] = per_pass / q1
        info = {"passes": len(walls), "work_unit": "checked file",
                "work_per_pass": per_pass,
                "pass_walls_s": " ".join("%.6f" % w for w in walls)}
        return units, metrics, info, rss

    # The same in-process code untraced, then traced: each is its own
    # interpreter, so the difference is the wrappers' cost alone.
    runs, rss = [], 0.0
    for pass_no, flags in enumerate((["--untraced"], [])):
        rc, out, _, m = run_child(
            [sys.executable, os.path.join(HERE, "checks_trace.py"),
             "--root", ROOT] + flags)
        if rc != 0:
            raise BenchError("checks_trace.py exited %d" % rc)
        t = bench_json(out, "checks_trace.py")
        for name, key in (("analyze", "analyze_findings"),
                          ("lint", "lint_findings")):
            ok = t[key] == 0
            units.append({"key": "p%d/%s" % (pass_no, name),
                          "digest": "findings=%d" % t[key], "ok": ok,
                          "why": "" if ok else "%d findings" % t[key]})
        runs.append(t["wall_s"])
        rss = max(rss, m)
    metrics.update(t["spans"])
    metrics["tools.files"] = t["files"]
    self_sum = sum(t["spans"].values())
    metrics["unattributed_s"] = t["wall_s"] - self_sum
    metrics["trace_overhead_frac"] = (runs[1] - runs[0]) / runs[0]
    info = {"traced_wall_s": "%.6f" % t["wall_s"],
            "layer_self_sum_s": "%.6f" % self_sum,
            "attribution_ok": "1" if t["wall_s"] >= self_sum else "0"}
    return units, metrics, info, rss


# ------------------------------------------------------------ digests

def check_digests(workload, seed, units, committed):
    """Count failed operations: units that failed their own checks, and
    units whose digest differs from (or is missing against) the
    committed one for this seed."""
    expect = dict(committed.get(workload, {}).get("any", {}))
    expect.update(committed.get(workload, {}).get(str(seed), {}))
    failed, seen = 0, set()
    for u in units:
        seen.add(u["key"])
        want = expect.get(u["key"])
        if want is not None and want != u["digest"]:
            u["ok"], u["why"] = False, "digest %s != committed %s" % (
                u["digest"], want)
        if not u["ok"]:
            failed += 1
            log("FAILED %s %s: %s" % (workload, u["key"], u["why"]))
    missing = [k for k in expect if k not in seen]
    for k in missing:
        log("FAILED %s %s: committed unit was not produced" % (workload, k))
    return len(units) + len(missing), failed + len(missing)


def load_committed():
    with open(DIGESTS) as f:
        return json.load(f)


# ----------------------------------------------------------- manifest

def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        paths = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


# --------------------------------------------------------------- main

def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    check_tree()
    spec = benchmark_spec()
    build(["cppc_perfbench"])
    scratch = os.path.join(BUILD, "run", "%s-%d" % (args.workload,
                                                    os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        committed = load_committed()
        if not args.trace:
            probes = setup_walls(args.workload, args.seed)
        if args.workload == "checks":
            units, metrics, info, rss = run_checks(args.seconds, args.trace)
            manifest = {}
        else:
            res, _, rss = binary(args.workload, args.seed, args.seconds,
                                 args.trace, scratch)
            units, metrics, info = res["units"], res["metrics"], res["info"]
            manifest = res["manifest"]
        attempted, failed = check_digests(args.workload, args.seed, units,
                                          committed)
        correct = failed == 0 and info.get("attribution_ok", "1") == "1"
        if not args.trace:
            probes += setup_walls(args.workload, args.seed)
            # The accuracy metrics come from one fixed canonical grid,
            # run in its own process after the timed work.
            acc, _, _ = binary("accuracy", args.seed, args.seconds, False,
                               scratch)
            probes += setup_walls(args.workload, args.seed)
            a_att, a_fail = check_digests("accuracy", args.seed,
                                          acc["units"], committed)
            attempted += a_att
            failed += a_fail
            correct = correct and a_fail == 0
            metrics.update(acc["metrics"])
            info.update(acc["info"])
            if not manifest:
                # checks: the build facts come from the accuracy run;
                # each checker itself is one single-threaded process.
                manifest = dict(acc["manifest"], threads=1)
            metrics["setup_s"] = statistics.median(probes)
            metrics["peak_rss_mb"] = rss
            wanted = spec["end_to_end"]
        else:
            wanted = spec["per_layer"]
        names = {m["name"] for m in wanted}
        extra = set(metrics) - names
        if extra:
            raise BenchError("metrics missing from BENCHMARK.json: %s"
                             % ", ".join(sorted(extra)))
        out = {}
        for m in wanted:
            v = metrics.get(m["name"], 0.0)
            if not isinstance(v, (int, float)) or v != v:
                correct = False
                v = 0.0
            out[m["name"]] = {"value": v, "unit": m["unit"]}
        manifest.update({
            "workload": args.workload, "seed": args.seed,
            "digest_seeds": list(DIGEST_SEEDS),
            "seconds": args.seconds, "trace": int(args.trace),
            "ncores": os.cpu_count(), "setup_probes": 3 * SETUP_PROBES,
            "git_commit": git_commit(), "source_sha256": source_digest(),
        })
        print(json.dumps({"manifest": manifest, "info": info}))
        return {"correct": bool(correct), "attempted": attempted,
                "failed": failed, "metrics": out}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def self_test():
    check_tree()
    build(["perfbench_shim_test"])
    return subprocess.run([os.path.join(BUILD, "perfbench_shim_test")],
                          cwd=ROOT).returncode


def record_digests():
    """Regenerate digests.json: units of pass 0 of every workload for
    the default and held-out seeds, plus the seed-independent units."""
    check_tree()
    build(["cppc_perfbench"])
    scratch = os.path.join(BUILD, "run", "record-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        out = {"accuracy": {"any": {}}, "checks": {"any": {
            "p0/analyze": "findings=0", "p0/lint": "findings=0"}}}
        acc, _, _ = binary("accuracy", 1, 0, False, scratch)
        out["accuracy"]["any"] = {u["key"]: u["digest"]
                                  for u in acc["units"]}
        for w in ("sweep", "campaign", "fuzz"):
            out[w] = {"any": {}}
            for seed in DIGEST_SEEDS:
                res, _, _ = binary(w, seed, 0, False, scratch)
                bad = [u for u in res["units"] if not u["ok"]]
                if bad:
                    raise BenchError("refusing to record failing units: %s"
                                     % bad[:3])
                p0 = {u["key"]: u["digest"] for u in res["units"]
                      if u["key"].startswith("p0/")}
                fixed = {k: v for k, v in p0.items() if "sabotaged" in k}
                out[w]["any"].update(fixed)
                out[w][str(seed)] = {k: v for k, v in p0.items()
                                     if k not in fixed}
        with open(DIGESTS, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
        log("wrote %s" % DIGESTS)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DIGEST_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        if not args.workload:
            ap.error("--workload is required")
        if args.seed < 0 or not args.seconds > 0:
            ap.error("--seed must be >= 0 and --seconds > 0")
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
