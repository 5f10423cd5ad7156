#!/usr/bin/env python3
"""End-to-end benchmark of the histkd serving daemon.

    python3 perfbench/run.py --workload hit_serving --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds histkd and the two
benchmark programs (perfbench/CMakeLists.txt, Release) into .bench_build/
(or $CARGO_TARGET_DIR); later runs only re-check the build.

Each run generates its inputs from --seed into a fresh directory under the
build directory, starts the real `histkd --socket --workers 2 --data-root`
from the load generator (histkd_bench_load, one process, two connections),
drives the workload, checks every answer, and prints a readable table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (the
same socket run, then histkd_bench_trace replays the same lines in-process
and times each layer call). Workloads, layers and the metric definitions
are documented in perfbench/README.md.

Exit codes: 0 ok, 1 an answer was wrong (the JSON line is still printed,
with "correct": false), 2 the benchmark could not run (no source tree,
build failure, non-Release build), 3 the load generator fell behind its
schedule.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("hit_serving", "cold_learn", "churn_mix")
SETUP_REPS = 5
# Open-loop rates (requests/s). hit_serving runs at ~20% of its closed-loop
# hit rate on the reference host; churn_mix keeps the two workers well below
# saturation so hits mostly find a free worker (see README.md).
HIT_OPEN_RATE = 5000.0
CHURN_RATE = 36.0
# An open-loop generator is behind its schedule, and the run measured the
# generator rather than the daemon, when its median send is this late...
LATE_P50_LIMIT_US = 1000.0
# ...or its 99th percentile this late. A host stall of a few ms delays a
# few percent of the sends and the daemon alike; it is not the generator
# falling behind.
LATE_P99_LIMIT_US = 50000.0
EPS = 0.3
# Estimate query variants: (quantile, range) counts taken as prefixes of a
# key's query pools. Variant 0 asks the whole pool, so a miss on it answers
# every query the other variants ask.
VARIANTS = ((9, 5), (1, 0), (3, 1), (6, 3))

E2E_UNITS = {
    "service_p50_ms": "ms",
    "cpu_us_per_request": "us",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}
# The phase that gives the daemon CPU time per request, and the phase whose
# requests give the service-time median (see README.md).
MAIN_PHASE = {"hit_serving": "closed", "cold_learn": "closed", "churn_mix": "open"}
SERVICE_PHASE = {"hit_serving": "open", "cold_learn": "closed", "churn_mix": "open"}

KINDS = ("learn", "estimate", "test", "property-test", "closeness")
CLASSES = ("hit", "learn", "upload", "test", "ptest", "closeness")
# Per-layer metrics timed by histkd_bench_trace (median per call).
TRACE_LAYERS = (
    ("api.parse_us", "us"),
    ("api.build_spec_us", "us"),
    ("api.synopsis_key_us", "us"),
    ("api.write_response_us", "us"),
    ("api.response_bytes", "bytes"),
    ("api.parse_upload_ms", "ms"),
    ("serve.resolve_us", "us"),
    ("serve.resolve_upload_ms", "ms"),
    ("dist.scan_dataset_ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("dist.sampler_build_ms", "ms"),
    ("stream.sketch_parse_ms", "ms"),
    ("serve.cache_lookup_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("histogram.reduce_us", "us"),
    ("histogram.to_distribution_us", "us"),
    ("dist.quantile_us", "us"),
    ("sample.estimator_draw_ms", "ms"),
    ("core.greedy_ms", "ms"),
    ("core.candidates_per_iter", "count"),
    ("core.iterations", "count"),
    ("stats.piece_cost_ns", "ns"),
    ("sample.test_draw_ms", "ms"),
    ("core.test_decide_ms", "ms"),
    ("core.ptest_verify_ms", "ms"),
    ("core.closeness_decide_ms", "ms"),
) + tuple((f"engine.run_ms.{k}", "ms") for k in KINDS) + tuple(
    (f"engine.samples_per_run.{k}", "count") for k in KINDS)


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds histkd + the benchmark programs; returns (bin dir, stamp)."""
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "tools" / "histkd.cc").is_file()
            and (ROOT / "src").is_dir()):
        die("no histk source tree next to perfbench/ (run from a repository checkout)")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").is_file():
            rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(bdir),
                                  "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if rc != 0:
                die(f"cmake configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(["cmake", "--build", str(bdir), "-j", jobs, "--target", "histkd",
                              "histkd_bench_load", "histkd_bench_trace"], stdout=out, stderr=out)
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        die("build failed")
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            name, _, value = line.partition("=")
            cache[name.split(":")[0]] = value
    stamp = host_stamp(cache)
    if stamp["cmake_build_type"] != "Release":
        die(f"refusing to report from a {stamp['cmake_build_type']!r} build")
    if stamp["histk_enable_checks"] not in ("OFF", "0", "FALSE", ""):
        die("refusing to report from a build with HISTK_ENABLE_CHECKS on")
    return bdir, stamp


def host_stamp(cache):
    cpu, mhz = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
            if line.startswith("cpu MHz") and mhz == "unknown":
                mhz = line.split(":", 1)[1].strip()
    except OSError:
        pass
    try:
        gxx = subprocess.run(["g++", "--version"], capture_output=True, text=True).stdout
        gxx = gxx.splitlines()[0] if gxx else "unknown"
    except OSError:
        gxx = "unknown"
    commit = ""
    try:
        # Only this tree's own repository counts, not one it is nested in.
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True).stdout.strip()
        if top and Path(top).resolve() == ROOT:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "mhz": mhz,
        "compiler": gxx,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "histk_simd": cache.get("HISTK_SIMD", ""),
        "histk_enable_checks": cache.get("HISTK_ENABLE_CHECKS", "OFF"),
        "git_commit": commit or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the daemon's sources: the build identity when no git."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


# ------------------------------------------------------------- workloads

class Gen:
    """Writes datasets, templates and the plan for one workload + seed."""

    def __init__(self, rundir, seed):
        self.dir = rundir
        self.rng = random.Random(seed)
        self.datasets = []   # (kind, file, n, items)
        self.templates = []  # tsv lines
        (rundir / "data").mkdir(parents=True)

    # -- datasets

    def khist_items(self, n, count):
        """`count` items from a random 4..8-piece histogram over [0, n)."""
        rng = self.rng
        pieces = rng.randint(4, 8)
        cuts = sorted(rng.sample(range(1, n), pieces - 1)) + [n]
        weights, lo = [], 0
        for hi in cuts:
            w = rng.uniform(0.2, 1.0)
            weights.extend([w] * (hi - lo))
            lo = hi
        return rng.choices(range(n), weights=weights, k=count)

    def add_items(self, n, count):
        idx = len(self.datasets)
        path = f"data/d{idx}.txt"
        items = self.khist_items(n, count)
        (self.dir / path).write_text("\n".join(map(str, items)) + "\n")
        self.datasets.append(("items", path, n, items))
        return idx

    def add_sketch(self, count):
        """A sketch over [0, 128): values below 2^7 are exact log buckets."""
        idx = len(self.datasets)
        path = f"data/s{idx}.sketch"
        counts = [0] * 128
        for v in self.khist_items(128, count):
            counts[v] += 1
        lines = ["histk-telemetry-histogram v1",
                 f"mantissa_bits 7 buckets {sum(1 for c in counts if c)} total {count}"]
        lines += [f"{v} {c}" for v, c in enumerate(counts) if c]
        (self.dir / path).write_text("\n".join(lines) + "\n")
        self.datasets.append(("sketch", path, 128, None))
        return idx

    def domain(self, ds):
        return self.datasets[ds][2]

    def ref(self, ds, load, inline=False):
        kind, path, _, items = self.datasets[ds]
        if not load:
            return {"fingerprint": f"@FP{ds}@"}
        if kind == "sketch":
            return {"sketch": path}
        if inline:
            return {"items": items}
        return {"path": path}

    # -- templates

    def template(self, key, kind, ds, load, expect, body, inline=False, other=None,
                 other_load=False, other_inline=False):
        req = {"kind": kind}
        req.update(body)
        if self.datasets[ds][0] == "items":
            req["n"] = self.domain(ds)
        req["dataset"] = self.ref(ds, load, inline)
        if other is not None:
            req["other"] = self.ref(other, other_load, other_inline)
        text = json.dumps(req, separators=(", ", ": "))
        self.templates.append(f"{key}\t{kind}\t{'load' if load else 'fp'}\t{expect}\t{text}")
        return len(self.templates) - 1

    def query_pools(self, ds):
        """Per-key query pools: 9 quantile levels and 5 ranges."""
        n = self.domain(ds)
        qs = [round(self.rng.uniform(0.01, 0.99), 3) for _ in range(9)]
        ranges = []
        for _ in range(5):
            a, b = sorted(self.rng.sample(range(n), 2))
            ranges.append([a, b])
        return qs, ranges

    @staticmethod
    def estimate_body(key_params, qs, ranges):
        body = dict(key_params)
        body["quantiles"] = qs
        body["ranges"] = ranges
        return body

    def probes(self, a, b, sketch):
        """Post-phase sends that make every layer run on every workload: a
        test uploading a small inline dataset, a test on a sketch file, a
        fresh learn miss, the same key estimated by fingerprint and with the
        data attached (hits), a property-test and a closeness test."""
        small = self.add_items(256, 2000)
        common = {"k": 4, "eps": EPS, "scale": 0.25, "seed": 1}
        fresh = dict(common, seed=self.rng.randint(10**7, 10**8))
        test = dict(common, norm="l2")
        query = dict(fresh, quantiles=[0.5])
        key = 10**6  # a key no workload uses
        probes = [
            (self.template(-1, "test", small, True, "b", test, inline=True), "b"),
            (self.template(-1, "test", sketch, True, "b", test), "b"),
            (self.template(key, "learn", a, False, "m", fresh), "m"),
            (self.template(key, "estimate", a, False, "h", query), "h"),
            (self.template(key, "estimate", a, True, "h", query), "h"),
            (self.template(-1, "property-test", b, False, "b", common), "b"),
            (self.template(-1, "closeness", a, False, "b", common, other=b), "b"),
        ]
        return " ".join(f"{t}:{e}" for t, e in probes)

    def write(self, plan_lines, schedules):
        with open(self.dir / "datasets.tsv", "w") as f:
            for i, (kind, path, n, _) in enumerate(self.datasets):
                f.write(f"{i}\t{kind}\t{path}\t{n}\n")
        (self.dir / "templates.tsv").write_text("\n".join(self.templates) + "\n")
        for name, seq in schedules.items():
            (self.dir / name).write_text(" ".join(map(str, seq)) + "\n")
        (self.dir / "plan.txt").write_text("\n".join(plan_lines) + "\n")


def sends(indices, expect):
    return " ".join(f"{i}:{expect}" for i in indices)


def gen_hit_serving(g, seconds):
    """4 datasets x 8 synopsis keys, all warmed; hits by fingerprint."""
    dsets = [g.add_items(256, 20000) for _ in range(3)] + [g.add_sketch(20000)]
    seeds = [g.rng.randint(1, 10**6) for _ in range(2)]
    uploads, misses, hits = [], [], []
    key = 0
    for ds in dsets:
        for k in (4, 6):
            for scale in (0.1, 0.25):
                for seed in seeds:
                    params = {"k": k, "eps": EPS, "scale": scale, "seed": seed}
                    qs, ranges = g.query_pools(ds)
                    variants = [g.estimate_body(params, qs[:nq], ranges[:nr])
                                for nq, nr in VARIANTS]
                    if key % 8 == 0:  # a dataset's first key uploads it
                        uploads.append(g.template(key, "estimate", ds, True, "m", variants[0]))
                    else:
                        misses.append(g.template(key, "estimate", ds, False, "m", variants[0]))
                    est = [g.template(key, "estimate", ds, False, "h", v) for v in variants]
                    learn = g.template(key, "learn", ds, False, "h", params)
                    hits.append((est, learn))
                    key += 1
    all_hits = [t for est, learn in hits for t in est + [learn]]
    closed = []
    for _ in range(100000):
        est, learn = g.rng.choice(hits)
        closed.append(learn if g.rng.random() < 0.2 else g.rng.choice(est))
    n_open = int(HIT_OPEN_RATE * seconds * 0.5) + 16
    open_ = []
    for _ in range(n_open):
        est, learn = g.rng.choice(hits)
        open_.append(learn if g.rng.random() < 0.2 else g.rng.choice(est))
    plan = [
        f"setup_reps {SETUP_REPS}",
        "stage " + sends(uploads, "m"),
        "stage " + sends(misses, "m"),
        "stage " + sends(all_hits, "h"),
        # One connection with 64 in flight: the workers seldom wait for
        # work, and the client is a single busy thread (see README.md on
        # busy vCPUs).
        "closed 0.5 64 1 closed.sched",
        f"open 0.5 {HIT_OPEN_RATE} open.sched",
        "post " + g.probes(dsets[0], dsets[1], dsets[3]),
    ]
    g.write(plan, {"closed.sched": closed, "open.sched": open_})


def gen_cold_learn(g, seconds):
    """Every measured request is a fresh-seed learn or estimate miss."""
    dsets = [g.add_items(256, 20000) for _ in range(4)]
    base = g.rng.randint(10**6, 10**8)
    uploads = [g.template(-1, "estimate", ds, True, "m",
                          {"k": 4, "eps": EPS, "scale": 0.1, "seed": base - 1 - i,
                           "quantiles": [0.5]}) for i, ds in enumerate(dsets)]
    # The (kind, k, scale) mix cycles in a fixed order, so every run times
    # the same blend of learn sizes; datasets and query pools are seeded.
    # A k=6 learn costs ~1.6x a k=4 one; with equal weights the median
    # would sit in the gap between the two and jump from run to run, so the
    # blend is weighted to put it inside the k=4, scale 0.25 learns.
    weights = {(4, 0.1): 2, (4, 0.25): 5, (4, 1.0): 1, (6, 0.1): 1, (6, 0.25): 1, (6, 1.0): 1}
    combos = [(kind, k, scale) for kind in ("learn", "estimate")
              for (k, scale), w in weights.items() for _ in range(w)]
    sched = []
    for i in range(4000):
        ds = g.rng.choice(dsets)
        kind, k, scale = combos[i % len(combos)]
        params = {"k": k, "eps": EPS, "scale": scale, "seed": base + i}
        if kind == "learn":
            sched.append(g.template(i, "learn", ds, False, "m", params))
        else:
            qs, ranges = g.query_pools(ds)
            sched.append(g.template(i, "estimate", ds, False, "m",
                                    g.estimate_body(params, qs[:3], ranges[:2])))
    plan = [
        f"setup_reps {SETUP_REPS}",
        "stage " + sends(uploads, "m"),
        "closed 1.0 1 2 learn.sched",
        # Hundreds of misses later the first four keys are long evicted from
        # the 64-entry cache, so these re-run the seeded learns, which must
        # return the same responses (tilings included) as the first runs.
        "post " + sends(sched[:4], "a") + " " + g.probes(dsets[0], dsets[1], g.add_sketch(20000)),
        "recheck_last 8",
    ]
    g.write(plan, {"learn.sched": sched})


def gen_churn_mix(g, seconds):
    """24 datasets, 256 Zipf(1.1) keys over a 64-entry cache, all kinds.

    The traffic pattern (which key and kind each request carries) is a
    fixed trace; --seed varies the data: dataset contents, each key's learn
    seed and query pools. At a few hundred requests a run, a seeded pattern
    would change how many requests miss by ±15% from seed to seed, and the
    tail with it, which would drown the changes the workload is meant to
    catch.
    """
    rng = g.rng
    trace = random.Random(0x6368726E)
    # Hot set (resident, fingerprint refs): two item files, a sketch and a
    # small inline dataset. Cold set: 18 item files (1e4..1e5 items), one
    # sketch, one inline dataset — always sent by path / sketch / items.
    hot = [g.add_items(256, 10000), g.add_items(256, 12000), g.add_sketch(20000),
           g.add_items(256, 2000)]
    inline = {hot[3]}
    cold = [g.add_items(256, int(10000 * 10 ** (i / 17))) for i in range(18)]
    cold += [g.add_sketch(20000), g.add_items(256, 2000)]
    inline.add(cold[-1])

    # Key i has a fixed (dataset, k, scale); only its learn seed and query
    # pools come from --seed, so every seed serves the same blend of learn
    # sizes.
    slots = [ds for ds in hot for _ in range(8)] + [cold[i % len(cold)] for i in range(224)]
    seeds = rng.sample(range(1, 10**6), len(slots))
    keys = []  # (dataset, params, query pools)
    for i, ds in enumerate(slots):
        params = {"k": (4, 6)[i % 2], "eps": EPS, "scale": (0.1, 0.25)[i // 2 % 2],
                  "seed": seeds[i]}
        keys.append((ds, params, g.query_pools(ds)))
    # Zipf ranks: the 32 hot keys take ranks 1..32, in the trace's order.
    hot_keys = list(range(32))
    cold_keys = list(range(32, 256))
    trace.shuffle(hot_keys)
    trace.shuffle(cold_keys)
    by_rank = hot_keys + cold_keys
    zipf = [1.0 / (r + 1) ** 1.1 for r in range(256)]

    cache = {}

    def tmpl(key_id, kind, variant, load):
        tag = (key_id, kind, variant, load)
        if tag not in cache:
            ds, params, (qs, ranges) = keys[key_id]
            if kind == "learn":
                body = params
            else:
                nq, nr = VARIANTS[variant]
                body = g.estimate_body(params, qs[:nq], ranges[:nr])
            cache[tag] = g.template(key_id, kind, ds, load, "a", body, inline=ds in inline)
        return cache[tag]

    # Dataset-store LRU simulation (capacity 16, most recent first): a hot
    # dataset is sent by fingerprint only while it sits among the 8 most
    # recent, so the two workers reordering a few requests can never make a
    # fingerprint ref miss. Everything else carries its dataset.
    lru = []

    def touch(ds):
        if ds in lru:
            lru.remove(ds)
        lru.insert(0, ds)
        del lru[16:]

    def resident(ds):
        return ds in hot and ds in lru[:8]

    # Warm-up: upload every dataset with a small test (cold first, so the
    # hot set ends up resident), then warm the 32 hot keys.
    stage1 = []
    for ds in cold + hot:
        stage1.append(g.template(-1, "test", ds, True, "b",
                                 {"k": 4, "eps": EPS, "scale": 0.01, "seed": 1},
                                 inline=ds in inline))
        touch(ds)
    stage2 = []
    for key_id in hot_keys:
        ds = keys[key_id][0]
        stage2.append(tmpl(key_id, "estimate", 0, not resident(ds)))
        touch(ds)

    hot_items = [hot[0], hot[1], hot[3]]
    test_seeds = rng.sample(range(1, 10**6), 4)
    common = {"eps": EPS, "scale": 0.25}
    sched = []
    n_req = int(CHURN_RATE * seconds) + 8
    # Exact kind proportions per 100 requests, in the trace's order.
    mix = ["estimate"] * 70 + ["learn"] * 15 + ["test"] * 8 + ["property-test"] * 3 + \
        ["closeness"] * 2 + ["upload"] * 2
    kinds = []
    while len(kinds) < n_req:
        block = list(mix)
        trace.shuffle(block)
        kinds.extend(block)
    # Key popularity: each rank appears round(Zipf share) times per block
    # of 1000 synopsis requests, in the trace's order.
    popular = []

    def next_rank():
        if not popular:
            block = [r for r in range(256) for _ in range(round(1000 * zipf[r] / sum(zipf)))]
            trace.shuffle(block)
            popular.extend(block)
        return popular.pop()

    for kind in kinds[:n_req]:
        if kind in ("estimate", "learn"):
            key_id = by_rank[next_rank()]
            ds = keys[key_id][0]
            sched.append(tmpl(key_id, kind, trace.randrange(4), not resident(ds)))
            touch(ds)
        elif kind == "upload":
            # A popular hot key sent with its dataset attached: ingest + hit.
            key_id = hot_keys[trace.randrange(4)]
            sched.append(tmpl(key_id, "estimate", trace.randrange(4), True))
            touch(keys[key_id][0])
        else:
            a, b = trace.sample(hot_items, 2)
            body = dict(common, k=trace.choice((4, 6)), seed=test_seeds[trace.randrange(4)])
            if kind == "test":
                body["norm"] = "l2"
            load_a = not resident(a)
            load_b = kind == "closeness" and not resident(b)
            tag = (kind, a, b, body["k"], body["seed"], load_a, load_b)
            if tag not in cache:
                cache[tag] = g.template(-1, kind, a, load_a, "b", body, inline=a in inline,
                                        other=b if kind == "closeness" else None,
                                        other_load=load_b, other_inline=b in inline)
            sched.append(cache[tag])
            touch(a)
            if kind == "closeness":
                touch(b)
    plan = [
        f"setup_reps {SETUP_REPS}",
        "stage " + sends(stage1, "b"),
        "stage " + sends(stage2, "m"),
        f"open 1.0 {CHURN_RATE} churn.sched",
    ]
    g.write(plan, {"churn.sched": sched})


GENERATORS = {
    "hit_serving": gen_hit_serving,
    "cold_learn": gen_cold_learn,
    "churn_mix": gen_churn_mix,
}


# ---------------------------------------------------------------- metrics

def lat(summary, name):
    return summary["latency"].get(name, {})


def end_to_end(workload, s):
    """The four end-to-end metrics; README.md has why these and not the
    client-observed figures (printed in the table) carry the bounds."""
    service = lat(s, f"{SERVICE_PHASE[workload]}.any")
    main = s["phases"][MAIN_PHASE[workload]]
    if not service or main["completed"] == 0:
        die("no successful requests to report", 1)
    return {
        "service_p50_ms": service["serve_p50_ms"],
        "cpu_us_per_request": main["daemon_cpu_s"] * 1e6 / main["completed"],
        "setup_s": statistics.median(s["setup_s"]),
        "rss_peak_mb": s["rss_peak_kb"] / 1024.0,
    }


def named_table(workload, s):
    """The workload's metrics by their serving names: (name, value, unit, n)."""
    rows = []

    def latency(name, key, field, unit):
        l = lat(s, key)
        if l:
            scale = 1000.0 if unit == "ms" else 1.0
            rows.append((name, l[field] / scale, unit, int(l["n"])))

    if workload == "hit_serving":
        c = s["phases"]["closed"]
        rows.append(("hit_rps", c["per_s"], "1/s", int(c["completed_in_window"])))
        latency("hit_p50_us", "open.hit", "p50_us", "us")
        latency("hit_p90_us", "open.hit", "p90_us", "us")
        latency("hit_p99_us", "open.hit", "p99_us", "us")
    elif workload == "cold_learn":
        latency("learn_p50_ms", "closed.learn", "p50_us", "ms")
        latency("learn_p90_ms", "closed.learn", "p90_us", "ms")
        c = s["phases"]["closed"]
        rows.append(("learn_per_s", c["per_s"], "1/s", int(c["completed_in_window"])))
    else:
        latency("hit_p50_us", "open.hit", "p50_us", "us")
        latency("hit_p90_us", "open.hit", "p90_us", "us")
        latency("hit_p99_us", "open.hit", "p99_us", "us")
        latency("learn_p50_ms", "open.learn", "p50_us", "ms")
        latency("upload_p50_ms", "open.upload", "p50_us", "ms")
        latency("test_p50_ms", "open.test", "p50_us", "ms")
        latency("ptest_p50_ms", "open.ptest", "p50_us", "ms")
        latency("closeness_p50_ms", "open.closeness", "p50_us", "ms")
    attempted = max(1, int(s["attempted"]))
    rows.append(("failed_share", s["failed"] / attempted, "share", attempted))
    rows.append(("setup_s", statistics.median(s["setup_s"]), "s", len(s["setup_s"])))
    rows.append(("rss_peak_mb", s["rss_peak_kb"] / 1024.0, "MB", 1))
    op = s["phases"].get("open")
    if op:
        rows.append(("gen_late_p99_us", op["late_p99_us"], "us", int(op["sent"])))
    for name, phase in s["phases"].items():
        rows.append((f"host_steal_share.{name}", phase["steal_share"], "share", 10))
    return rows


def per_layer(workload, s, trace, stats):
    out = {}
    layers = trace["layers"]
    for name, unit in TRACE_LAYERS:
        entry = layers.get(name)
        if entry is None:
            print(f"perfbench: warning: layer {name} was not exercised", file=sys.stderr)
        out[name] = (entry["median"] if entry else 0.0, unit)
    cache, datasets = stats["cache"], stats["datasets"]
    lookups = cache["hits"] + cache["misses"]
    out["serve.cache_hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "share")
    out["serve.cache_evictions"] = (cache["evictions"], "count")
    out["serve.dataset_loads"] = (datasets["loads"], "count")
    out["serve.dataset_evictions"] = (datasets["evictions"], "count")
    out["serve.governor_rejects"] = (stats["governor"]["rejected"], "count")
    for cls in CLASSES:
        l = lat(s, f"all.{cls}")
        out[f"histkd.serve_ms.{cls}"] = (l.get("serve_p50_ms", 0.0), "ms")
    measured = [lat(s, f"{p}.hit") for p in ("open", "closed")]
    measured = [m for m in measured if m] or [lat(s, "all.hit")]
    out["histkd.wait_us"] = (measured[0].get("wait_p50_us", 0.0), "us")
    # Coverage: the per-request sum of the layers inside the serve_ms window
    # against the untraced daemon's serve_ms median (unattributed), the
    # traced request time against it (overhead), and the part of each traced
    # request no timed call covers (uncovered, per-request median).
    for cls in ("hit", "learn"):
        cov = trace["coverage"].get(cls, {})
        untraced = lat(s, f"all.{cls}").get("serve_p50_ms", 0.0)
        shares = (0.0, 0.0, 0.0)
        if cov and untraced > 0:
            shares = (1.0 - cov["layers_p50_ms"] / untraced,
                      cov["serve_p50_ms"] / untraced - 1.0, cov["uncovered_p50"])
        for name, value in zip(("unattributed", "overhead", "uncovered"), shares):
            out[f"trace.{name}_share.{cls}"] = (value, "share")
    out["trace.replayed_requests"] = (trace["counters"]["replayed_measured"], "count")
    return out


# ------------------------------------------------------------------- main

def run_checked(cmd, cwd, what, deadline):
    # A session of its own, so a timeout kills the program and the daemon
    # it started together.
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{what} timed out")
    if proc.returncode != 0:
        sys.stderr.write(out[-2000:] + err[-4000:])
        die(f"{what} exited {proc.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        die("--seconds must be positive")

    bdir, stamp = build()
    # A run must end within 180 s of its build.
    deadline = time.monotonic() + 170
    rundir = bdir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    GENERATORS[args.workload](Gen(rundir, args.seed), args.seconds)

    trace_reserve = args.seconds / 2 + 20 if args.trace else 0
    run_checked([str(bdir / "histkd_bench_load"), "--histkd", str(bdir / "histk" / "histkd"),
                 "--seconds", str(args.seconds), "--out", "summary.json"],
                rundir, "histkd_bench_load", deadline - trace_reserve)
    s = json.loads((rundir / "summary.json").read_text())
    failures, wrong = s["failures"], int(s["wrong"])
    failed = int(s["failed"])

    # Schema checks of the kept transcript sample and the stats payload.
    stats_env = json.loads(s["stats_response"])
    (rundir / "stats.json").write_text(json.dumps(stats_env["stats"]))
    for mode, path in (("--response", "transcript.ndjson"), ("--stats", "stats.json")):
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "check_report_json.py"),
                               mode, str(rundir / path)], capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            wrong += 1
            failures.append(f"check_report_json {mode}: {(proc.stdout + proc.stderr).strip()}")

    op = s["phases"].get("open")
    if op and (op["late_p50_us"] > LATE_P50_LIMIT_US or op["late_p99_us"] > LATE_P99_LIMIT_US):
        die(f"invalid run: the generator fell behind its schedule (send lateness p50 "
            f"{op['late_p50_us']:.0f} us, p99 {op['late_p99_us']:.0f} us)", 3)

    print(f"# histkd benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host/build: " + json.dumps(stamp))
    for name, value, unit, n in named_table(args.workload, s):
        print(f"{name:24s} {value:14.6g} {unit:6s} n={n}")

    if args.trace:
        counts = ",".join(str(int(s["phases"][p]["sent"])) for p in
                          [ln.split()[0] for ln in (rundir / "plan.txt").read_text().splitlines()
                           if ln.startswith(("closed", "open"))])
        # The replay gets half the run's length: its per-call medians settle
        # long before that, and a traced run stays well inside its time.
        run_checked([str(bdir / "histkd_bench_trace"), "--seconds", str(args.seconds / 2),
                     "--counts", counts, "--out", "trace.json"], rundir, "histkd_bench_trace",
                    deadline)
        trace = json.loads((rundir / "trace.json").read_text())
        if trace["counters"]["mismatches"]:
            failed += int(trace["counters"]["mismatches"])
            wrong += int(trace["counters"]["mismatches"])
            failures.extend(trace["mismatch_messages"])
        metrics = per_layer(args.workload, s, trace, stats_env["stats"])
    else:
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in end_to_end(args.workload, s).items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for msg in failures:
        print(f"# FAILED: {msg}")
    correct = wrong == 0
    if correct:
        shutil.rmtree(rundir, ignore_errors=True)
    else:
        print(f"perfbench: answer checks failed; inputs kept in {rundir}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(s["attempted"])),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
