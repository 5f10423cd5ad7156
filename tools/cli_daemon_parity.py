#!/usr/bin/env python3
"""CLI <-> daemon parity: histk_cli and histkd give the same answer for the
same data set.

Usage: cli_daemon_parity.py PATH_TO_HISTK_CLI PATH_TO_HISTKD

Both frontends read item files through one reader and one policy
(ParseDataset in src/dist/io.h) and build the same oracle over it, so:

  1. reports — for each of the six engine kinds (learn, test, estimate,
     property-test, closeness, compare), `histk_cli <kind> --json` on a
     generated data set prints, byte for byte, the "report" member of the
     envelope histkd (stdio mode) answers for the same knobs and a
     {"path": ...} ref to the same file, with every "wall_ms" masked. Each
     request runs in a fresh daemon so no answer comes from its cache.
  2. hostile inputs — an out-of-domain item, a negative item, a bogus
     token, more items than a small held-item cap (as a file and, to the
     daemon, as inline "items"), an empty file, and closeness over two
     files whose inferred domains differ. The CLI exit code must match the
     envelope status: parse-error <-> 3, invalid-argument <-> 2.
  3. ingest — `histk_cli ingest` refuses a negative value with the parse
     error (exit 3) `histk_cli learn` gives the same input.
  4. flags — `histkd --retry-after-ms -1` is a usage error (exit 2), not a
     failed check.

Exits 1 on the first mismatch, naming the case.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

EXIT_FOR_STATUS = {"parse-error": 3, "invalid-argument": 2}
WALL_MS = re.compile(r'"wall_ms": [-+.0-9eE]+')
KNOBS = {"k": 6, "eps": 0.3, "scale": 0.5, "seed": 5}


def fail(msg):
    print(f"cli_daemon_parity: {msg}", file=sys.stderr)
    sys.exit(1)


def mask(report_json):
    return WALL_MS.sub('"wall_ms": X', report_json.strip())


def cli_flags(request):
    """The histk_cli argv that asks what `request` asks."""
    argv = [request["kind"]]
    for key in ("k", "eps", "scale", "seed", "n", "norm", "reservoir"):
        if key in request:
            argv += ["--" + key, str(request[key])]
    for q in request.get("quantiles", []):
        argv += ["--quantile", str(q)]
    for lo, hi in request.get("ranges", []):
        argv += ["--range", f"{lo}:{hi}"]
    if "other" in request:
        argv += ["--other", request["other"]["path"]]
    return argv + ["--json"]


def run_cli(cli, request):
    """(exit code, stdout) of histk_cli with the request's file on stdin."""
    with open(request["dataset"]["path"], "rb") as stdin:
        proc = subprocess.run([cli] + cli_flags(request), stdin=stdin,
                              capture_output=True, timeout=300)
    return proc.returncode, proc.stdout.decode()


def run_daemon(daemon, request):
    """(envelope dict, raw envelope line) from a fresh stdio histkd."""
    lines = json.dumps(dict(request, id="parity")) + "\n" + \
        json.dumps({"id": "bye", "kind": "shutdown"}) + "\n"
    proc = subprocess.run([daemon], input=lines.encode(), capture_output=True,
                          timeout=300)
    if proc.returncode != 0:
        fail(f"histkd exited {proc.returncode}: {proc.stderr.decode()}")
    for line in proc.stdout.decode().splitlines():
        envelope = json.loads(line)
        if envelope.get("id") == "parity":
            return envelope, line
    fail(f"histkd sent no response for {request}")


def report_member(line):
    """The envelope's "report" text, verbatim (it is the last member)."""
    marker = '"report": '
    at = line.find(marker)
    if at < 0:
        return None
    return line[at + len(marker):line.rstrip().rfind("}")]


def check_reports(cli, daemon, items, other):
    cases = [
        {"kind": "learn"},
        {"kind": "test", "norm": "l2"},
        {"kind": "estimate", "quantiles": [0.5, 0.9], "ranges": [[0, 63]]},
        {"kind": "property-test"},
        {"kind": "closeness", "n": 256, "other": {"path": other}},
        {"kind": "compare"},
    ]
    for case in cases:
        request = dict(KNOBS, dataset={"path": items}, **case)
        code, stdout = run_cli(cli, request)
        envelope, line = run_daemon(daemon, request)
        if envelope["status"] != "ok":
            fail(f"{case['kind']}: histkd answered {envelope['status']}: "
                 f"{envelope.get('error')}")
        if code not in (0, 1):
            fail(f"{case['kind']}: histk_cli exited {code}")
        if mask(stdout) != mask(report_member(line)):
            fail(f"{case['kind']}: CLI and daemon reports differ\n"
                 f"  cli:    {mask(stdout)}\n"
                 f"  daemon: {mask(report_member(line))}")
        print(f"report parity ok: {case['kind']}")


def check_hostile(cli, daemon, tmp, items_text):
    def write(name, text):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    small_items = [i % 100 for i in range(500)]
    small = write("small.txt", "".join(f"{i}\n" for i in small_items))
    # The daemon gets the last case's items inline; the CLI reads the file.
    cases = [
        ("out-of-domain item", {"n": 256},
         write("oob.txt", items_text + "300\n")),
        ("negative item", {}, write("neg.txt", items_text + "-5\n")),
        ("bogus token", {}, write("bogus.txt", "1\n2\nbogus\n")),
        ("over the held-item cap", {"reservoir": 100}, small),
        ("empty file", {}, write("empty.txt", "")),
        ("unequal inferred domains",
         {"kind": "closeness", "other": {"path": small}},
         os.path.join(tmp, "items.txt")),
        ("inline items over the held-item cap", {"reservoir": 100}, small),
    ]
    for name, extra, path in cases:
        request = dict(KNOBS, kind="learn", dataset={"path": path})
        request.update(extra)
        code, _ = run_cli(cli, request)
        if name.startswith("inline"):
            request = dict(request, dataset={"items": small_items})
        envelope, _ = run_daemon(daemon, request)
        status = envelope["status"]
        if status not in EXIT_FOR_STATUS:
            fail(f"{name}: histkd answered {status}, want a typed rejection")
        if code != EXIT_FOR_STATUS[status]:
            fail(f"{name}: histk_cli exited {code} but histkd answered "
                 f"{status} ({envelope.get('error')})")
        print(f"hostile parity ok: {name} -> {status} / exit {code}")


def check_ingest(cli):
    values = b"5\n-3\n7\n"
    codes = {}
    for argv in (["ingest"], ["learn", "--k", "2", "--eps", "0.3"]):
        proc = subprocess.run([cli] + argv, input=values, capture_output=True,
                              timeout=60)
        codes[argv[0]] = proc.returncode
    if codes != {"ingest": 3, "learn": 3}:
        fail(f"a negative value should exit 3 in ingest and learn, got {codes}")
    print("ingest check ok: a negative value -> exit 3, as in learn")


def check_daemon_flags(daemon):
    proc = subprocess.run([daemon, "--retry-after-ms", "-1"],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=60)
    if proc.returncode != 2:
        fail(f"histkd --retry-after-ms -1 exited {proc.returncode}, want 2")
    print("flag check ok: histkd --retry-after-ms -1 -> exit 2")


def main():
    if len(sys.argv) != 3:
        fail("usage: cli_daemon_parity.py HISTK_CLI HISTKD")
    cli, daemon = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, seed in (("items.txt", 5), ("other.txt", 6)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as out:
                subprocess.run(
                    [cli, "gen", "--family", "khist", "--n", "256", "--k", "6",
                     "--samples", "5000", "--seed", str(seed)],
                    stdout=out, stderr=subprocess.DEVNULL, check=True,
                    timeout=60)
        with open(paths["items.txt"]) as f:
            items_text = f.read()
        check_reports(cli, daemon, paths["items.txt"], paths["other.txt"])
        check_hostile(cli, daemon, tmp, items_text)
        check_ingest(cli)
        check_daemon_flags(daemon)
    print("cli/daemon parity ok")


if __name__ == "__main__":
    main()
