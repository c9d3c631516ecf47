#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds `perfbench` (a
package of its own that depends on the repository's crates by path) into
$CARGO_TARGET_DIR, `.bench_build` by default; later calls reuse the build.
The last line of standard output is the result object. Without the
repository's sources the build fails and the script exits non-zero
without printing a result.

`--selftest` runs every workload at quick scale, traced and untraced, and
checks that the result line names every metric of BENCHMARK.json with
its unit, that `attempted` is positive and that `correct` holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {RUN_TIMEOUT_S} s: {args}")
        return 1, ""
    return done.returncode, done.stdout


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for w in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "5",
                    "--trace", trace, "--quick"]
            code, out = run(binary, args)
            lines = out.strip().splitlines()
            problems = []
            if code != 0 or not lines:
                problems.append(f"exit code {code}")
            else:
                res = json.loads(lines[-1])
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(res)}")
                if not res.get("correct") or res.get("attempted", 0) < 1:
                    problems.append(f"correct={res.get('correct')} attempted={res.get('attempted')}")
                got = res.get("metrics", {})
                want = {m["name"]: m["unit"] for m in bench[key]}
                for name, unit in want.items():
                    m = got.get(name)
                    if not isinstance(m, dict) or m.get("unit") != unit \
                            or not isinstance(m.get("value"), (int, float)):
                        problems.append(f"metric {name} [{unit}]: {m}")
                extra = sorted(set(got) - set(want))
                if extra:
                    problems.append(f"metrics not in BENCHMARK.json: {extra}")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            log(f"selftest {w['name']} trace {trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if argv == ["--selftest"]:
        return 0 if selftest(binary) else 1
    code, out = run(binary, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
