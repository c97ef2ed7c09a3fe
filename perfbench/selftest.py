#!/usr/bin/env python3
"""Self-test of the dhl benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Builds dhl_perfbench like run.py does, then shows that:
  * every metric named in BENCHMARK.json is emitted with its unit
    (end-to-end with --trace 0, per-layer with --trace 1), and the
    output checks pass;
  * the seed changes the generated inputs and the simulated outputs;
  * a corrupted expected digest fails the check: correct is false,
    failed rises and pass_frac drops below 1;
  * without the dhl sources, run.py exits non-zero and prints no result.
Exits 0 when every step passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def step(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(binary, workload, *extra, seed=1, trace=0):
    """Run one tiny workload; return (exit code, result or None, digest)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.05", "--trace", str(trace), "--scale", "tiny",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    m = re.search(r"digest ([0-9a-f]{16})", proc.stderr)
    return proc.returncode, result, m.group(1) if m else None


def metrics_match(result, spec, nonzero):
    got = result["metrics"]
    if set(got) != {m["name"] for m in spec}:
        return False
    for m in spec:
        v = got[m["name"]]
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            return False
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            return False
        if nonzero and v["value"] == 0:
            return False
    return True


def main():
    binary = run.build()
    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            code, res, _ = bench(binary, name, trace=trace)
            ok = (code == 0 and res is not None
                  and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1
                  and metrics_match(res, spec, nonzero=trace == 0))
            step(ok, f"{name} --trace {trace}: checks pass, every metric "
                     "emitted with its unit")

        inputs = [subprocess.run([str(binary), "--workload", name, "--seed",
                                  str(s), "--scale", "tiny", "--print-inputs"],
                                 capture_output=True, text=True).stdout
                  for s in (1, 1, 2)]
        step(inputs[0] == inputs[1] and inputs[0] != inputs[2],
             f"{name}: the seed changes the generated inputs")
        _, _, d1 = bench(binary, name, seed=1)
        _, _, d2 = bench(binary, name, seed=2)
        step(d1 is not None and d2 is not None and d1 != d2,
             f"{name}: the seed changes the simulated outputs")

        code, res, _ = bench(binary, name, "--expect-digest", "0" * 16)
        ok = (code != 0 and res is not None and res["correct"] is False
              and res["failed"] >= 1
              and res["metrics"]["pass_frac"]["value"] < 1.0)
        step(ok, f"{name}: a corrupted expected digest fails the check")

    # The benchmark alone, without the sources it builds, must fail.
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "serve_soak", "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    step(proc.returncode != 0 and proc.stdout.strip() == "",
         "without src/, run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
