#!/usr/bin/env python3
"""Run clang-tidy over src/ using the repo's .clang-tidy config.

The container/CI split: clang-tidy is not part of the baked toolchain
on every dev machine, so this wrapper *detects* the binary and exits 0
with a notice when it is absent (the pure-Python tools/dhl_analyze.py
gate still runs everywhere).  CI installs
clang-tidy and therefore always gets the full check.

The exit summary reports per-file diagnostic counts so a CI log shows
*where* the findings cluster without scrolling the full dump, and —
mirroring bench_util's parseArgs — an unknown ``--flag`` is a hard
error (exit 2), never silently ignored.

Usage:
  tools/run_clang_tidy.py [--build-dir build] [files...]
  tools/run_clang_tidy.py --self-test

With no files, lints every .cpp under src/.  Requires a compile
database (cmake -DCMAKE_EXPORT_COMPILE_COMMANDS=ON).
"""

import os
import re
import shutil
import subprocess
import sys

# A clang-tidy diagnostic line: "path:line:col: warning: ... [check]".
DIAG_RE = re.compile(r"^(?:([^:\n]+):\d+:\d+:\s+)?(warning|error):",
                     re.MULTILINE)

KNOWN_FLAGS = ("--build-dir", "--binary")
KNOWN_SWITCHES = ("--self-test", "--help", "-h")


def parse_args(argv):
    """Hand-rolled parse mirroring bench_util parseArgs: --flag VALUE
    and --flag=VALUE forms, positional file arguments, and exit 2 with
    "error: unknown flag '...'" on anything else starting with --."""
    opts = {"build_dir": "build", "binary": None, "self_test": False,
            "files": []}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--help", "-h"):
            print(__doc__)
            sys.exit(0)
        elif arg == "--self-test":
            opts["self_test"] = True
        elif arg == "--build-dir" and i + 1 < len(argv):
            i += 1
            opts["build_dir"] = argv[i]
        elif arg.startswith("--build-dir="):
            opts["build_dir"] = arg[len("--build-dir="):]
        elif arg == "--binary" and i + 1 < len(argv):
            i += 1
            opts["binary"] = argv[i]
        elif arg.startswith("--binary="):
            opts["binary"] = arg[len("--binary="):]
        elif arg.startswith("--"):
            sys.stderr.write("error: unknown flag '%s'\n" % arg)
            sys.exit(2)
        else:
            opts["files"].append(arg)
        i += 1
    return opts


def count_diagnostics(output):
    """Per-file diagnostic counts from clang-tidy's stdout.  Lines
    without a file prefix (e.g. the generic "N warnings generated")
    are not diagnostics and do not count."""
    counts = {}
    for m in DIAG_RE.finditer(output):
        path = m.group(1)
        if path is None:
            continue
        counts[path] = counts.get(path, 0) + 1
    return counts


def summarize(counts, n_files):
    total = sum(counts.values())
    if not counts:
        print("run_clang_tidy: 0 diagnostics across %d files" % n_files)
        return
    for path in sorted(counts):
        print("run_clang_tidy:   %4d  %s" % (counts[path], path))
    print("run_clang_tidy: %d diagnostic(s) in %d of %d files"
          % (total, len(counts), n_files))


def self_test():
    failures = []
    checks = [0]

    def check(name, cond):
        checks[0] += 1
        if not cond:
            failures.append(name)

    # Flag parsing: both value forms, positionals, the self-test switch.
    o = parse_args(["--build-dir", "bt", "a.cpp", "b.cpp"])
    check("flag value form",
          o["build_dir"] == "bt" and o["files"] == ["a.cpp", "b.cpp"])
    o = parse_args(["--build-dir=bt2", "--binary=clang-tidy-18"])
    check("flag = form",
          o["build_dir"] == "bt2" and o["binary"] == "clang-tidy-18")
    check("self-test switch", parse_args(["--self-test"])["self_test"])

    # Unknown flags exit 2 loudly (run in-process via SystemExit; the
    # error lines themselves are muted so the self-test output stays
    # readable).
    real_stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
    try:
        for bad in ("--jobs", "--build-dri=x", "--files"):
            try:
                parse_args([bad])
                code = None
            except SystemExit as e:
                code = e.code
            check("unknown flag %s exits 2" % bad, code == 2)
    finally:
        sys.stderr.close()
        sys.stderr = real_stderr

    # Diagnostic counting on a representative clang-tidy transcript.
    out = (
        "src/dhl/track.cpp:10:5: warning: do not use magic numbers "
        "[readability-magic-numbers]\n"
        "    int x = 42;\n"
        "        ^\n"
        "src/dhl/track.cpp:20:1: error: unknown type name 'Foo' "
        "[clang-diagnostic-error]\n"
        "src/sim/simulator.cpp:3:2: warning: x [bugprone-foo]\n"
        "14 warnings generated.\n")
    c = count_diagnostics(out)
    check("per-file counts",
          c == {"src/dhl/track.cpp": 2, "src/sim/simulator.cpp": 1})
    check("summary line untallied", "14 warnings" not in repr(c))
    check("clean output", count_diagnostics("2 warnings generated.\n")
          == {})

    if failures:
        for name in failures:
            print("SELF-TEST FAIL: %s" % name)
        return 1
    print("run_clang_tidy self-test: %d checks passed" % checks[0])
    return 0


def main(argv=None):
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    if opts["self_test"]:
        return self_test()

    binary = opts["binary"] or next(
        (b for b in ("clang-tidy", "clang-tidy-18", "clang-tidy-17",
                     "clang-tidy-16", "clang-tidy-15", "clang-tidy-14")
         if shutil.which(b)), None)
    if binary is None:
        print("run_clang_tidy: clang-tidy not installed; skipping "
              "(the dhl_analyze.py gate still applies)")
        return 0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(
            os.path.join(opts["build_dir"], "compile_commands.json")):
        print("run_clang_tidy: no compile_commands.json in %s; configure "
              "with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON"
              % opts["build_dir"])
        return 2

    files = opts["files"]
    if not files:
        files = []
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(root, "src")):
            files.extend(os.path.join(dirpath, f)
                         for f in sorted(filenames) if f.endswith(".cpp"))

    cmd = [binary, "-p", opts["build_dir"], "--quiet"] + files
    print("run_clang_tidy: %s over %d files" % (binary, len(files)))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    summarize(count_diagnostics(proc.stdout), len(files))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
