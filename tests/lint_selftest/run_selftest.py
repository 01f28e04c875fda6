#!/usr/bin/env python3
"""Self-test for tools/lint/dpcf_lint.py, run as a ctest case.

Every rule gets violating fixtures (exact finding count, right rule id)
and clean fixtures (no findings). Further cases pin NOLINT suppression for
a line rule and a call-graph rule, the call chain in a transitive
nondeterminism finding, and the tree walk skipping this directory.
Fixtures live under fixtures/ in a layout that mirrors the repo and are
analyzed with --rel-root so the path-scoped rules fire.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "lint", "dpcf_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# (rule id or None for every rule, fixture paths under fixtures/, expected
# finding count; 0 = clean).
CASES = [
    ("dpcf-mutex-annotation", ["src/bad_mutex.h"], 2),
    ("dpcf-mutex-annotation", ["src/bad_mutex_unguarded.h"], 1),
    ("dpcf-mutex-annotation", ["src/good_mutex.h"], 0),
    ("dpcf-nondeterminism", ["src/core/bad_entropy_direct.cc"], 5),
    ("dpcf-nondeterminism", ["src/core/bad_entropy_transitive.cc",
                             "src/support/entropy_helper.cc"], 1),
    ("dpcf-nondeterminism", ["src/core/good_entropy.cc",
                             "src/obs/report_sink.cc"], 0),
    ("dpcf-charge-conservation", ["src/exec/bad_charge_missing.cc"], 1),
    ("dpcf-charge-conservation", ["src/exec/bad_charge_earlyreturn.cc"], 1),
    ("dpcf-charge-conservation", ["src/storage/bad_charge_readimage.cc"], 1),
    ("dpcf-charge-conservation", ["src/exec/good_charge.cc"], 0),
    ("dpcf-charge-conservation", ["src/storage/good_charge_readimage.cc"], 0),
    ("dpcf-include-hygiene", ["src/bad_include.h"], 2),
    ("dpcf-include-hygiene", ["src/good_include.h"], 0),
    ("dpcf-naked-new", ["src/bad_new.h", "src/bad_new.cc"], 3),
    ("dpcf-naked-new", ["src/good_new.h", "src/good_new.cc"], 0),
    ("dpcf-eval-in-morsel", ["src/exec/bad_scan_loop.cc"], 2),
    ("dpcf-eval-in-morsel", ["src/exec/good_scan_loop.cc"], 0),
    ("dpcf-simd-intrinsics", ["src/exec/bad_intrinsics.cc"], 2),
    ("dpcf-simd-intrinsics", ["src/exec/simd_fixture.cc"], 0),
    # Violations present but suppressed; every rule must honor NOLINT.
    (None, ["src/core/suppressed.cc"], 0),
]


def run_lint(args):
    return subprocess.run([sys.executable, LINT] + args,
                          capture_output=True, text=True)


def main():
    failures = []
    for rule, paths, expected in CASES:
        args = ["--rel-root", FIXTURES] + (["--rule", rule] if rule else [])
        proc = run_lint(args + [os.path.join(FIXTURES, p) for p in paths])
        findings = [ln for ln in proc.stdout.splitlines()
                    if f"[{rule or 'dpcf-'}" in ln]
        label = f"{rule or 'all rules'} on {paths}"
        if proc.returncode != (1 if expected else 0) or \
                len(findings) != expected:
            failures.append(f"{label}: expected {expected} finding(s), got "
                            f"{len(findings)} (exit {proc.returncode})\n"
                            f"{proc.stdout}{proc.stderr}")
        else:
            print(f"ok  {label}: {expected} finding(s)")

    # The transitive nondeterminism finding must carry the call chain.
    proc = run_lint(["--rel-root", FIXTURES, "--rule", "dpcf-nondeterminism",
                     os.path.join(FIXTURES, "src/core/bad_entropy_transitive.cc"),
                     os.path.join(FIXTURES, "src/support/entropy_helper.cc")])
    if "StampRun -> NowSeconds -> time()" not in proc.stdout:
        failures.append(f"transitive finding must name the call chain, "
                        f"got:\n{proc.stdout}")
    else:
        print("ok  nondeterminism message names the call chain")

    # The tree-wide walk must skip this fixture directory entirely.
    proc = run_lint([os.path.join(REPO, "tests")])
    if proc.returncode != 0:
        failures.append("tree-wide analysis of tests/ must skip the "
                        f"fixtures but exited {proc.returncode}:\n"
                        f"{proc.stdout}{proc.stderr}")
    else:
        print("ok  tests/ walk skips lint_selftest fixtures")

    if failures:
        print("\n".join(["", "FAILURES:"] + failures), file=sys.stderr)
        return 1
    print(f"\nlint selftest: all {len(CASES) + 2} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
