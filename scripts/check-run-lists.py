#!/usr/bin/env python3
"""Fails when an alternative of a `go test -run` list matches no test.

    scripts/check-run-lists.py

Reads every `go test … -run '<a>|<b>|…' <packages>` line of the Makefile and
of the CI workflow, lists the tests of the packages the line names (`go test
-list`), and checks that each alternative matches at least one of them. A
renamed or deleted test otherwise drops out of a list unnoticed: the list
still matches its other alternatives, and `go test` passes. The empty
pattern `^$` (benchmarks and fuzzing only) is skipped. Run it from anywhere;
it works in the repository root.
"""
import os
import re
import subprocess
import sys

FILES = ["Makefile", ".github/workflows/ci.yml"]
RUN = re.compile(r"\s-run[ =]'([^']*)'")
STOP = {"&&", "||", ";", "\\", "|"}


def run_lists():
    """Yields (file, line number, pattern, packages) per -run list."""
    for name in FILES:
        with open(name) as f:
            for n, line in enumerate(f, 1):
                m = RUN.search(line)
                if " test " not in line or not m:
                    continue
                pattern = m.group(1).replace("$$", "$")  # make's escape
                if pattern == "^$":
                    continue
                pkgs = []
                for tok in line[m.end():].split():
                    if tok in STOP:
                        break
                    if tok == "." or tok.startswith("./"):
                        pkgs.append(tok)
                yield name, n, pattern, tuple(pkgs) or (".",)


def test_names(pkgs, cache={}):
    """The tests, benchmarks, fuzz targets and examples of pkgs."""
    if pkgs not in cache:
        out = subprocess.run(["go", "test", "-list", ".", *pkgs],
                             check=True, capture_output=True, text=True).stdout
        cache[pkgs] = [l for l in out.splitlines()
                       if re.match(r"(Test|Benchmark|Fuzz|Example)", l)]
    return cache[pkgs]


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    missing = 0
    for name, n, pattern, pkgs in run_lists():
        names = test_names(pkgs)
        for alt in pattern.split("|"):
            if not any(re.search(alt, t) for t in names):
                print(f"{name}:{n}: -run alternative {alt!r} matches no test in {' '.join(pkgs)}")
                missing += 1
    if missing:
        sys.exit(1)
    print("every -run alternative matches a test")


if __name__ == "__main__":
    main()
