#!/usr/bin/env python3
"""Reachability audit: src/ functions that no shipped binary links.

Builds every target of the tree at -O0 with -ffunction-sections and links
with --gc-sections, so each executable keeps only the functions it can
reach. `request_cost` is built the same way from bench/request_cost. Then:

  library set   the strong text symbols (nm type T or t) of the liblard_<dir>.a
                library of each src/<dir>, i.e. every out-of-line function
                src/ defines;
  shipped set   those that survive in an example, a bench_* program or
                request_cost;
  test set      those that survive in a test binary (tests/*.cc).

A library function outside the shipped set is printed as "test-only" when a
test still reaches it and "unreached" when nothing does.

A second pass covers header-only functions. An inline function or a template
instance is a weak symbol (nm type W) that every object using it emits, so
it is in no library; at -O0 nothing is inlined, and --gc-sections keeps it in
exactly the binaries that reach it. A weak lard:: function that a test
binary keeps and no shipped binary does is printed as "test-only (weak)".
Its name drops template arguments, so a template member ships when any of
its instances does. Default, copy and move constructors, copy and move
assignments and destructors are left out: the compiler writes most of them,
and they have no source line to delete.

The audit fails when either set holds a name that is not listed in
tools/test_only_symbols.txt, or when the list names a function that is in
neither set (so the list never outlives what it excuses).

The list is sorted, one demangled name per line, each followed by
"  # <reason>". Blank lines and lines starting with '#' are ignored.

What the audit cannot see: code that a shipped binary links but only
reaches behind a flag, and a header-only function that no binary reaches at
all (nothing emits it).

The build goes to build-audit/ at the repository root (the parent of
tools/).

Usage:
    tools/audit_test_only.py [--jobs N] [--skip-build]
"""

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-audit")
LIST = os.path.join(ROOT, "tools", "test_only_symbols.txt")

AUDIT_FLAGS = "-O0 -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def configure_and_build(source, build, jobs):
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        # An unnamed build type adds no optimization or debug flags of its
        # own, so AUDIT_FLAGS alone decide the code generation.
        run(["cmake", "-S", source, "-B", build] + generator + [
            "-DCMAKE_BUILD_TYPE=Audit",
            "-DCMAKE_CXX_FLAGS=" + AUDIT_FLAGS,
            "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS,
        ], stdout=sys.stderr)
    run(["cmake", "--build", build, "-j", str(jobs)], stdout=sys.stderr)


def text_symbols(paths):
    """Demangled names of the strong text symbols (nm type T or t) in paths.

    Local symbols count: a lambda's body, or a std::function thunk made for
    it, is a local symbol named after the function that holds the lambda.
    Weak (W) symbols are inline functions and template instances that every
    user emits, so they say nothing about which library code is reached.
    """
    if not paths:
        return set()
    out = subprocess.run(["nm", "-C", "--defined-only"] + sorted(paths), check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<address> T <name>"; archive member headers and blanks have no type.
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "t"):
            names.add(parts[2])
    return names


# Operator names hold '<' and '>' that do not open or close a template
# argument list.
OPERATOR_RE = re.compile(r"operator(?:<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)")


def drop_template_args(name):
    """`name` with every <...> template argument list removed."""
    operators = OPERATOR_RE.findall(name)
    masked = OPERATOR_RE.sub("operator@", name)
    out = []
    depth = 0
    for char in masked:
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
        elif depth == 0:
            out.append(char)
    result = "".join(out)
    for operator in operators:
        result = result.replace("operator@", operator, 1)
    return result


def special_member(name):
    """A destructor, a default, copy or move constructor, or a copy or move
    assignment."""
    qualified, _, params = name.partition("(")
    params = params.rsplit(")", 1)[0]
    owner, _, member = qualified.rpartition("::")
    if member.startswith("~"):
        return True
    copy_or_move = params in (owner + " const&", owner + "&&")
    if member == owner.rpartition("::")[2]:
        return params == "" or copy_or_move
    return member == "operator=" and copy_or_move


def weak_functions(paths):
    """Template-free names of the weak lard:: functions defined in paths.

    Only names in namespace lard count (mangled _ZN4lard / _ZNK4lard); the
    std:: templates that src/ instantiates, and anything in an anonymous
    namespace, are left out.
    """
    if not paths:
        return set()
    out = subprocess.run(["nm", "--defined-only"] + sorted(paths), check=True,
                         capture_output=True, text=True).stdout
    mangled = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if (len(parts) == 3 and parts[1] == "W" and
                parts[2].startswith(("_ZN4lard", "_ZNK4lard")) and
                "_GLOBAL__N" not in parts[2]):
            mangled.add(parts[2])
    demangled = subprocess.run(["c++filt"], input="\n".join(sorted(mangled)), check=True,
                               capture_output=True, text=True).stdout.splitlines()
    names = {drop_template_args(name) for name in demangled}
    return {name for name in names if not special_member(name)}


def executables(directory):
    found = []
    for path in glob.glob(os.path.join(directory, "*")):
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def read_list(path):
    """name -> reason for every entry of the checked-in list."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            name, sep, reason = stripped.partition("  # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: entry has no '  # <reason>': {stripped}")
            entries[name.strip()] = reason.strip()
    if list(entries) != sorted(entries):
        sys.exit(f"{path}: entries are not sorted")
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    parser.add_argument("--skip-build", action="store_true",
                        help="audit an existing build directory as it is")
    args = parser.parse_args()

    tree_build = os.path.join(BUILD, "tree")
    bench_build = os.path.join(BUILD, "request_cost")
    if not args.skip_build:
        configure_and_build(ROOT, tree_build, args.jobs)
        configure_and_build(os.path.join(ROOT, "bench", "request_cost"), bench_build, args.jobs)

    # One library per src/ directory (liblard_bench_drivers is bench code).
    libraries = [os.path.join(tree_build, f"liblard_{os.path.basename(d)}.a")
                 for d in glob.glob(os.path.join(ROOT, "src", "*")) if os.path.isdir(d)]
    shipped = (executables(os.path.join(tree_build, "examples")) +
               executables(os.path.join(tree_build, "bench")) +
               [os.path.join(bench_build, "request_cost")])
    tests = [os.path.join(tree_build, os.path.splitext(os.path.basename(source))[0])
             for source in glob.glob(os.path.join(ROOT, "tests", "*.cc"))]
    missing = [path for path in libraries + shipped + tests if not os.path.isfile(path)]
    if missing:
        sys.exit("audit: build output missing: " + ", ".join(missing))

    library_set = text_symbols(libraries)
    not_shipped = library_set - text_symbols(shipped)
    in_tests = text_symbols(tests)
    weak_test_only = weak_functions(tests) - weak_functions(shipped)
    print(f"audit: {len(library_set)} library functions; {len(shipped)} shipped binaries, "
          f"{len(tests)} tests; {len(not_shipped)} functions in no shipped binary; "
          f"{len(weak_test_only)} header-only functions in tests only")
    for name in sorted(not_shipped):
        print(("test-only  " if name in in_tests else "unreached  ") + name)
    for name in sorted(weak_test_only):
        print("test-only (weak)  " + name)

    found = not_shipped | weak_test_only
    allowed = read_list(LIST)
    new = sorted(found - set(allowed))
    stale = sorted(set(allowed) - found)
    for name in new:
        print(f"audit: NEW function in no shipped binary: {name}", file=sys.stderr)
    for name in stale:
        print(f"audit: listed but shipped or gone, drop it from the list: {name}",
              file=sys.stderr)
    if new or stale:
        print(f"audit: FAIL ({len(new)} new, {len(stale)} stale against {LIST}). "
              "Delete the function, call it from a shipped path, move it into the test "
              "that uses it, or list it with a reason.", file=sys.stderr)
        return 1
    print(f"audit: OK ({len(found)} functions, all listed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
