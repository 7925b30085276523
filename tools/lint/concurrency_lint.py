#!/usr/bin/env python3
"""Concurrency-contract linter for the LARD prototype.

Enforces the parts of the repo's concurrency contract (docs/CONCURRENCY.md)
that Clang Thread Safety Analysis cannot see:

  raw-mutex       No raw std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable outside src/util/. Everything locks
                  through lard::Mutex / lard::MutexLock so the TSA
                  annotations (src/util/thread_annotations.h) stay load-
                  bearing.

  liveness-guard  Every posted or timer lambda that captures `this` in
                  src/proto/, src/net/, src/admin/ or src/mesh/ must go
                  through LivenessToken::Guard(...) — a raw [this] capture
                  outlives its owner the moment the owner is destroyed with
                  the task still queued.

  loop-affinity   Per-loop LoopShard state in src/proto/frontend.cc (the
                  `conns` map, `next_conn_id`, `relays`) may only be touched
                  by methods that first call EventLoop::AssertInLoopThread().

  blocking-call   No blocking syscalls (sleep variants, ::recv, ::connect)
                  in event-loop code under src/net/, src/proto/, src/admin/,
                  src/mesh/ — a blocked loop thread stalls every connection
                  pinned to that loop.

Escape hatch: a finding is suppressed by a comment

    // lard-lint: allow(<rule>) <rationale>

on the flagged line or in the contiguous comment block immediately above it.
The rationale is mandatory in spirit: an allow comment documents *why* the
exception is safe, it does not wave the rule away.

Usage:
    tools/lint/concurrency_lint.py [--root DIR] [--json OUT] [files...]

With no file arguments the whole src/ tree under --root (default: repo root
inferred from this script's location) is linted. Exit status is 1 when any
finding survives, 0 otherwise. --json writes machine-readable findings for
CI artifact upload.
"""

import argparse
import dataclasses
import json
import os
import re
import sys

RULES = ("raw-mutex", "liveness-guard", "loop-affinity", "blocking-call")

ALLOW_RE = re.compile(r"lard-lint:\s*allow\(([a-z-]+)\)")

# raw-mutex: the std primitives that must stay behind lard::Mutex.
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)

# liveness-guard: a Post(...) / ScheduleAfterMs(...) whose callback captures
# `this`. The capture may start a few tokens after the call opens (timer
# delay argument, line breaks), so the scan window is the flattened statement.
POST_CALL_RE = re.compile(r"\b(?:Post|ScheduleAfterMs)\s*\(")
THIS_CAPTURE_RE = re.compile(r"\[\s*(?:this\b|[^]\n]*[,\s]this\b)")
GUARD_RE = re.compile(r"\bGuard\s*\(")

# blocking-call: syscalls with no deadline that would wedge a loop thread.
BLOCKING_RE = re.compile(
    r"(?:::recv\s*\(|::recvmsg\s*\(|::connect\s*\(|\busleep\s*\(|\bnanosleep\s*\(|"
    r"\bsleep_for\b|\bsleep_until\b|(?<![\w_])::sleep\s*\()"
)

# loop-affinity: mutable LoopShard fields (frontend.h) — touching any of
# these pins the enclosing method to the shard's loop thread.
SHARD_STATE_RE = re.compile(
    r"(?:shard|shard_|loop_shard)\s*(?:->|\.)\s*(?:conns\b|next_conn_id\b|relays\b)"
)
ASSERT_RE = re.compile(r"\bAssertInLoopThread\s*\(")
FUNC_DEF_RE = re.compile(r"^[\w:<>,*&~\s]*\bFrontEnd::(\w+)\s*\(")


@dataclasses.dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str

    def as_dict(self):
        return dataclasses.asdict(self)


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving layout.

    Newlines survive so line numbers stay valid; the allow-comment scan runs
    on the *original* text before this pass.
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (macro line etc.) — bail out
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed_rules_for_line(raw_lines, lineno):
    """Rules suppressed at 1-based `lineno`: allow() markers on the line
    itself or in the contiguous comment block directly above it."""
    allowed = set()
    allowed.update(ALLOW_RE.findall(raw_lines[lineno - 1]))
    i = lineno - 2
    while i >= 0 and raw_lines[i].lstrip().startswith("//"):
        allowed.update(ALLOW_RE.findall(raw_lines[i]))
        i -= 1
    return allowed


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def relpath(self, path):
        return os.path.relpath(path, self.root)

    def report(self, raw_lines, path, lineno, rule, message):
        if rule in allowed_rules_for_line(raw_lines, lineno):
            return
        self.findings.append(Finding(self.relpath(path), lineno, rule, message))

    def lint_file(self, path):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        raw_lines = raw.split("\n")
        code = strip_comments_and_strings(raw)
        code_lines = code.split("\n")
        rel = self.relpath(path).replace(os.sep, "/")

        in_util = rel.startswith("src/util/")
        in_loop_domain = any(
            rel.startswith(p) for p in ("src/proto/", "src/net/", "src/admin/", "src/mesh/")
        ) or not rel.startswith("src/")
        # Files passed explicitly (fixtures, tests of the linter itself) get
        # every rule; tree scans scope rules by directory as documented.

        self._check_raw_mutex(path, raw_lines, code_lines, skip=in_util)
        if in_loop_domain:
            self._check_liveness_guard(path, raw_lines, code)
            self._check_blocking_call(path, raw_lines, code_lines)
        if rel.endswith("frontend.cc") or not rel.startswith("src/"):
            self._check_loop_affinity(path, raw_lines, code_lines)

    def _check_raw_mutex(self, path, raw_lines, code_lines, skip):
        if skip:
            return
        for i, line in enumerate(code_lines, start=1):
            m = RAW_MUTEX_RE.search(line)
            if m:
                self.report(
                    raw_lines, path, i, "raw-mutex",
                    f"{m.group(0)} outside src/util/ — use lard::Mutex / "
                    "lard::MutexLock (src/util/mutex.h) so thread-safety "
                    "annotations apply",
                )

    def _check_liveness_guard(self, path, raw_lines, code):
        for m in POST_CALL_RE.finditer(code):
            # Scan the statement from the call's opening paren to its
            # matching close (bounded window for pathological input).
            start = m.end() - 1
            depth = 0
            end = min(len(code), start + 2000)
            for j in range(start, end):
                if code[j] == "(":
                    depth += 1
                elif code[j] == ")":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            stmt = code[start:end]
            cap = THIS_CAPTURE_RE.search(stmt)
            if not cap:
                continue
            guard = GUARD_RE.search(stmt)
            if guard and guard.start() < cap.start():
                continue
            lineno = code.count("\n", 0, m.start()) + 1
            self.report(
                raw_lines, path, lineno, "liveness-guard",
                "posted/timer lambda captures `this` without "
                "LivenessToken::Guard — the task can outlive its owner",
            )

    def _check_blocking_call(self, path, raw_lines, code_lines):
        for i, line in enumerate(code_lines, start=1):
            m = BLOCKING_RE.search(line)
            if m:
                self.report(
                    raw_lines, path, i, "blocking-call",
                    f"blocking call {m.group(0).strip()!r} in event-loop code "
                    "— a blocked loop thread stalls every connection pinned "
                    "to it",
                )

    def _check_loop_affinity(self, path, raw_lines, code_lines):
        """Each FrontEnd:: method touching LoopShard state must call
        AssertInLoopThread() before the first touch."""
        func_name = None
        func_line = 0
        asserted = False
        brace_depth = 0
        in_func = False
        for i, line in enumerate(code_lines, start=1):
            if not in_func:
                d = FUNC_DEF_RE.match(line)
                if d:
                    func_name = d.group(1)
                    func_line = i
                    asserted = False
                    in_func = True
                    brace_depth = 0
            if in_func:
                if ASSERT_RE.search(line):
                    asserted = True
                m = SHARD_STATE_RE.search(line)
                if m and not asserted:
                    self.report(
                        raw_lines, path, i, "loop-affinity",
                        f"FrontEnd::{func_name} (line {func_line}) touches "
                        f"LoopShard state ({m.group(0).strip()}) without "
                        "calling AssertInLoopThread() first",
                    )
                    asserted = True  # one finding per function
                brace_depth += line.count("{") - line.count("}")
                if brace_depth <= 0 and "{" in "".join(
                    code_lines[func_line - 1:i + 1]
                ) and i > func_line:
                    in_func = False

    def run(self, files):
        for path in files:
            self.lint_file(path)
        return self.findings


def collect_tree(root):
    files = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="files to lint (default: src/ tree)")
    parser.add_argument("--root", default=None, help="repo root (default: inferred)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write machine-readable findings JSON here")
    parser.add_argument("--list-rules", action="store_true", help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULES))
        return 0

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )
    files = [os.path.abspath(f) for f in args.files] or collect_tree(root)

    linter = Linter(root)
    findings = linter.run(files)

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    print(f"concurrency_lint: {len(findings)} finding(s) in {len(files)} file(s)")

    if args.json_out:
        counts = {rule: 0 for rule in RULES}
        for f in findings:
            counts[f.rule] += 1
        payload = {
            "version": 1,
            "files_scanned": len(files),
            "counts": counts,
            "findings": [f.as_dict() for f in findings],
        }
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2)
            out.write("\n")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
