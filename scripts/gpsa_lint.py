#!/usr/bin/env python3
"""gpsa_lint: project-specific concurrency-invariant linter.

Lexical (comment/string-aware) checks for invariants the compiler cannot
express and clang-tidy does not know about:

  memory-order     naked std::memory_order_* outside the audited lock-free
                   substrate files. Everything else must use the annotated
                   Mutex/MutexLock wrappers or plain (seq_cst) atomics.
  slot-atomic-ref  std::atomic_ref<...Slot...> construction outside
                   src/storage/slot.hpp. The two-column slot protocol is
                   centralized there so its ordering contract has exactly
                   one implementation.
  bitmap-atomic-ref
                   std::atomic_ref<...BitmapWord...> construction outside
                   src/storage/slot.hpp. The active-bitmap publication
                   protocol (computers OR bits in, dispatchers read and
                   clear between supersteps) lives next to the slot
                   helpers so both halves of the bit<=>stale-flag
                   invariant share one audited ordering contract.
  locked-notify    cv.notify_one/notify_all outside a held lock, in files
                   that opt into the locked-notify protocol with a
                   `// gpsa-lint: locked-notify` marker — plus every file
                   under src/service/ and src/net/, which opt in by path:
                   both layers pair condition variables with objects whose
                   destructors run as soon as the predicate flips (job
                   completion records, connection state), so an unlocked
                   notify can touch a destroyed condition variable.
  check-macro      assert() instead of GPSA_CHECK/GPSA_DCHECK. assert()
                   vanishes under NDEBUG, so release builds silently skip
                   the invariant.
  raw-io           raw mmap/munmap/pread/pwrite/madvise/posix_fadvise
                   outside src/platform/ and src/io/, where the RAII
                   wrappers and error-status plumbing live.
  raw-socket       raw socket-family syscalls (::socket/::connect/::send
                   /::recv/...) outside src/net/, where the Socket RAII
                   wrapper, Status-carrying error paths, and the framing
                   codec live. Everything above the transport speaks
                   frames, not file descriptors.
  raw-getenv       getenv() outside src/util/knobs.cpp. Every GPSA_*
                   variable is a row of the knob table there, parsed and
                   range-checked once; a raw read would bypass both.
  msg-buffer-alloc sized allocation (reserve/resize/sized construction)
                   of std::vector<VertexMessage> batch buffers outside
                   src/core/message_pool.*. Batch capacity must come from
                   MessageBatchPool::lease()/recycle() so steady-state
                   supersteps stay zero-allocation (DESIGN.md §11).
                   Declared buffer names are collected from the file and,
                   for a .cpp, its same-stem .hpp.

Leases, member stores included, are gpsa_analyze.py's lease-balance rule.

Suppression: append `// gpsa-lint: allow(<rule>)` to the offending line.

Usage:
  gpsa_lint.py [--root DIR] [--json] [files...]

With no file arguments the linter scans <root>/src/**/*.{hpp,cpp} (tests
and benches may legitimately poke at internals). It reads the tree
through scripts/cpp_source.py, the source frontend it shares with
gpsa_analyze.py. Exit status is 1 when findings remain after
suppression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from cpp_source import SourceFile, collect_files, print_findings

# --- Per-rule path exemptions (relative to <root>, '/'-separated). ------
# A trailing '/' exempts the whole directory. These are the audited
# lock-free / platform substrate files; everything else goes through the
# annotated wrappers.

MEMORY_ORDER_ALLOWED = (
    "src/util/mpsc_queue.hpp",
    "src/actor/work_stealing_deque.hpp",
    "src/actor/scheduler.hpp",
    "src/actor/scheduler.cpp",
    "src/actor/actor.hpp",
    "src/storage/slot.hpp",
    "src/io/",
    "src/baselines/",
    # lockdep's enabled() fast path is a relaxed latch read; its graph
    # counters are relaxed stats. The audit lives in lockdep.cpp.
    "src/util/lockdep.hpp",
    "src/util/lockdep.cpp",
)

SLOT_ATOMIC_REF_ALLOWED = ("src/storage/slot.hpp",)

BITMAP_ATOMIC_REF_ALLOWED = ("src/storage/slot.hpp",)

RAW_IO_ALLOWED = (
    "src/platform/",
    "src/io/",
)

# The transport layer is the one sanctioned home for socket syscalls.
RAW_SOCKET_ALLOWED = ("src/net/",)

# The knob table is the one sanctioned environment reader.
RAW_GETENV_ALLOWED = ("src/util/knobs.cpp",)

# The pool is the one sanctioned VertexMessage buffer allocation site.
MSG_BUFFER_ALLOC_ALLOWED = (
    "src/core/message_pool.hpp",
    "src/core/message_pool.cpp",
)

# Directories whose files are in the locked-notify protocol by path, no
# per-file marker needed: service jobs and connection state both die the
# moment their predicate flips.
LOCKED_NOTIFY_OPT_IN = (
    "src/service/",
    "src/net/",
)

RULES = ("memory-order", "slot-atomic-ref", "bitmap-atomic-ref",
         "locked-notify", "check-macro", "raw-io", "raw-socket",
         "raw-getenv", "msg-buffer-alloc")

TOOL = "gpsa-lint"  # the suppression-comment prefix
MARKER_RE = re.compile(r"//\s*gpsa-lint:\s*locked-notify\b")

MEMORY_ORDER_RE = re.compile(r"\bstd::memory_order_\w+")
SLOT_ATOMIC_REF_RE = re.compile(r"\bstd::atomic_ref<[^<>;(){}]*\bSlot\b")
BITMAP_ATOMIC_REF_RE = re.compile(
    r"\bstd::atomic_ref<[^<>;(){}]*\bBitmapWord\b")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
RAW_IO_RE = re.compile(
    r"(?<![\w.>])(mmap|munmap|pread|pwrite|madvise|posix_fadvise)\s*\(")
# ::-qualified socket-family syscalls. The negative lookbehind keeps
# `Foo::connect(` member definitions and `obj.send(` calls out; only the
# global-namespace `::socket(fd, ...)` form is the syscall.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w>])::\s*(socket|connect|accept4?|bind|listen|setsockopt"
    r"|getsockopt|getsockname|send|recv|sendto|recvfrom|sendmsg|recvmsg"
    r"|shutdown)\s*\(")

# getenv / secure_getenv, qualified or not; `obj.getenv(` and
# `my_getenv(` do not match.
RAW_GETENV_RE = re.compile(
    r"(?<![\w.>])(?:std::|::)?(secure_getenv|getenv)\s*\(")

# Declarations of VertexMessage batch buffers (plain, nested-in-vector,
# reference, rvalue-reference, pointer): captures the declared name.
MSG_VEC_NAME_RE = re.compile(
    r"vector<\s*(?:std::vector<\s*)?(?:gpsa::)?VertexMessage\s*>\s*>?\s*"
    r"(?:&&?|\*)?\s*(\w+)")
# Direct sized construction of a batch buffer (named or temporary).
# `()` / `{}` empty construction and function declarations don't match:
# the first character inside the parens must be a real argument.
MSG_VEC_SIZED_CTOR_RE = re.compile(
    r"vector<\s*(?:gpsa::)?VertexMessage\s*>\s*(?:\w+\s*)?[({]\s*[^)}\s]")

LOCK_DECL_RE = re.compile(
    r"\b(?:gpsa::)?(?:MutexLock|std::lock_guard<[^;{}]*?>"
    r"|std::unique_lock<[^;{}]*?>|std::scoped_lock(?:<[^;{}]*?>)?)"
    r"\s+(\w+)\s*\(")
UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\s*\(")
RELOCK_RE = re.compile(r"\b(\w+)\.lock\s*\(")
NOTIFY_RE = re.compile(r"\b\w+(?:\.|->)notify_(?:one|all)\s*\(")


def path_exempt(rel: str, allowed: tuple[str, ...]) -> bool:
    for entry in allowed:
        if entry.endswith("/"):
            if rel.startswith(entry):
                return True
        elif rel == entry:
            return True
    return False


# The one-regex rules: (rule, exempt paths, pattern, message). `{0}` in
# the message is the pattern's first group, or the whole match.
PATTERN_RULES = (
    ("memory-order", MEMORY_ORDER_ALLOWED, MEMORY_ORDER_RE,
     "naked {0} outside the lock-free substrate; use the annotated "
     "Mutex/MutexLock wrappers or default-order atomics, or move the code "
     "into an allowlisted file"),
    ("slot-atomic-ref", SLOT_ATOMIC_REF_ALLOWED, SLOT_ATOMIC_REF_RE,
     "direct atomic_ref over Slot storage; use the slot_load/store/consume "
     "helpers in src/storage/slot.hpp"),
    ("bitmap-atomic-ref", BITMAP_ATOMIC_REF_ALLOWED, BITMAP_ATOMIC_REF_RE,
     "direct atomic_ref over active-bitmap words; use the "
     "bitmap_word_load/set/clear helpers in src/storage/slot.hpp"),
    ("check-macro", (), ASSERT_RE,
     "assert() is compiled out under NDEBUG; use GPSA_CHECK (always on) "
     "or GPSA_DCHECK (debug-only, self-documenting)"),
    ("raw-io", RAW_IO_ALLOWED, RAW_IO_RE,
     "raw {0}() outside src/platform/ and src/io/; go through MmapFile / "
     "the io backends so errors carry Status and mappings are RAII-owned"),
    ("raw-socket", RAW_SOCKET_ALLOWED, RAW_SOCKET_RE,
     "raw ::{0}() outside src/net/; go through the Socket wrapper and "
     "frame codec so descriptors are RAII-owned, errors carry Status, and "
     "every byte on the wire is a checksummed frame"),
    ("raw-getenv", RAW_GETENV_ALLOWED, RAW_GETENV_RE,
     "raw {0}() outside src/util/knobs.cpp; add a row to the knob table "
     "and read it with knob<T>() so the value is parsed and range-checked "
     "like every other GPSA_* knob"),
)

LOCKED_NOTIFY_MESSAGE = (
    "notify outside the guarding lock in a locked-notify file; the waiter "
    "may destroy the condition variable between your unlock and this "
    "notify")

MSG_BUFFER_ALLOC_MESSAGE = (
    "sized allocation of a VertexMessage batch buffer outside "
    "MessageBatchPool; lease()/recycle() through the pool "
    "(src/core/message_pool.hpp) so steady-state supersteps stay "
    "zero-allocation")


@functools.lru_cache(maxsize=None)
def read_source(path: Path, rel: str) -> SourceFile:
    """Each file is lexed once, though a header is also read for its
    same-stem .cpp (msg_buffer_names)."""
    return SourceFile.read(path, rel)


def check_locked_notify(src: SourceFile):
    """Yields the offset of each notify call made with no lock held.

    Tracks brace scopes and the RAII lock objects declared in each; a
    notify is fine when any scope in the stack holds a live lock. This is
    lexical, not a dataflow analysis — conditionally released locks should
    restructure or use `// gpsa-lint: allow(locked-notify)`.
    """
    events = [(pos, tok, None) for pos, tok in src.brace_list]
    for kind, regex in (("decl", LOCK_DECL_RE), ("unlock", UNLOCK_RE),
                        ("relock", RELOCK_RE), ("notify", NOTIFY_RE)):
        events.extend((m.start(), kind, m.group(m.lastindex or 0))
                      for m in regex.finditer(src.code))
    events.sort(key=lambda e: e[0])

    frames: list[set] = [set()]
    declared: set = set()
    for pos, kind, name in events:
        if kind == "{":
            frames.append(set())
        elif kind == "}":
            if len(frames) > 1:
                frames.pop()
        elif kind == "decl":
            frames[-1].add(name)
            declared.add(name)
        elif kind == "unlock":
            for frame in reversed(frames):
                frame.discard(name)
        elif kind == "relock":
            if name in declared:  # ignore foo.lock() on non-RAII objects
                frames[-1].add(name)
        elif not any(frames):  # notify
            yield pos


def msg_buffer_names(path: Path, src: SourceFile) -> set[str]:
    """Names declared as std::vector<VertexMessage> (or a vector of them)
    in this file and, for a .cpp, in its same-stem .hpp — so member
    buffers declared in the header are recognized in the implementation
    file."""
    names = {m.group(1) for m in MSG_VEC_NAME_RE.finditer(src.code)}
    header = path.with_suffix(".hpp")
    if path.suffix == ".cpp" and header.is_file():
        try:
            header_src = read_source(header, src.rel[:-4] + ".hpp")
        except OSError:
            return names
        names |= {m.group(1)
                  for m in MSG_VEC_NAME_RE.finditer(header_src.code)}
    return names


def check_msg_buffer_alloc(path: Path, src: SourceFile):
    """Yields the offset of each sized VertexMessage-buffer allocation."""
    names = msg_buffer_names(path, src)
    if names:
        use_re = re.compile(
            r"\b(?:" + "|".join(sorted(re.escape(n) for n in names)) +
            r")\.(?:reserve|resize)\s*\(")
        yield from (m.start() for m in use_re.finditer(src.code))
    yield from (m.start() for m in MSG_VEC_SIZED_CTOR_RE.finditer(src.code))


def lint_file(path: Path, rel: str):
    """Yields finding dicts for one file."""
    try:
        src = read_source(path, rel)
    except OSError as err:
        yield {"rule": "io-error", "file": rel, "line": 0,
               "message": f"unreadable: {err}"}
        return

    found = []  # (rule, line, message)
    for rule, exempt, pattern, message in PATTERN_RULES:
        if not path_exempt(rel, exempt):
            found.extend((rule, src.line(m.start()),
                          message.format(m.group(m.lastindex or 0)))
                         for m in pattern.finditer(src.code))

    if any(MARKER_RE.search(note) for note in src.notes.values()) or \
            path_exempt(rel, LOCKED_NOTIFY_OPT_IN):
        found.extend(("locked-notify", src.line(pos), LOCKED_NOTIFY_MESSAGE)
                     for pos in check_locked_notify(src))

    if not path_exempt(rel, MSG_BUFFER_ALLOC_ALLOWED):
        # The name and ctor patterns can both match on one line.
        lines = {src.line(pos) for pos in check_msg_buffer_alloc(path, src)}
        found.extend(("msg-buffer-alloc", line, MSG_BUFFER_ALLOC_MESSAGE)
                     for line in lines)

    for rule, line, message in found:
        if not src.allowed(TOOL, line, rule):
            yield {"rule": rule, "file": rel, "line": line,
                   "message": message}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: scripts/..)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (fixture/self-test mode)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    findings = []
    for path, rel in collect_files(root, args.files):
        findings.extend(lint_file(path, rel))
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    if args.json:
        json.dump({"findings": findings}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_findings(findings)
        if findings:
            print(f"gpsa_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
