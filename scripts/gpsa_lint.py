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
  lease-escape     a MessageBatchPool::lease() result stored straight into
                   a member (`foo_ = ....lease()`). Parking a leased batch
                   in a member moves its recycle obligation out of the
                   leasing function, where the per-function balance check
                   (gpsa_analyze lease-balance) can no longer see it.
                   Every such escape needs an ownership note:
                   `// gpsa-lint: allow(lease-escape)` plus a comment
                   naming who recycles the batch.

Suppression: append `// gpsa-lint: allow(<rule>)` to the offending line.

Usage:
  gpsa_lint.py [--root DIR] [--compile-commands JSON] [--json] [files...]

With no file arguments the linter scans <root>/src/**/*.{hpp,cpp} (tests
and benches may legitimately poke at internals). --compile-commands adds
that database's source files (when under <root>) to the scan set, so
generated or out-of-tree sources get linted too. Exit status is 1 when
findings remain after suppression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

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
         "raw-getenv", "msg-buffer-alloc", "lease-escape")

MARKER_RE = re.compile(r"//\s*gpsa-lint:\s*locked-notify\b")
ALLOW_RE = re.compile(r"//\s*gpsa-lint:\s*allow\(([a-z-]+)\)")

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

# Member-variable LHS (trailing-underscore convention, optionally
# indexed) assigned from a lease() call. `(?!=)` keeps `==` comparisons
# out; the character class spans newlines so wrapped assignments match.
LEASE_ESCAPE_RE = re.compile(
    r"\b(\w+_)(?:\[[^\]]*\])?\s*=(?!=)[^;=]*?\blease\s*\(")

LOCK_DECL_RE = re.compile(
    r"\b(?:gpsa::)?(?:MutexLock|std::lock_guard<[^;{}]*?>"
    r"|std::unique_lock<[^;{}]*?>|std::scoped_lock(?:<[^;{}]*?>)?)"
    r"\s+(\w+)\s*\(")
UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\s*\(")
RELOCK_RE = re.compile(r"\b(\w+)\.lock\s*\(")
NOTIFY_RE = re.compile(r"\b\w+(?:\.|->)notify_(?:one|all)\s*\(")
BRACE_RE = re.compile(r"[{}]")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines and
    column positions so line/offset arithmetic on the result matches the
    original file."""
    out = []
    i = 0
    n = len(text)
    NORMAL, LINE, BLOCK, STR, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
            elif c == '"':
                state = STR
                out.append(" ")
                i += 1
            elif c == "'":
                state = CHAR
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # STR or CHAR
            quote = '"' if state == STR else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = NORMAL
                out.append(" ")
                i += 1
            elif c == "\n":  # unterminated literal; keep line counts sane
                state = NORMAL
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def path_exempt(rel: str, allowed: tuple[str, ...]) -> bool:
    for entry in allowed:
        if entry.endswith("/"):
            if rel.startswith(entry):
                return True
        elif rel == entry:
            return True
    return False


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_locked_notify(stripped: str):
    """Yields (line, message) for notify calls made with no lock held.

    Tracks brace scopes and the RAII lock objects declared in each; a
    notify is fine when any scope in the stack holds a live lock. This is
    lexical, not a dataflow analysis — conditionally released locks should
    restructure or use `// gpsa-lint: allow(locked-notify)`.
    """
    events = []
    for m in BRACE_RE.finditer(stripped):
        events.append((m.start(), "open" if m.group() == "{" else "close",
                       None))
    for m in LOCK_DECL_RE.finditer(stripped):
        events.append((m.start(), "decl", m.group(1)))
    for m in UNLOCK_RE.finditer(stripped):
        events.append((m.start(), "unlock", m.group(1)))
    for m in RELOCK_RE.finditer(stripped):
        events.append((m.start(), "relock", m.group(1)))
    for m in NOTIFY_RE.finditer(stripped):
        events.append((m.start(), "notify", None))
    events.sort(key=lambda e: e[0])

    frames: list[set] = [set()]
    declared: set = set()
    for pos, kind, name in events:
        if kind == "open":
            frames.append(set())
        elif kind == "close":
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
        elif kind == "notify":
            if not any(frames):
                yield (line_of(stripped, pos),
                       "notify outside the guarding lock in a locked-notify "
                       "file; the waiter may destroy the condition variable "
                       "between your unlock and this notify")


def msg_buffer_names(path: Path, stripped: str) -> set[str]:
    """Names declared as std::vector<VertexMessage> (or a vector of them)
    in this file and, for a .cpp, in its same-stem .hpp — so member
    buffers declared in the header are recognized in the implementation
    file."""
    names = {m.group(1) for m in MSG_VEC_NAME_RE.finditer(stripped)}
    if path.suffix == ".cpp":
        header = path.with_suffix(".hpp")
        if header.is_file():
            try:
                header_text = header.read_text(encoding="utf-8",
                                               errors="replace")
            except OSError:
                return names
            header_stripped = strip_comments_and_strings(header_text)
            names |= {m.group(1)
                      for m in MSG_VEC_NAME_RE.finditer(header_stripped)}
    return names


def check_msg_buffer_alloc(path: Path, stripped: str):
    """Yields (line, message) for sized VertexMessage-buffer allocation."""
    message = ("sized allocation of a VertexMessage batch buffer outside "
               "MessageBatchPool; lease()/recycle() through the pool "
               "(src/core/message_pool.hpp) so steady-state supersteps "
               "stay zero-allocation")
    names = msg_buffer_names(path, stripped)
    if names:
        use_re = re.compile(
            r"\b(?:" + "|".join(sorted(re.escape(n) for n in names)) +
            r")\.(?:reserve|resize)\s*\(")
        for m in use_re.finditer(stripped):
            yield line_of(stripped, m.start()), message
    for m in MSG_VEC_SIZED_CTOR_RE.finditer(stripped):
        yield line_of(stripped, m.start()), message


def lint_file(path: Path, rel: str):
    """Yields finding dicts for one file."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        yield {"rule": "io-error", "file": rel, "line": 0,
               "message": f"unreadable: {err}"}
        return

    raw_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)

    def allowed_on_line(line: int, rule: str) -> bool:
        if 1 <= line <= len(raw_lines):
            m = ALLOW_RE.search(raw_lines[line - 1])
            return bool(m and m.group(1) == rule)
        return False

    def emit(rule: str, line: int, message: str):
        if not allowed_on_line(line, rule):
            yield {"rule": rule, "file": rel, "line": line,
                   "message": message}

    if not path_exempt(rel, MEMORY_ORDER_ALLOWED):
        for m in MEMORY_ORDER_RE.finditer(stripped):
            yield from emit(
                "memory-order", line_of(stripped, m.start()),
                f"naked {m.group()} outside the lock-free substrate; use "
                "the annotated Mutex/MutexLock wrappers or default-order "
                "atomics, or move the code into an allowlisted file")

    if not path_exempt(rel, SLOT_ATOMIC_REF_ALLOWED):
        for m in SLOT_ATOMIC_REF_RE.finditer(stripped):
            yield from emit(
                "slot-atomic-ref", line_of(stripped, m.start()),
                "direct atomic_ref over Slot storage; use the "
                "slot_load/store/consume helpers in src/storage/slot.hpp")

    if not path_exempt(rel, BITMAP_ATOMIC_REF_ALLOWED):
        for m in BITMAP_ATOMIC_REF_RE.finditer(stripped):
            yield from emit(
                "bitmap-atomic-ref", line_of(stripped, m.start()),
                "direct atomic_ref over active-bitmap words; use the "
                "bitmap_word_load/set/clear helpers in "
                "src/storage/slot.hpp")

    if MARKER_RE.search(text) or path_exempt(rel, LOCKED_NOTIFY_OPT_IN):
        for line, message in check_locked_notify(stripped):
            yield from emit("locked-notify", line, message)

    for m in LEASE_ESCAPE_RE.finditer(stripped):
        yield from emit(
            "lease-escape", line_of(stripped, m.start()),
            f"lease() result parked in member `{m.group(1)}`; the recycle "
            "obligation escapes the leasing function and the per-function "
            "lease-balance check. Add // gpsa-lint: allow(lease-escape) "
            "with a comment naming who recycles this batch")

    for m in ASSERT_RE.finditer(stripped):
        yield from emit(
            "check-macro", line_of(stripped, m.start()),
            "assert() is compiled out under NDEBUG; use GPSA_CHECK "
            "(always on) or GPSA_DCHECK (debug-only, self-documenting)")

    if not path_exempt(rel, RAW_IO_ALLOWED):
        for m in RAW_IO_RE.finditer(stripped):
            yield from emit(
                "raw-io", line_of(stripped, m.start()),
                f"raw {m.group(1)}() outside src/platform/ and src/io/; "
                "go through MmapFile / the io backends so errors carry "
                "Status and mappings are RAII-owned")

    if not path_exempt(rel, RAW_SOCKET_ALLOWED):
        for m in RAW_SOCKET_RE.finditer(stripped):
            yield from emit(
                "raw-socket", line_of(stripped, m.start()),
                f"raw ::{m.group(1)}() outside src/net/; go through the "
                "Socket wrapper and frame codec so descriptors are "
                "RAII-owned, errors carry Status, and every byte on the "
                "wire is a checksummed frame")

    if not path_exempt(rel, RAW_GETENV_ALLOWED):
        for m in RAW_GETENV_RE.finditer(stripped):
            yield from emit(
                "raw-getenv", line_of(stripped, m.start()),
                f"raw {m.group(1)}() outside src/util/knobs.cpp; add a row "
                "to the knob table and read it with knob<T>() so the value "
                "is parsed and range-checked like every other GPSA_* knob")

    if not path_exempt(rel, MSG_BUFFER_ALLOC_ALLOWED):
        seen = set()
        for line, message in check_msg_buffer_alloc(path, stripped):
            if line not in seen:  # name + ctor rules can overlap on a line
                seen.add(line)
                yield from emit("msg-buffer-alloc", line, message)


def collect_files(root: Path, compile_commands: Path | None,
                  explicit: list[str]) -> list[tuple[Path, str]]:
    """Returns (absolute path, root-relative display path) pairs."""
    pairs: dict[str, Path] = {}

    def add(p: Path):
        p = p.resolve()
        try:
            rel = p.relative_to(root).as_posix()
        except ValueError:
            rel = p.as_posix()  # outside root (fixtures under odd cwd)
        pairs.setdefault(rel, p)

    if explicit:
        for name in explicit:
            add(Path(name))
        return sorted((p, rel) for rel, p in pairs.items())

    for pattern in ("src/**/*.hpp", "src/**/*.cpp"):
        for p in sorted(root.glob(pattern)):
            add(p)
    if compile_commands is not None:
        try:
            db = json.loads(compile_commands.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            print(f"gpsa_lint: cannot read {compile_commands}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        for entry in db:
            p = Path(entry["directory"]) / entry["file"]
            p = p.resolve()
            if p.suffix in (".cpp", ".hpp") and \
                    p.is_relative_to(root / "src"):
                add(p)
    return sorted((p, rel) for rel, p in pairs.items())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: scripts/..)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json to widen the scan set")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (fixture/self-test mode)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    findings = []
    for path, rel in collect_files(root, args.compile_commands, args.files):
        findings.extend(lint_file(path, rel))
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    if args.json:
        json.dump({"findings": findings}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for f in findings:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        if findings:
            print(f"gpsa_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
