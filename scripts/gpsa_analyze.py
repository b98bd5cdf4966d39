#!/usr/bin/env python3
"""gpsa_analyze: whole-program lock-order, actor-blocking, and
lease-balance analysis (DESIGN.md §15).

Where gpsa_lint.py checks per-file lexical invariants, this tool builds a
project-wide model — every class, every function definition, a call graph,
and the mutex-acquisition graph implied by the annotated Mutex/MutexLock
wrappers and GPSA_REQUIRES annotations — and runs three cross-translation-
unit checkers over it:

  lock-order       Acquisition-order cycles across all annotated Mutex
                   instances. Holding lock A while (directly or through
                   any call chain) acquiring lock B adds the edge A -> B
                   to a global order graph; any cycle is a potential
                   deadlock and is reported with the witnessing file:line
                   chain for every edge. The runtime cross-check is the
                   GPSA_LOCKDEP mode in src/util/lockdep.{hpp,cpp}, which
                   accretes the same graph from observed acquisitions and
                   aborts on the first cycle (the TSan CI leg runs with it
                   on).

  actor-blocking   Reachability from every actor entry point
                   (Schedulable::execute_batch overrides and Actor
                   on_message handlers) to blocking primitives: condition
                   variable and atomic waits, sleeps, thread joins, and
                   raw blocking syscalls (::send/::recv family, ::poll,
                   pread/pwrite/fsync). An actor that blocks holds a
                   scheduler worker hostage; the explicit allowlist below
                   names the points that are *designed* to block and why.

  lease-balance    Every MessageBatchPool::lease() result must, within
                   its function, either be recycle()d, be std::move()d
                   onward (ownership transfer: into a mailbox message, an
                   inbound queue, the wire), or carry an explicit
                   `// gpsa-analyze: transfer(<why>)` note. A leased
                   buffer that silently dies is not a leak (the pool
                   tolerates drops) but it is a steady-state pool miss in
                   disguise, and the message-plane bench gates on zero.

Frontends: a libclang frontend is attempted first when the python
bindings are importable (`import clang.cindex`), refining call-edge
resolution with real AST types; otherwise the structural frontend — a
comment/string-aware project-idiom parser — builds the whole model on its
own. The structural frontend is the one CI gates on (ubuntu runners have
no python3-clang) and the fixture self-test pins its behavior; the
`-Xclang -ast-dump=json` route was rejected as a fallback because its
output shape is clang-version-dependent, which would make the gate
flaky across toolchains.

Suppression: append `// gpsa-analyze: allow(<rule>)` to the offending
line (the acquisition site, the blocking primitive, or the lease).

Usage:
  gpsa_analyze.py [--root DIR] [--compile-commands JSON] [--json]
                  [--report FILE] [--require-covered PATH ...] [files...]

With no file arguments the analyzer scans <root>/src/**/*.{hpp,cpp}.
--compile-commands both widens the scan set and backs --require-covered,
which fails (rule `coverage`) when a named source file or directory has
no entry in the compilation database — the guard that keeps new
subsystems from silently regressing out of the clang-tidy/TSA gate.
Exit status is 1 when findings remain after suppression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# --- Policy: designed blocking points -----------------------------------
#
# Functions (by qualified name) from which reaching a blocking primitive
# is the design, not a bug. Every entry needs a reason; the DESIGN.md §15
# policy is that an allowlist entry must name the mechanism that keeps
# the block from holding the whole scheduler hostage.
BLOCKING_ALLOWLIST = {
    "TransportActor::on_message":
        "sanctioned blocking point (DESIGN.md §14): the peer's dedicated "
        "poller thread drains its end regardless of actor scheduling, so "
        "no send-send cycle exists for back-pressure to deadlock on",
    "BlockCacheStream::fetch":
        "synchronous-miss I/O stall by design; stall time is counted in "
        "PrefetchCounters and the readahead scheduler exists to hide it "
        "(mmap's equivalent stall is a page fault, invisible to any "
        "syscall-level checker — §15 documents that asymmetry)",
}

# Lease sites allowed to hand the buffer to an owner the analyzer cannot
# see lexically (member stores shipped by a later flush, for example)
# get an inline `// gpsa-analyze: transfer(...)` note instead; this table
# exists for call-shaped transfers where the note would be misplaced.
LEASE_TRANSFER_ALLOWLIST: dict[str, str] = {}

RULES = ("lock-order", "actor-blocking", "lease-balance", "coverage")

ALLOW_RE = re.compile(r"//\s*gpsa-analyze:\s*allow\(([a-z-]+)\)")
TRANSFER_RE = re.compile(r"//\s*gpsa-analyze:\s*transfer\(([^)]*)\)")

# --- Lexical layer (shared idiom with gpsa_lint.py) ---------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines and
    column positions so line/offset arithmetic matches the original."""
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
            elif c == "\n":
                state = NORMAL
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def match_brace(text: str, open_pos: int) -> int:
    """Offset of the `}` closing the `{` at open_pos (len(text) if
    unbalanced)."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


# --- Model --------------------------------------------------------------


@dataclass
class ClassInfo:
    name: str
    file: str
    start: int
    end: int
    bases: tuple[str, ...] = ()
    mutexes: dict[str, str] = field(default_factory=dict)  # member -> lock id
    methods: set[str] = field(default_factory=set)
    # member variable -> (class token, is_container); smart pointers and
    # references unwrap to the pointee, vectors/arrays mark is_container
    members: dict[str, tuple[str, bool]] = field(default_factory=dict)


@dataclass
class Acquisition:
    lock: str
    line: int
    held: tuple[str, ...]
    allowed: bool  # inline allow(lock-order) on this line


@dataclass
class CallSite:
    name: str          # unqualified or A::b as written
    receiver: str      # leading receiver expression text ('' for plain)
    line: int
    held: tuple[str, ...]


@dataclass
class BlockSite:
    what: str
    line: int
    allowed: bool  # inline allow(actor-blocking)


@dataclass
class LeaseSite:
    target: str  # LHS expression ('' for a discarded call)
    line: int
    allowed: bool      # inline allow(lease-balance)
    transfer_note: str  # inline transfer(...) note, '' if absent


@dataclass
class Function:
    qname: str
    cls: str | None
    file: str
    line: int
    params: str = ""
    requires: tuple[str, ...] = ()
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockSite] = field(default_factory=list)
    leases: list[LeaseSite] = field(default_factory=list)
    body: str = ""


@dataclass
class Model:
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, Function] = field(default_factory=dict)
    # unqualified name -> qnames defining it
    by_name: dict[str, list[str]] = field(default_factory=dict)
    # lock id -> declaration "file:line"
    lock_decls: dict[str, str] = field(default_factory=dict)
    # Class::method -> required locks (from header declarations)
    requires: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # class member name -> candidate classes declaring a Mutex of that name
    mutex_owners: dict[str, list[str]] = field(default_factory=dict)


# --- Structural frontend ------------------------------------------------

CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:GPSA_\w+\([^)]*\)\s+)?(\w+)\s*"
    r"(?:final\s*)?(?::\s*([^{;]*))?\{")
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:mutable\s+)?Mutex\s+(\w+)\s*[;{]")
# `Type Class::name(args)` or in-class `name(args)` followed by optional
# qualifiers/annotations, then `{`. The name token is the identifier
# immediately before the parameter list.
FUNC_DEF_RE = re.compile(
    r"(?:^|[;{}()]|\n)\s*"               # definition boundary
    r"(?:template\s*<[^<>]*>\s*)?"
    r"(?:[\w:<>,*&~\[\]\s]+?\s)??"       # return type (optional for ctors)
    r"((?:\w+::)*[~\w]+)\s*"             # qualified name
    r"\(([^;{}]*)\)\s*"                  # parameter list
    r"((?:const|noexcept|override|final|->\s*[\w:<>&*]+|&&?|"
    r"GPSA_\w+\([^()]*\)|\s)*)"          # trailer (annotations etc.)
    r"\{", re.DOTALL)
REQUIRES_IN_TRAILER_RE = re.compile(r"GPSA_REQUIRES\(([^)]*)\)")
REQUIRES_DECL_RE = re.compile(
    r"(\w+)\s*\([^;{})]*\)\s*(?:const\s*)?"
    r"(?:GPSA_\w+\([^()]*\)\s*)*GPSA_REQUIRES\(([^)]*)\)")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+(\w+)\s*[({]\s*([\w.\->\[\]]+)\s*[)}]")
MANUAL_LOCK_RE = re.compile(r"\b([\w.\->\[\]]+?)(?:\.|->)lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"\b([\w.\->\[\]]+?)(?:\.|->)unlock\s*\(\s*\)")
CALL_RE = re.compile(
    r"([A-Za-z_][\w.\[\]>-]*(?:\.|->))?((?:\w+::)*\w+)\s*\(")
BRACE_RE = re.compile(r"[{}]")

BLOCKING_RES = (
    (re.compile(r"(?:\.|->)wait\s*\("), "condition-variable/atomic wait"),
    (re.compile(r"(?:\.|->)wait_for_ms\s*\("), "timed condition wait"),
    (re.compile(r"(?:\.|->)wait_(?:for|until)\s*\("), "timed wait"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    (re.compile(r"(?<![\w.>])(?:::\s*)?(?:usleep|nanosleep)\s*\("), "sleep"),
    (re.compile(r"(?<![\w>])::\s*(?:poll|ppoll)\s*\("), "blocking poll"),
    (re.compile(r"(?<![\w>])::\s*(?:send|sendto|sendmsg|recv|recvmsg"
                r"|recvfrom|accept4?|connect)\s*\("),
     "blocking socket syscall"),
    (re.compile(r"(?<![\w>])::\s*(?:pread|pwrite|read|write|fsync"
                r"|fdatasync)\s*\("), "blocking file syscall"),
    (re.compile(r"(?:\.|->)join\s*\("), "thread join"),
)

LEASE_RE = re.compile(
    r"(?:((?:auto|std::vector<\s*VertexMessage\s*>)\s+)?"
    r"([\w.\[\]>-]+)\s*=\s*)?"
    r"[\w.\[\]>-]*?\blease\s*\(\s*\)")

MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|const\s+|constexpr\s+)*"
    r"((?:std::)?[\w:]+(?:<[^;{}()]*>)?)\s*([*&]?)\s+(\w+)\s*"
    r"(?:=[^;{}]*|\{[^;{}]*\})?;", re.MULTILINE)

# Lambda literals handed to these call names execute on another thread
# (or later); their bodies must not be attributed to the enclosing
# function when computing actor reachability or held-at-call sets.
DEFER_SINKS = frozenset((
    "submit", "post", "enqueue", "dispatch", "spawn", "thread", "async",
    "emplace_back",  # worker-thread vectors: threads_.emplace_back([..]{..})
))
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")

SMART_PTRS = ("unique_ptr", "shared_ptr", "optional", "reference_wrapper")
CONTAINERS = ("vector", "array", "deque", "span")


def class_token(type_str: str) -> tuple[str, bool]:
    """('ComputerActor', True) for `std::vector<ComputerActor*>`,
    ('BlockCacheStream', False) for `std::unique_ptr<BlockCacheStream>`,
    ('ManagerActor', False) for `ManagerActor*`."""
    t = type_str.strip()
    m = re.match(r"(?:std::)?(\w+)\s*<\s*(.*)>\s*$", t, re.DOTALL)
    if m:
        outer, inner = m.group(1), m.group(2)
        first = inner.split(",")[0]
        if outer in CONTAINERS:
            return class_token(first)[0], True
        if outer in SMART_PTRS:
            return class_token(first)
        return outer, False  # Actor<TransportMsg> -> Actor
    t = t.rstrip("*& ").strip()
    return t.split("::")[-1], False

KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "static_cast", "reinterpret_cast", "const_cast",
    "dynamic_cast", "alignof", "decltype", "throw", "co_await", "assert",
    "defined", "static_assert", "noexcept",
))


def innermost_class(classes: list[ClassInfo], pos: int) -> ClassInfo | None:
    best = None
    for cls in classes:
        if cls.start <= pos < cls.end:
            if best is None or cls.start > best.start:
                best = cls
    return best


def parse_classes(stripped: str, rel: str) -> list[ClassInfo]:
    out = []
    for m in CLASS_RE.finditer(stripped):
        open_pos = m.end() - 1
        end = match_brace(stripped, open_pos)
        bases = ()
        if m.group(2):
            bases = tuple(
                re.sub(r"<.*", "", b.strip().split()[-1])
                for b in m.group(2).split(",") if b.strip())
        out.append(ClassInfo(name=m.group(1), file=rel, start=open_pos,
                             end=end, bases=bases))
    return out


def root_identifier(expr: str) -> str:
    """Leading identifier of an lvalue expression: `msg.batch` -> `msg`,
    `slot->pending[q]` -> `slot`."""
    m = re.match(r"[A-Za-z_]\w*", expr)
    return m.group(0) if m else expr


def trailing_identifier(expr: str) -> str:
    """Final member name of a mutex expression: `state.mutex_` -> `mutex_`,
    `g_sink_mutex` -> itself."""
    parts = re.split(r"\.|->", expr)
    return parts[-1].strip("[]() ")


class StructuralFrontend:
    """Builds the Model from raw project sources."""

    def __init__(self, root: Path):
        self.root = root
        self.model = Model()
        self._raw_lines: dict[str, list[str]] = {}

    def raw_line(self, rel: str, line: int) -> str:
        lines = self._raw_lines.get(rel, [])
        return lines[line - 1] if 1 <= line <= len(lines) else ""

    def load(self, files: list[tuple[Path, str]]):
        texts = {}
        for path, rel in files:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue
            self._raw_lines[rel] = text.splitlines()
            texts[rel] = strip_comments_and_strings(text)
        # Pass 1: classes + mutex members + REQUIRES declarations.
        spans = {}
        for rel, stripped in texts.items():
            classes = parse_classes(stripped, rel)
            spans[rel] = classes
            for cls in classes:
                body = stripped[cls.start:cls.end]
                for m in MUTEX_MEMBER_RE.finditer(body):
                    member = m.group(1)
                    lock_id = f"{cls.name}::{member}"
                    cls.mutexes[member] = lock_id
                    self.model.lock_decls[lock_id] = (
                        f"{rel}:{line_of(stripped, cls.start + m.start())}")
                    self.model.mutex_owners.setdefault(member, []).append(
                        cls.name)
                for m in REQUIRES_DECL_RE.finditer(body):
                    locks = tuple(
                        f"{cls.name}::{trailing_identifier(a.strip())}"
                        for a in m.group(2).split(",") if a.strip())
                    self.model.requires[f"{cls.name}::{m.group(1)}"] = locks
                for m in MEMBER_DECL_RE.finditer(body):
                    type_str, ptr, member = m.groups()
                    if type_str in ("return", "delete", "using", "typedef",
                                    "else", "case", "goto", "namespace"):
                        continue
                    token, is_container = class_token(type_str + ptr)
                    cls.members.setdefault(member, (token, is_container))
                key = cls.name
                if key not in self.model.classes:
                    self.model.classes[key] = cls
                else:  # merge decl + definition-file views
                    existing = self.model.classes[key]
                    existing.mutexes.update(cls.mutexes)
                    for member, typed in cls.members.items():
                        existing.members.setdefault(member, typed)
                    if not existing.bases:
                        existing.bases = cls.bases
            # File-scope mutexes (e.g. logging's g_sink_mutex).
            file_level = stripped
            for m in MUTEX_MEMBER_RE.finditer(file_level):
                if innermost_class(classes, m.start()) is None:
                    lock_id = m.group(1)
                    self.model.lock_decls.setdefault(
                        lock_id, f"{rel}:{line_of(stripped, m.start())}")
        # Pass 2: function definitions with bodies.
        for rel, stripped in texts.items():
            self._parse_functions(rel, stripped, spans[rel])

    # -- function parsing -------------------------------------------------

    def _parse_functions(self, rel: str, stripped: str,
                         classes: list[ClassInfo]):
        pos = 0
        while True:
            m = FUNC_DEF_RE.search(stripped, pos)
            if m is None:
                break
            name = m.group(1)
            open_pos = m.end() - 1
            unqualified = name.split("::")[-1]
            if (unqualified in KEYWORDS or name.startswith("operator")
                    or "::operator" in name):
                pos = m.end()
                continue
            end = match_brace(stripped, open_pos)
            cls_info = innermost_class(classes, m.start(1))
            if "::" in name:
                qname = name
                cls_name = name.rsplit("::", 1)[0].split("::")[-1]
            elif cls_info is not None:
                qname = f"{cls_info.name}::{name}"
                cls_name = cls_info.name
            else:
                qname = name
                cls_name = None
            fn = Function(qname=qname, cls=cls_name, file=rel,
                          line=line_of(stripped, m.start(1)),
                          params=m.group(2) or "",
                          body=stripped[open_pos:end])
            requires = []
            for rm in REQUIRES_IN_TRAILER_RE.finditer(m.group(3) or ""):
                for arg in rm.group(1).split(","):
                    requires.append(self._resolve_lock(
                        arg.strip(), cls_name, None))
            hdr_req = self.model.requires.get(qname, ())
            fn.requires = tuple(dict.fromkeys([*requires, *hdr_req]))
            self._parse_body(fn, stripped, open_pos, end, rel, cls_name)
            if cls_name is not None and cls_name in self.model.classes:
                self.model.classes[cls_name].methods.add(unqualified)
            # Keep the richer definition when a name collides (e.g. a
            # declaration-only match parsed earlier).
            prior = self.model.functions.get(qname)
            if prior is None or len(fn.body) > len(prior.body):
                self.model.functions[qname] = fn
                if prior is None:
                    self.model.by_name.setdefault(
                        unqualified, []).append(qname)
            pos = open_pos + 1  # allow nested lambdas to be re-scanned

    def _resolve_lock(self, expr: str, cls_name: str | None,
                      local_locks: dict[str, str] | None) -> str:
        """Maps a mutex expression to a lock id."""
        member = trailing_identifier(expr)
        if local_locks and expr in local_locks:
            return local_locks[expr]
        if cls_name is not None:
            cls = self.model.classes.get(cls_name)
            if cls is not None and member in cls.mutexes:
                return cls.mutexes[member]
        if member in self.model.lock_decls and "::" not in member:
            return member  # file-scope global
        owners = self.model.mutex_owners.get(member, [])
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        if cls_name is not None:
            return f"{cls_name}::{member}"  # best effort
        return member

    def _parse_body(self, fn: Function, stripped: str, start: int, end: int,
                    rel: str, cls_name: str | None):
        body = stripped[start:end]

        # Lambdas passed to deferred-execution sinks (IoThreadPool::submit,
        # std::thread, ...) run on another thread: split each off into a
        # synthetic function so its blocking sites are not attributed to
        # this function's call path and its held-set starts empty, then
        # blank the range here.
        deferred: list[tuple[int, int]] = []
        for lam in LAMBDA_RE.finditer(body):
            open_b = body.rindex("{", lam.start(), lam.end())
            if any(ob <= lam.start() <= cb for ob, cb in deferred):
                continue
            pre = body[max(0, lam.start() - 80):lam.start()]
            mpre = re.search(r"(\w+)\s*\(\s*(?:[^()]*,)?\s*$", pre)
            if not (mpre and mpre.group(1) in DEFER_SINKS):
                continue
            close_b = match_brace(body, open_b)
            deferred.append((open_b, close_b))
            lam_line = line_of(stripped, start + open_b)
            synth = Function(
                qname=f"{fn.qname}::{{lambda:{lam_line}}}", cls=cls_name,
                file=rel, line=lam_line, params=fn.params,
                body=body[open_b:close_b + 1])
            self._parse_body(synth, stripped, start + open_b,
                             start + close_b + 1, rel, cls_name)
            self.model.functions[synth.qname] = synth
        if deferred:
            chars = list(body)
            for ob, cb in deferred:
                for i in range(ob, min(cb + 1, len(chars))):
                    if chars[i] != "\n":
                        chars[i] = " "
            body = "".join(chars)
            fn.body = body

        def allowed(line: int, rule: str) -> bool:
            m = ALLOW_RE.search(self.raw_line(rel, line))
            return bool(m and m.group(1) == rule)

        # Scope-tracked held set: events in offset order.
        events = []
        for m in BRACE_RE.finditer(body):
            events.append((m.start(), "brace", m.group(), None))
        lock_vars: dict[str, str] = {}
        for m in MUTEXLOCK_RE.finditer(body):
            lock_id = self._resolve_lock(m.group(2), cls_name, None)
            lock_vars[m.group(1)] = lock_id
            events.append((m.start(), "acquire", m.group(1), lock_id))
        for m in MANUAL_LOCK_RE.finditer(body):
            target = m.group(1)
            if target in lock_vars:  # MutexLock re-lock
                events.append((m.start(), "acquire", target,
                               lock_vars[target]))
            else:
                lock_id = self._resolve_lock(target, cls_name, None)
                if self._is_known_lock(lock_id):
                    events.append((m.start(), "acquire", target, lock_id))
        for m in MANUAL_UNLOCK_RE.finditer(body):
            events.append((m.start(), "release", m.group(1), None))
        events.sort(key=lambda e: e[0])

        frames: list[dict[str, str]] = [{}]

        def held() -> tuple[str, ...]:
            seen = []
            for frame in frames:
                for lock in frame.values():
                    if lock not in seen:
                        seen.append(lock)
            return tuple(seen)

        # Interleave call/blocking/lease scanning with the scope walk by
        # collecting their offsets first.
        marks = []
        for m in CALL_RE.finditer(body):
            name = m.group(2)
            if name.split("::")[-1] in KEYWORDS:
                continue
            receiver = (m.group(1) or "").rstrip(".->")
            marks.append((m.start(), "call", name, receiver))
        for regex, what in BLOCKING_RES:
            for m in regex.finditer(body):
                marks.append((m.start(), "block", what, None))
        for m in LEASE_RE.finditer(body):
            marks.append((m.start(), "lease", m.group(2) or "", None))
        stream = sorted(events + marks, key=lambda e: e[0])

        for pos, kind, a, b in stream:
            line = line_of(stripped, start + pos)
            if kind == "brace":
                if a == "{":
                    frames.append({})
                elif len(frames) > 1:
                    frames.pop()
            elif kind == "acquire":
                fn.acquisitions.append(Acquisition(
                    lock=b, line=line, held=held(),
                    allowed=allowed(line, "lock-order")))
                frames[-1][a] = b
            elif kind == "release":
                for frame in reversed(frames):
                    if a in frame:
                        del frame[a]
                        break
            elif kind == "call":
                fn.calls.append(CallSite(name=a, receiver=b or "",
                                         line=line, held=held()))
            elif kind == "block":
                fn.blocking.append(BlockSite(
                    what=a, line=line,
                    allowed=allowed(line, "actor-blocking")))
            elif kind == "lease":
                raw = self.raw_line(rel, line)
                note = TRANSFER_RE.search(raw)
                fn.leases.append(LeaseSite(
                    target=a, line=line,
                    allowed=allowed(line, "lease-balance"),
                    transfer_note=note.group(1) if note else ""))
        # GPSA_LOG acquires the logging sink mutex behind the macro; model
        # it so "holding X while logging" edges exist in the graph.
        if "g_sink_mutex" in self.model.lock_decls:
            for m in re.finditer(r"\bGPSA_LOG\s*\(", body):
                line = line_of(stripped, start + m.start())
                fn.acquisitions.append(Acquisition(
                    lock="g_sink_mutex", line=line, held=(),
                    allowed=allowed(line, "lock-order")))

    def _is_known_lock(self, lock_id: str) -> bool:
        return (lock_id in self.model.lock_decls
                or lock_id.split("::")[-1] in self.model.mutex_owners)


def try_libclang_refinement(model: Model, files: list[tuple[Path, str]],
                            compile_commands: Path | None) -> str:
    """When python-clang is importable, re-derives call edges from the
    real AST (exact overload/receiver resolution) and merges them into
    the structural model. Returns the frontend tag actually in effect."""
    try:
        import clang.cindex  # type: ignore[import-not-found]
    except ImportError:
        return "structural"
    try:
        index = clang.cindex.Index.create()
    except Exception:  # missing libclang.so despite bindings
        return "structural"
    if compile_commands is None:
        return "structural"
    try:
        db = clang.cindex.CompilationDatabase.fromDirectory(
            str(compile_commands.parent))
    except Exception:
        return "structural"
    kinds = clang.cindex.CursorKind
    for path, rel in files:
        if path.suffix != ".cpp":
            continue
        commands = db.getCompileCommands(str(path))
        if not commands:
            continue
        args = [a for a in list(commands[0].arguments)[1:]
                if a not in ("-c", "-o", str(path))]
        try:
            tu = index.parse(str(path), args=args)
        except Exception:
            continue

        def walk(cursor, current):
            if cursor.kind in (kinds.CXX_METHOD, kinds.FUNCTION_DECL,
                               kinds.CONSTRUCTOR, kinds.DESTRUCTOR):
                if cursor.is_definition():
                    parent = cursor.semantic_parent
                    qname = cursor.spelling
                    if parent is not None and parent.kind in (
                            kinds.CLASS_DECL, kinds.STRUCT_DECL,
                            kinds.CLASS_TEMPLATE):
                        qname = f"{parent.spelling}::{cursor.spelling}"
                    current = model.functions.get(qname)
            elif cursor.kind == kinds.CALL_EXPR and current is not None:
                ref = cursor.referenced
                if ref is not None:
                    parent = ref.semantic_parent
                    callee = ref.spelling
                    if parent is not None and parent.kind in (
                            kinds.CLASS_DECL, kinds.STRUCT_DECL,
                            kinds.CLASS_TEMPLATE):
                        callee = f"{parent.spelling}::{ref.spelling}"
                    if callee in model.functions:
                        loc = cursor.location
                        current.calls.append(CallSite(
                            name=callee, receiver="", line=loc.line,
                            held=()))
            for child in cursor.get_children():
                walk(child, current)

        walk(tu.cursor, None)
    return "libclang+structural"


# --- Call resolution ----------------------------------------------------


def resolve_call(model: Model, fn: Function, call: CallSite) -> list[str]:
    """Qualified-name targets for a call site."""
    if "::" in call.name:
        return [call.name] if call.name in model.functions else []
    candidates = model.by_name.get(call.name, [])
    if not candidates:
        return []
    if len(candidates) == 1:
        return list(candidates)
    # Same-class method beats everything for unreceivered calls, and for
    # `this`-implied receivers.
    if fn.cls is not None and not call.receiver:
        same = [q for q in candidates if q.startswith(f"{fn.cls}::")]
        if same:
            return same
        # No receiver and no same-class match: a free function if one
        # exists, else conservatively all.
        free = [q for q in candidates if "::" not in q]
        if free:
            return free
        return list(candidates)
    if call.receiver:
        cls = infer_receiver_class(model, fn, call.receiver)
        if cls is not None:
            scoped = scoped_candidates(model, cls, call.name)
            if scoped:
                return scoped
            if cls not in model.classes:
                return []  # external type (std::, libc): not our function
    return list(candidates)


def scoped_candidates(model: Model, cls: str, name: str) -> list[str]:
    """Candidates for `name` on a receiver of class `cls`, walking bases;
    virtual names resolve to every override in the hierarchy."""
    out = []
    seen = set()
    frontier = [cls]
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        qname = f"{cur}::{name}"
        if qname in model.functions:
            out.append(qname)
        info = model.classes.get(cur)
        if info is not None:
            frontier.extend(info.bases)
    if out:
        # If the receiver class sits atop a virtual hierarchy, include the
        # overrides in derived classes too (call through base pointer).
        derived = [c for c, info in model.classes.items()
                   if any(b in seen for b in info.bases)
                   and f"{c}::{name}" in model.functions]
        out.extend(f"{c}::{name}" for c in derived
                   if f"{c}::{name}" not in out)
    return out


VEC_ELEM_RE = re.compile(r"std::vector<\s*(\w+)\s*\*?\s*>")


def infer_receiver_class(model: Model, fn: Function,
                         receiver: str) -> str | None:
    """Best-effort type of a receiver expression: member declarations of
    the function's class (and bases), then parameter/local declarations
    in the function body."""
    if receiver == "this":
        return fn.cls
    root = root_identifier(receiver)
    indexed = "[" in receiver or ".front(" in receiver or ".back(" in receiver
    # Class member (walking the base hierarchy).
    frontier = [fn.cls] if fn.cls else []
    seen = set()
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        info = model.classes.get(cur)
        if info is None:
            continue
        if root in info.members:
            token, is_container = info.members[root]
            if is_container and not indexed:
                return None  # calling a method on the container itself
            return token
        frontier.extend(info.bases)
    # Parameter or local declaration.
    decl_res = [
        re.compile(r"(?:std::)?(?:" + "|".join(CONTAINERS) +
                   r")<\s*([\w:]+)\s*\*?\s*>\s*&?\s*" +
                   re.escape(root) + r"\b"),
        re.compile(r"\b([A-Za-z_][\w:]*)\s*[*&]+\s*" +
                   re.escape(root) + r"\b"),
        re.compile(r"\b([A-Za-z_][\w:]*)(?:<[^<>;]*>)?\s+&?" +
                   re.escape(root) + r"\s*[;=({,)]"),
    ]
    for text in (fn.params, fn.body):
        for i, rx in enumerate(decl_res):
            m = rx.search(text)
            if m is None:
                continue
            token = m.group(1).split("::")[-1]
            if token in ("auto", "const", "return", "else"):
                continue
            if i == 0 and not indexed:
                return None
            if i != 0 and indexed:
                continue
            return token
    return None


# --- Checker 1: lock-order ----------------------------------------------


def check_lock_order(model: Model) -> list[dict]:
    # Transitive locks acquired per function (fixpoint).
    direct: dict[str, set[str]] = {}
    callees: dict[str, set[str]] = {}
    for qname, fn in model.functions.items():
        direct[qname] = {a.lock for a in fn.acquisitions if not a.allowed}
        callees[qname] = set()
        for call in fn.calls:
            callees[qname].update(resolve_call(model, fn, call))
    trans = {q: set(locks) for q, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for qname in model.functions:
            before = len(trans[qname])
            for callee in callees[qname]:
                trans[qname] |= trans.get(callee, set())
            if len(trans[qname]) != before:
                changed = True

    # Witness for (function, lock): file:line chain that reaches an
    # acquisition of `lock` starting inside `function`.
    def witness(qname: str, lock: str, seen: frozenset = frozenset()):
        fn = model.functions[qname]
        for acq in fn.acquisitions:
            if acq.lock == lock and not acq.allowed:
                return [f"{fn.file}:{acq.line}: {qname} acquires {lock}"]
        for call in fn.calls:
            for target in resolve_call(model, fn, call):
                if target in seen:
                    continue
                if lock in trans.get(target, ()):
                    tail = witness(target, lock, seen | {qname})
                    if tail is not None:
                        return ([f"{fn.file}:{call.line}: {qname} calls "
                                 f"{target}"] + tail)
        return None

    # Build the order graph with one witness per edge.
    edges: dict[tuple[str, str], list[str]] = {}

    def add_edge(held_lock: str, acquired: str, chain: list[str]):
        if held_lock == acquired:
            return  # same-class nesting handled by lockdep per-instance
        edges.setdefault((held_lock, acquired), chain)

    for qname, fn in model.functions.items():
        for acq in fn.acquisitions:
            if acq.allowed:
                continue
            for h in (*fn.requires, *acq.held):
                add_edge(h, acq.lock,
                         [f"{fn.file}:{acq.line}: {qname} acquires "
                          f"{acq.lock} while holding {h}"])
        for call in fn.calls:
            held_here = tuple(dict.fromkeys((*fn.requires, *call.held)))
            if not held_here:
                continue
            for target in resolve_call(model, fn, call):
                for lock in trans.get(target, ()):
                    for h in held_here:
                        if (h, lock) in edges:
                            continue
                        tail = witness(target, lock)
                        if tail is None:
                            continue
                        add_edge(h, lock,
                                 [f"{fn.file}:{call.line}: {qname} calls "
                                  f"{target} holding {h}"] + tail)

    # Cycle detection (DFS with colors); report each cycle once.
    adjacency: dict[str, list[str]] = {}
    for (a, b) in edges:
        adjacency.setdefault(a, []).append(b)
    findings = []
    reported: set[frozenset] = set()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for pair in edges for n in pair}
    stack: list[str] = []

    def dfs(node: str):
        color[node] = GRAY
        stack.append(node)
        for succ in adjacency.get(node, ()):  # noqa: B023
            if color[succ] == GRAY:
                cycle = stack[stack.index(succ):]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    findings.append(make_cycle_finding(cycle, edges))
            elif color[succ] == WHITE:
                dfs(succ)
        stack.pop()
        color[node] = BLACK

    for node in sorted(color):
        if color[node] == WHITE:
            dfs(node)
    return findings


def make_cycle_finding(cycle: list[str], edges: dict) -> dict:
    path = []
    for i, lock in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        path.append(f"-- order {lock} -> {nxt} established at:")
        path.extend("   " + step for step in edges[(lock, nxt)])
    first = edges[(cycle[0], cycle[1 % len(cycle)])][0]
    file, line = first.split(":", 2)[0:2]
    return {
        "rule": "lock-order",
        "file": file,
        "line": int(line),
        "message": ("acquisition-order cycle: " +
                    " -> ".join(cycle + [cycle[0]])),
        "path": path,
    }


# --- Checker 2: actor-blocking ------------------------------------------

ENTRY_NAMES = ("execute_batch", "on_message")


def check_actor_blocking(model: Model) -> list[dict]:
    findings = []
    entries = sorted(
        q for name in ENTRY_NAMES for q in model.by_name.get(name, []))
    reported: set[tuple[str, str, int]] = set()
    for entry in entries:
        if entry in BLOCKING_ALLOWLIST:
            continue
        # BFS over call edges, skipping allowlisted functions entirely.
        parent: dict[str, tuple[str, int] | None] = {entry: None}
        queue = [entry]
        while queue:
            qname = queue.pop(0)
            fn = model.functions[qname]
            for block in fn.blocking:
                if block.allowed:
                    continue
                key = (entry, fn.file, block.line)
                if key in reported:
                    continue
                reported.add(key)
                chain = []
                node: str | None = qname
                while node is not None:
                    prev = parent[node]
                    if prev is None:
                        chain.append(f"{model.functions[node].file}:"
                                     f"{model.functions[node].line}: "
                                     f"entry {node}")
                    else:
                        chain.append(
                            f"{model.functions[prev[0]].file}:{prev[1]}: "
                            f"{prev[0]} calls {node}")
                    node = prev[0] if prev else None
                chain.reverse()
                chain.append(f"{fn.file}:{block.line}: {block.what}")
                findings.append({
                    "rule": "actor-blocking",
                    "file": fn.file,
                    "line": block.line,
                    "message": (f"{block.what} reachable from actor entry "
                                f"{entry} (add to the allowlist only with "
                                "a mechanism that bounds the stall)"),
                    "path": chain,
                })
            for call in fn.calls:
                for target in resolve_call(model, fn, call):
                    if target in parent or target in BLOCKING_ALLOWLIST:
                        continue
                    parent[target] = (qname, call.line)
                    queue.append(target)
    return findings


# --- Checker 3: lease-balance -------------------------------------------


def check_lease_balance(model: Model) -> list[dict]:
    findings = []
    for qname, fn in sorted(model.functions.items()):
        if qname.endswith("::lease") or qname == "lease":
            continue  # the pool's own implementation
        for lease in fn.leases:
            if lease.allowed or lease.transfer_note:
                continue
            if qname in LEASE_TRANSFER_ALLOWLIST:
                continue
            root = root_identifier(lease.target) if lease.target else ""
            balanced = False
            if root:
                if re.search(r"recycle\s*\(\s*std::move\s*\(\s*" +
                             re.escape(root), fn.body):
                    balanced = True
                elif re.search(r"\bstd::move\s*\(\s*" + re.escape(root) +
                               r"\b", fn.body):
                    balanced = True  # ownership transfer
            if not balanced and "recycle" in fn.body:
                # recycle of some buffer in the same function: accept only
                # exact-root matches above; a generic recycle() elsewhere
                # does not balance THIS lease.
                balanced = False
            if not balanced:
                what = (f"leased buffer `{lease.target}`" if lease.target
                        else "discarded lease() result")
                findings.append({
                    "rule": "lease-balance",
                    "file": fn.file,
                    "line": lease.line,
                    "message": (f"{what} in {qname} neither reaches "
                                "recycle() nor is std::move()d to a new "
                                "owner; recycle it, transfer it, or "
                                "document with // gpsa-analyze: "
                                "transfer(<why>)"),
                    "path": [f"{fn.file}:{lease.line}: lease in {qname}"],
                })
    return findings


# --- Coverage check (clang-tidy / TSA compile-command gate) -------------


def check_coverage(compile_commands: Path | None, root: Path,
                   required: list[str]) -> list[dict]:
    if not required:
        return []
    if compile_commands is None:
        return [{"rule": "coverage", "file": r, "line": 0,
                 "message": "--require-covered needs --compile-commands",
                 "path": []} for r in required]
    try:
        db = json.loads(compile_commands.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return [{"rule": "coverage", "file": str(compile_commands),
                 "line": 0, "message": f"unreadable database: {err}",
                 "path": []}]
    covered = set()
    for entry in db:
        p = (Path(entry["directory"]) / entry["file"]).resolve()
        try:
            covered.add(p.relative_to(root).as_posix())
        except ValueError:
            continue
    findings = []
    for req in required:
        req_norm = req.rstrip("/")
        hit = any(c == req_norm or c.startswith(req_norm + "/")
                  for c in covered)
        if not hit:
            findings.append({
                "rule": "coverage",
                "file": req,
                "line": 0,
                "message": (f"{req} has no entry in "
                            f"{compile_commands.name}: it is invisible to "
                            "clang-tidy, -Werror=thread-safety, and this "
                            "analyzer — wire it into the build"),
                "path": [],
            })
    return findings


# --- Driver -------------------------------------------------------------


def collect_files(root: Path, compile_commands: Path | None,
                  explicit: list[str]) -> list[tuple[Path, str]]:
    pairs: dict[str, Path] = {}

    def add(p: Path):
        p = p.resolve()
        try:
            rel = p.relative_to(root).as_posix()
        except ValueError:
            rel = p.as_posix()
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
            print(f"gpsa_analyze: cannot read {compile_commands}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        for entry in db:
            p = (Path(entry["directory"]) / entry["file"]).resolve()
            if p.suffix in (".cpp", ".hpp") and \
                    p.is_relative_to(root / "src"):
                add(p)
    return sorted((p, rel) for rel, p in pairs.items())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compile-commands", type=Path, default=None)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the JSON report to this file")
    parser.add_argument("--require-covered", nargs="*", default=[],
                        metavar="PATH",
                        help="fail unless these root-relative sources/dirs "
                             "appear in the compilation database")
    parser.add_argument("files", nargs="*",
                        help="analyze only these files (fixture mode)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    files = collect_files(root, args.compile_commands, args.files)
    frontend = StructuralFrontend(root)
    frontend.load(files)
    tag = try_libclang_refinement(frontend.model, files,
                                  args.compile_commands)

    findings = []
    findings.extend(check_lock_order(frontend.model))
    findings.extend(check_actor_blocking(frontend.model))
    findings.extend(check_lease_balance(frontend.model))
    findings.extend(check_coverage(args.compile_commands, root,
                                   args.require_covered))
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    report = {
        "frontend": tag,
        "files_analyzed": len(files),
        "functions": len(frontend.model.functions),
        "locks": sorted(frontend.model.lock_decls),
        "blocking_allowlist": sorted(BLOCKING_ALLOWLIST),
        "findings": findings,
    }
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n",
                               encoding="utf-8")
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for f in findings:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
            for step in f.get("path", []):
                print(f"    {step}")
        print(f"gpsa_analyze[{tag}]: {len(files)} files, "
              f"{len(frontend.model.functions)} functions, "
              f"{len(frontend.model.lock_decls)} locks, "
              f"{len(findings)} finding(s)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
