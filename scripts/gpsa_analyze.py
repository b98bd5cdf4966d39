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
                   `// gpsa-analyze: transfer(<why>)` note. A store into
                   a member is neither: it moves the recycle obligation
                   out of the function, so it too needs the note naming
                   who recycles the batch. A leased buffer that silently
                   dies is not a leak (the pool tolerates drops) but it is
                   a steady-state pool miss in disguise.

The model is built from the token stream of scripts/cpp_source.py, the
source frontend this tool shares with gpsa_lint.py: comment- and
string-blind code text, brace-matched class and function spans, member-type
receiver resolution with base-class/virtual fan-out, and lambdas handed to
deferral sinks split off into functions of their own.

Suppression: append `// gpsa-analyze: allow(<rule>)` to the offending
line (the acquisition site, the blocking primitive, or the lease).

Usage:
  gpsa_analyze.py [--root DIR] [--compile-commands JSON] [--json]
                  [--report FILE] [--require-covered PATH ...] [files...]

With no file arguments the analyzer scans <root>/src/**/*.{hpp,cpp}.
--require-covered fails (rule `coverage`) when a named source file or
directory has no entry in the --compile-commands database: the guard that
keeps new subsystems from silently falling out of the clang-tidy/TSA gate.
Exit status is 1 when findings remain after suppression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path

from cpp_source import SourceFile, collect_files, print_findings

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

RULES = ("lock-order", "actor-blocking", "lease-balance", "coverage")

TOOL = "gpsa-analyze"  # the suppression-comment prefix

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


# --- Model builder ------------------------------------------------------

CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:GPSA_\w+\([^)]*\)\s+)?(\w+)\s*"
    r"(?:final\s*)?(?::\s*([^{;]*))?\{")
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:mutable\s+)?Mutex\s+(\w+)\s*[;{]")
# A function definition head, found by the token walk in function_heads:
# a name (`f`, `A::b`, `A::~A`) at a definition boundary (`;{}()`, a line
# start or the file start), after at most a return type of
# RETURN_TYPE_CHARS that ends in whitespace; then `(`, a parameter list
# with no `;{}`, and the last `)` before the `{` whose tail is a trailer
# of qualifiers and annotations.
RETURN_TYPE_CHARS = frozenset(string.ascii_letters + string.digits +
                              "_:<>,*&~[]")
TRAILER_RE = re.compile(
    r"(?:const|noexcept|override|final|->\s*[\w:<>&*]+|&&?|"
    r"GPSA_\w+\([^()]*\)|\s)*")
REQUIRES_IN_TRAILER_RE = re.compile(r"GPSA_REQUIRES\(([^)]*)\)")
REQUIRES_DECL_RE = re.compile(
    r"(\w+)\s*\([^;{})]*\)\s*(?:const\s*)?"
    r"(?:GPSA_\w+\([^()]*\)\s*)*GPSA_REQUIRES\(([^)]*)\)")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+(\w+)\s*[({]\s*([\w.\->\[\]]+)\s*[)}]")
MANUAL_LOCK_RE = re.compile(r"\b([\w.\->\[\]]+?)(?:\.|->)lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"\b([\w.\->\[\]]+?)(?:\.|->)unlock\s*\(\s*\)")
CALL_RE = re.compile(
    r"([A-Za-z_][\w.\[\]>-]*(?:\.|->))?((?:\w+::)*\w+)\s*\(")

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


def parse_classes(src: SourceFile) -> list[ClassInfo]:
    out = []
    for m in CLASS_RE.finditer(src.code):
        open_pos = m.end() - 1
        bases = ()
        if m.group(2):
            bases = tuple(
                re.sub(r"<.*", "", b.strip().split()[-1])
                for b in m.group(2).split(",") if b.strip())
        out.append(ClassInfo(name=m.group(1), file=src.rel, start=open_pos,
                             end=src.match_brace(open_pos), bases=bases))
    return out


def function_heads(src: SourceFile):
    """Yields (name, name offset, params, trailer, `{` offset) for each
    function definition head, keywords (`if (x) {`) included, in file
    order. The walk resumes inside each body, so nested heads (a lambda
    bound by a constructor call, say) are found too."""
    toks = src.tokens
    code = src.code
    # stop[k]: index of the first `;`, `{` or `}` token at or after k.
    stop = [len(toks)] * (len(toks) + 1)
    for k in range(len(toks) - 1, -1, -1):
        stop[k] = k if toks[k][1] in (";", "{", "}") else stop[k + 1]
    resume = 0
    for i, (paren, tok) in enumerate(toks):
        if tok != "(" or i == 0 or paren < resume:
            continue
        e = stop[i]
        if e == len(toks) or toks[e][1] != "{":
            continue
        open_pos = toks[e][0]
        close = next((toks[k][0] for k in range(e - 1, i, -1)
                      if toks[k][1] == ")" and
                      TRAILER_RE.fullmatch(code, toks[k][0] + 1, open_pos)),
                     None)
        j = _name_start(toks, i)
        if close is None or j is None or \
                not _at_boundary(toks, j, code, resume):
            continue
        name_pos = toks[j][0]
        yield (code[name_pos:toks[i - 1][0] + len(toks[i - 1][1])],
               name_pos, code[paren + 1:close], code[close + 1:open_pos],
               open_pos)
        resume = open_pos + 1


def _name_start(toks: list[tuple[int, str]], i: int) -> int | None:
    """Index of the first token of the (qualified) name ending just
    before the `(` at toks[i], or None."""
    def word(k: int) -> bool:
        return toks[k][1][0].isalpha() or toks[k][1][0] == "_"

    def touches(k: int) -> bool:  # no space between toks[k] and toks[k+1]
        return toks[k][0] + len(toks[k][1]) == toks[k + 1][0]

    j = i - 1
    if not word(j):
        return None
    if j >= 1 and toks[j - 1][1] == "~" and touches(j - 1):
        j -= 1
    while j >= 2 and toks[j - 1][1] == "::" and touches(j - 1) \
            and word(j - 2) and touches(j - 2):
        j -= 2
    return j


def _at_boundary(toks: list[tuple[int, str]], j: int, code: str,
                 resume: int) -> bool:
    """True when the name at toks[j] starts a definition: walking back
    over a return type that ends in whitespace reaches a boundary at or
    after `resume`."""
    end = toks[j][0]
    for k in range(j - 1, -2, -1):
        prev_end = toks[k][0] + len(toks[k][1]) if k >= 0 else 0
        newline = code.rfind("\n", prev_end, end)
        if newline >= 0:
            return newline >= resume
        if k < 0:
            return resume == 0
        tok = toks[k][1]
        if tok in (";", "{", "}", "(", ")"):
            return toks[k][0] >= resume
        if not RETURN_TYPE_CHARS.issuperset(tok) or \
                (k == j - 1 and prev_end == end):
            return False
        end = toks[k][0]
    return False


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


class ModelBuilder:
    """Builds the Model from the project's sources."""

    def __init__(self):
        self.model = Model()

    def load(self, files: list[tuple[Path, str]]):
        sources = []
        for path, rel in files:
            try:
                sources.append(SourceFile.read(path, rel))
            except OSError:
                continue
        # Pass 1: classes + mutex members + REQUIRES declarations.
        spans = {}
        for src in sources:
            classes = parse_classes(src)
            spans[src.rel] = classes
            for cls in classes:
                body = src.code[cls.start:cls.end]
                for m in MUTEX_MEMBER_RE.finditer(body):
                    member = m.group(1)
                    lock_id = f"{cls.name}::{member}"
                    cls.mutexes[member] = lock_id
                    self.model.lock_decls[lock_id] = (
                        f"{src.rel}:{src.line(cls.start + m.start())}")
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
            for m in MUTEX_MEMBER_RE.finditer(src.code):
                if innermost_class(classes, m.start()) is None:
                    self.model.lock_decls.setdefault(
                        m.group(1), f"{src.rel}:{src.line(m.start())}")
        # Pass 2: function definitions with bodies.
        for src in sources:
            self._parse_functions(src, spans[src.rel])

    # -- function parsing -------------------------------------------------

    def _parse_functions(self, src: SourceFile, classes: list[ClassInfo]):
        for name, name_pos, params, trailer, open_pos in function_heads(src):
            unqualified = name.split("::")[-1]
            if (unqualified in KEYWORDS or name.startswith("operator")
                    or "::operator" in name):
                continue
            end = src.match_brace(open_pos)
            cls_info = innermost_class(classes, name_pos)
            if "::" in name:
                qname = name
                cls_name = name.rsplit("::", 1)[0].split("::")[-1]
            elif cls_info is not None:
                qname = f"{cls_info.name}::{name}"
                cls_name = cls_info.name
            else:
                qname = name
                cls_name = None
            fn = Function(qname=qname, cls=cls_name, file=src.rel,
                          line=src.line(name_pos), params=params,
                          body=src.code[open_pos:end])
            requires = []
            for rm in REQUIRES_IN_TRAILER_RE.finditer(trailer):
                for arg in rm.group(1).split(","):
                    requires.append(self._resolve_lock(
                        arg.strip(), cls_name, None))
            hdr_req = self.model.requires.get(qname, ())
            fn.requires = tuple(dict.fromkeys([*requires, *hdr_req]))
            self._parse_body(fn, src, open_pos, end, cls_name)
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

    def _parse_body(self, fn: Function, src: SourceFile, start: int,
                    end: int, cls_name: str | None):
        body = src.code[start:end]

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
            close_b = src.match_brace(start + open_b) - start
            deferred.append((open_b, close_b))
            lam_line = src.line(start + open_b)
            synth = Function(
                qname=f"{fn.qname}::{{lambda:{lam_line}}}", cls=cls_name,
                file=src.rel, line=lam_line, params=fn.params,
                body=body[open_b:close_b + 1])
            self._parse_body(synth, src, start + open_b,
                             start + close_b + 1, cls_name)
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
            return src.allowed(TOOL, line, rule)

        # Scope-tracked held set: events in offset order.
        events = [(pos - start, "brace", tok, None)
                  for pos, tok in src.braces(start, end)
                  if not any(ob <= pos - start <= cb for ob, cb in deferred)]
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
            line = src.line(start + pos)
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
                fn.leases.append(LeaseSite(
                    target=a, line=line,
                    allowed=allowed(line, "lease-balance"),
                    transfer_note=src.note(TOOL, "transfer", line) or ""))
        # GPSA_LOG acquires the logging sink mutex behind the macro; model
        # it so "holding X while logging" edges exist in the graph.
        if "g_sink_mutex" in self.model.lock_decls:
            for m in re.finditer(r"\bGPSA_LOG\s*\(", body):
                line = src.line(start + m.start())
                fn.acquisitions.append(Acquisition(
                    lock="g_sink_mutex", line=line, held=(),
                    allowed=allowed(line, "lock-order")))

    def _is_known_lock(self, lock_id: str) -> bool:
        return (lock_id in self.model.lock_decls
                or lock_id.split("::")[-1] in self.model.mutex_owners)


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
            # Balanced when the buffer is std::move()d in this function:
            # back to the pool (`recycle(std::move(b))`) or to a new owner.
            # Another buffer's recycle() does not balance this lease.
            root = root_identifier(lease.target) if lease.target else ""
            if root and re.search(r"\bstd::move\s*\(\s*" +
                                  re.escape(root) + r"\b", fn.body):
                continue
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compilation database --require-covered "
                             "checks")
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
    files = collect_files(root, args.files)
    builder = ModelBuilder()
    builder.load(files)
    model = builder.model

    findings = []
    findings.extend(check_lock_order(model))
    findings.extend(check_actor_blocking(model))
    findings.extend(check_lease_balance(model))
    findings.extend(check_coverage(args.compile_commands, root,
                                   args.require_covered))
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    report = {
        "files_analyzed": len(files),
        "functions": len(model.functions),
        "locks": sorted(model.lock_decls),
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
        print_findings(findings)
        print(f"gpsa_analyze: {len(files)} files, "
              f"{len(model.functions)} functions, "
              f"{len(model.lock_decls)} locks, "
              f"{len(findings)} finding(s)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
