"""cpp_source: the C++ source frontend of gpsa_lint.py and gpsa_analyze.py.

Both tools read the tree through this module and keep only their rules.
A SourceFile is lexed once, in one pass, into:

  code      the file with every comment and string/char literal blanked
            to spaces (newlines kept), so an offset or line number in it
            is the same as in the file. The rules run over this text.
  tokens    the code tokens (identifiers, numbers, punctuators) as
            (offset, text) pairs. A `'` inside a number is a digit
            separator: `1'000` is one token, not a char literal.
  partner   the offset of the `}` closing each `{`.
  notes     the `//` comment on each line: the suppression comments
            (`// gpsa-lint: allow(<rule>)`, `// gpsa-analyze:
            allow(<rule>)`, `// gpsa-analyze: transfer(<why>)`) and the
            `// gpsa-lint: locked-notify` marker are read from here.

collect_files() is the tools' shared scan set: the files named on the
command line, else <root>/src/**/*.{hpp,cpp}.
"""

from __future__ import annotations

import bisect
import functools
import re
from pathlib import Path

TOKEN_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))
  | (?P<literal>"(?:\\.|[^"\\\n])*"?|'(?:\\.|[^'\\\n])*'?)
  | (?P<number>\.?\d(?:[eEpP][+-]|'?\w|\.)*)
  | (?P<code>::|->|\w+|.)
""", re.VERBOSE | re.DOTALL)

NOT_NEWLINE_RE = re.compile(r"[^\n]")


class SourceFile:
    """One C++ file, lexed once. `rel` is its root-relative display
    path."""

    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.text = text
        self.tokens: list[tuple[int, str]] = []
        self.notes: dict[int, str] = {}
        self.line_starts = [0]
        self.line_starts.extend(m.end() for m in re.finditer("\n", text))
        pieces = []
        for m in TOKEN_RE.finditer(text):
            kind = m.lastgroup
            piece = m.group()
            if kind == "comment" or kind == "literal":
                if piece.startswith("//"):
                    self.notes[self.line(m.start())] = piece
                piece = NOT_NEWLINE_RE.sub(" ", piece)
            elif kind != "space":
                self.tokens.append((m.start(), piece))
            pieces.append(piece)
        self.code = "".join(pieces)
        self.brace_list = [(pos, tok) for pos, tok in self.tokens
                           if tok == "{" or tok == "}"]
        self.partner: dict[int, int] = {}
        opens = []
        for pos, tok in self.brace_list:
            if tok == "{":
                opens.append(pos)
            elif opens:
                self.partner[opens.pop()] = pos

    @classmethod
    def read(cls, path: Path, rel: str) -> SourceFile:
        """Raises OSError when the file cannot be read."""
        return cls(rel, path.read_text(encoding="utf-8", errors="replace"))

    def line(self, pos: int) -> int:
        """1-based line of an offset."""
        return bisect.bisect_right(self.line_starts, pos)

    def match_brace(self, open_pos: int) -> int:
        """Offset of the `}` closing the `{` at open_pos (len(code) if
        the file leaves it open)."""
        return self.partner.get(open_pos, len(self.code))

    def braces(self, start: int, end: int) -> list[tuple[int, str]]:
        """(offset, `{` or `}`) for each brace in [start, end)."""
        lo = bisect.bisect_left(self.brace_list, (start,))
        hi = bisect.bisect_left(self.brace_list, (end,))
        return self.brace_list[lo:hi]

    def note(self, tool: str, verb: str, line: int) -> str | None:
        """The argument of a `// <tool>: <verb>(<arg>)` comment on
        `line`, or None."""
        m = _note_re(tool, verb).search(self.notes.get(line, ""))
        return m.group(1) if m else None

    def allowed(self, tool: str, line: int, rule: str) -> bool:
        return self.note(tool, "allow", line) == rule


@functools.lru_cache(maxsize=None)
def _note_re(tool: str, verb: str) -> re.Pattern:
    return re.compile(rf"//\s*{re.escape(tool)}:\s*{verb}\(([^)]*)\)")


def collect_files(root: Path, explicit: list[str]) -> list[tuple[Path, str]]:
    """(absolute path, root-relative display path) pairs, sorted: the
    named files, else every .hpp/.cpp under <root>/src."""
    pairs: dict[str, Path] = {}
    paths = ([Path(name) for name in explicit] if explicit else
             [*root.glob("src/**/*.hpp"), *root.glob("src/**/*.cpp")])
    for p in paths:
        p = p.resolve()
        try:
            rel = p.relative_to(root).as_posix()
        except ValueError:
            rel = p.as_posix()  # outside root (fixtures under odd cwd)
        pairs.setdefault(rel, p)
    return sorted((p, rel) for rel, p in pairs.items())


def print_findings(findings: list[dict]):
    for f in findings:
        print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        for step in f.get("path", []):
            print(f"    {step}")
