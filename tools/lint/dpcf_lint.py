#!/usr/bin/env python3
"""DPCF static analysis: the repo's own rules, on one python3-only engine.

The compiler enforces the contracts it can: [[nodiscard]] on Status,
Result<T> and the scope-only RAII guards, the metric naming convention
(MetricName's consteval constructor), and clang -Wthread-safety on the
latch annotations (tests/negative_compile proves all three fire). This
script checks the domain rules no compiler knows about (DESIGN.md section
9 has the catalog and the rationale for each):

  dpcf-mutex-annotation     raw std::mutex in src/; a dpcf::Mutex that
                            guards no GUARDED_BY state
  dpcf-nondeterminism       src/core + src/exec code reaching ambient
                            entropy (rand, time, random_device,
                            *_clock::now, default-constructed mt19937)
                            through the call graph
  dpcf-charge-conservation  a page-image read with a return path charging
                            neither IoStats nor CpuStats
  dpcf-include-hygiene      missing #pragma once, parent-relative includes,
                            .cc not including its own header first
  dpcf-naked-new            naked new/delete
  dpcf-eval-in-morsel       per-row predicate/monitor calls inside page
                            row loops in src/exec
  dpcf-simd-intrinsics      raw vector intrinsics outside src/exec/simd*

Line rules match regexes against each file's code with comments and
string contents blanked. The call-graph rules run on a token-level model
of every function definition in the analyzed src/ files: a tokenizer
plus brace matching, not a C++ parser, so on code it cannot follow it
errs toward not reporting (DESIGN.md section 13).

Usage:
  tools/lint/dpcf_lint.py [--list-rules] [--rule ID]... [--rel-root DIR]
                          PATH...

PATH arguments may be files or directories (searched recursively for
*.h / *.cc). Exit status is 0 when clean, 1 when any finding is reported,
2 on usage errors.

Suppression: append `// NOLINT(dpcf-<rule>)` to the offending line, or put
`// NOLINTNEXTLINE(dpcf-<rule>)` on the line above. A bare `// NOLINT`
suppresses every rule on that line. Suppressions are deliberate, reviewed
exceptions; each one should say why in the surrounding code.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".h", ".cc")
# The selftest's deliberately-violating fixtures are analyzed explicitly
# (with --rel-root); tree-wide runs must not see them.
SKIP_DIR_PATTERNS = re.compile(r"^(build.*|\.git|\.cache|__pycache__"
                               r"|lint_selftest)$")
NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")

# ---------------------------------------------------------------------------
# Lexing


def blank_comments_and_strings(text):
    """Blanks //, /* */ comments and "..." / '...' contents, keeping
    newlines and column positions so findings line up with the source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt in ("/", "*"):
                state = "line_comment" if nxt == "/" else "block_comment"
                out.append("  ")
                i += 2
                continue
            # A quote opens a literal, except a digit separator (400'000).
            if c == '"' or (c == "'" and not (
                    i > 0 and text[i - 1] in _HEX_DIGITS
                    and nxt in _HEX_DIGITS)):
                state = "dquote" if c == '"' else "squote"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == ('"' if state == "dquote" else "'") or c == "\n":
                state = "code"  # closed (or unterminated: resync)
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


_HEX_DIGITS = set("0123456789abcdefABCDEF")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ALL_CAPS = re.compile(r"^[A-Z][A-Z0-9_]*$")
_PUNCT = re.compile(r"<=>|->\*|\.\.\.|<<=|>>=|::|->|\+\+|--|<<|>>|<=|>=|==|"
                    r"!=|&&|\|\||[-+*/%&|^]=|##|.")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # ident | number | literal | punct
        self.text = text
        self.line = line  # 1-based


def tokenize(code_lines):
    """Tokens of blanked code, skipping preprocessor directives (with
    their backslash continuations). String and char literals arrive
    blanked, so each is one opaque token."""
    tokens = []
    in_directive = False
    for line_no, line in enumerate(code_lines, start=1):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            continue
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if c in " \t\r":
                i += 1
                continue
            if c in "\"'":
                end = line.find(c, i + 1)
                end = n if end < 0 else end + 1
                tokens.append(Token("literal", line[i:end], line_no))
                i = end
                continue
            m = _IDENT.match(line, i)
            if m:
                tokens.append(Token("ident", m.group(0), line_no))
                i = m.end()
                continue
            if c.isdigit() or (c == "." and line[i + 1:i + 2].isdigit()):
                j = i + 1
                while j < n and (line[j].isalnum() or line[j] in ".'"
                                 or (line[j] in "+-" and line[j - 1] in
                                     "eEpP")):
                    j += 1
                tokens.append(Token("number", line[i:j], line_no))
                i = j
                continue
            m = _PUNCT.match(line, i)
            tokens.append(Token("punct", m.group(0), line_no))
            i = m.end()
    return tokens


class SourceFile:
    """One analyzed file. `raw_lines` is the file verbatim; `code_lines`
    has comments and string contents blanked (same line count and column
    widths) so line rules can regex over code without matching prose. The
    call-graph model fills `tokens` and `functions` for files in src/."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.raw_lines = text.splitlines()
        self.code_lines = blank_comments_and_strings(text).splitlines()
        self.tokens = []
        self.functions = []


# ---------------------------------------------------------------------------
# Call-graph model

# Keywords that can precede a '(' without being a call or function name.
NON_CALL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "new", "delete", "throw", "case", "do", "else",
    "static_assert", "noexcept", "co_await", "co_return", "co_yield",
    "assert", "defined", "typeid",
}
# Tokens allowed between a parameter list's ')' and the body '{' besides
# ALL_CAPS annotation macros (REQUIRES(mu_), EXCLUDES(...), ...).
SIGNATURE_TRAILERS = {"const", "noexcept", "override", "final", "mutable",
                      "volatile", "&", "&&", "try"}
# What may sit right before a definition's (qualified) name: a return
# type's last token or a declaration boundary.
_DECL_BEFORE = {"}", ";", "{", ">", "&", "*", "]"}


class FunctionDef:
    __slots__ = ("name", "display_name", "file", "line", "body_start",
                 "body_end", "calls")

    def __init__(self, name, qualifier, file, line, body_start, body_end):
        self.name = name
        self.display_name = "::".join(qualifier + [name])
        self.file = file
        self.line = line
        self.body_start = body_start  # token index of '{'
        self.body_end = body_end      # token index of the matching '}'
        self.calls = []               # (callee name, token index, receiver)


def match_brackets(tokens):
    """{open_index: close_index} for (), {} and [] pairs; tolerates
    unbalanced input from macro tricks rather than crashing."""
    match, stack = {}, []
    closers = {")": "(", "}": "{", "]": "["}
    for idx, tok in enumerate(tokens):
        if tok.kind != "punct":
            continue
        if tok.text in "({[":
            stack.append((tok.text, idx))
        elif tok.text in closers:
            while stack:
                kind, open_idx = stack.pop()
                if kind == closers[tok.text]:
                    match[open_idx] = idx
                    break
    return match


class Model:
    """Whole-program facts over the analyzed files in src/: every function
    definition with its calls (name-level call graph), `using`/`typedef`
    aliases, and the names of functions that charge IoStats/CpuStats
    directly or via any callee. Both call-graph rules are about src/, so a
    test or bench helper sharing a callee's name must not leak in."""

    def __init__(self, sources):
        self.functions = []
        self.aliases = {}  # alias name -> underlying type text
        for src in sources:
            if src.rel.startswith("src/"):
                src.tokens = tokenize(src.code_lines)
                self._scan_file(src)
        self.defined_names = {}  # name -> [FunctionDef]
        for fn in self.functions:
            fn.file.functions.append(fn)
            self.defined_names.setdefault(fn.name, []).append(fn)
            self._collect_calls(fn)
        self.charging = self._charging_closure()
        self.entropy_memo = {}

    def _scan_file(self, src):
        toks = src.tokens
        brackets = match_brackets(toks)
        i = 0
        while i < len(toks):
            if toks[i].kind == "ident":
                if toks[i].text in ("using", "typedef"):
                    i = self._harvest_alias(toks, i)
                    continue
                fn = self._definition_at(src, brackets, i)
                if fn is not None:
                    self.functions.append(fn)
                    # Descend into the body: local classes' methods are
                    # definitions too.
                    i = fn.body_start + 1
                    continue
            i += 1

    def _harvest_alias(self, toks, i):
        """`using X = type;` / `typedef type X;`; returns the resume index."""
        end = i + 1
        while end < len(toks) and toks[end].text != ";":
            end += 1
        body = toks[i + 1:end]
        if toks[i].text == "using":
            if len(body) >= 2 and body[0].kind == "ident" and \
                    body[1].text == "=":
                self.aliases[body[0].text] = " ".join(t.text
                                                      for t in body[2:])
                return end
            return i + 1
        idents = [t for t in body if t.kind == "ident"]
        if len(idents) >= 2:
            self.aliases[idents[-1].text] = " ".join(
                t.text for t in body if t is not idents[-1])
        return end

    @staticmethod
    def _definition_at(src, brackets, i):
        """A FunctionDef if token i names a function definition:
        `[ret] [Qual::]name(params) [trailer] [: inits] {`."""
        toks = src.tokens
        n = len(toks)
        if toks[i].text in NON_CALL_KEYWORDS or i + 1 >= n or \
                toks[i + 1].text != "(":
            return None
        close = brackets.get(i + 1)
        if close is None or (i > 0 and toks[i - 1].text in ("~",
                                                             "operator")):
            return None
        q = i - 1
        qualifier = []
        while q >= 1 and toks[q].text == "::" and toks[q - 1].kind == "ident":
            qualifier.insert(0, toks[q - 1].text)
            q -= 2
        if q >= 0:
            before = toks[q]
            if (before.kind == "punct" and before.text not in _DECL_BEFORE) \
                    or before.text in NON_CALL_KEYWORDS:
                return None  # a call inside an expression or statement
        j = close + 1
        saw_arrow = False
        while j < n and toks[j].text != "{":
            t = toks[j]
            if t.text in (";", "="):
                return None  # declaration, = default / delete / 0
            if t.text == ":":
                j = Model._skip_ctor_initializers(toks, brackets, j + 1)
                break
            if t.kind == "ident" and (_ALL_CAPS.match(t.text) or
                                      t.text in SIGNATURE_TRAILERS):
                if j + 1 < n and toks[j + 1].text == "(":
                    j = brackets.get(j + 1, j + 1)
            elif t.text == "->":
                saw_arrow = True  # trailing return type follows
            elif not (saw_arrow or t.text in SIGNATURE_TRAILERS):
                return None
            j += 1
        body_end = brackets.get(j) if j < n else None
        if body_end is None:
            return None
        return FunctionDef(toks[i].text, qualifier, src, toks[i].line, j,
                           body_end)

    @staticmethod
    def _skip_ctor_initializers(toks, brackets, j):
        """From just after a ctor-initializer ':', the body '{' index. A
        '{' right after an identifier or '>' is a brace-initializer."""
        while j < len(toks):
            t = toks[j]
            if t.text in ("(", "[") or (t.text == "{" and (
                    toks[j - 1].kind == "ident" or toks[j - 1].text == ">")):
                j = brackets.get(j, j) + 1
            elif t.text == "{":
                return j
            else:
                j += 1
        return j

    @staticmethod
    def _collect_calls(fn):
        toks = fn.file.tokens
        for idx in range(fn.body_start + 1, fn.body_end):
            t = toks[idx]
            if t.kind != "ident" or t.text in NON_CALL_KEYWORDS or \
                    toks[idx + 1].text != "(" or \
                    toks[idx - 1].text in ("class", "struct", "new"):
                continue
            # Receiver chain, e.g. "std::chrono::steady_clock::" or "obj->".
            j = idx - 1
            chain = []
            while j > fn.body_start and (
                    toks[j].text in ("::", ".", "->") or
                    (toks[j].kind == "ident" and chain and
                     chain[0] in ("::", ".", "->"))):
                chain.insert(0, toks[j].text)
                j -= 1
            fn.calls.append((t.text, idx, "".join(chain)))

    def _charging_closure(self):
        """Names of functions charging IoStats/CpuStats directly or through
        any callee (name-level fixpoint over the call graph)."""
        charging = {fn.name for fn in self.functions
                    if any(t.kind == "ident" and t.text in CHARGE_TOKENS
                           for t in fn.file.tokens[fn.body_start:
                                                   fn.body_end])}
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.name not in charging and any(
                        callee in charging for callee, _, _ in fn.calls):
                    charging.add(fn.name)
                    changed = True
        return charging


# ---------------------------------------------------------------------------
# Rules: each is check(src, model) -> iterable of (line, message),
# registered under its id.

RULES = {}  # rule id -> (description, check)


def rule(rule_id, description):
    def register(check):
        RULES[rule_id] = (description, check)
        return check
    return register


# dpcf-mutex-annotation: every latch must be visible to clang TSA. A raw
# std::mutex is invisible to it (dpcf::Mutex is the same mutex plus a
# CAPABILITY attribute). A dpcf::Mutex no annotation in its file names
# guards nothing; one named only by lock-discipline annotations (REQUIRES,
# EXCLUDES, ...) but by no GUARDED_BY leaves TSA unable to catch an
# unlocked access to the state it protects. Neither is a -Wthread-safety
# diagnostic, which is why this rule stays.
_STD_MUTEX = re.compile(
    r"\bstd::(recursive_|shared_|timed_|recursive_timed_)?mutex\b")
_MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:dpcf::)?Mutex\s+(\w+)\s*[;\x20]")
_LOCK_ANNOTATIONS = ("GUARDED_BY", "PT_GUARDED_BY", "REQUIRES",
                     "REQUIRES_SHARED", "ACQUIRE", "ACQUIRE_SHARED",
                     "EXCLUDES", "RETURN_CAPABILITY")


@rule("dpcf-mutex-annotation",
      "std::mutex members must be dpcf::Mutex, and every dpcf::Mutex must "
      "guard something")
def check_mutex_annotation(src, model):
    if not src.rel.startswith("src/"):
        return
    whole = "\n".join(src.code_lines)

    def named_by(name, macros):
        return any(re.search(rf"\b{m}\s*\([^)]*\b{re.escape(name)}\b", whole)
                   for m in macros)

    for i, line in enumerate(src.code_lines, start=1):
        if _STD_MUTEX.search(line):
            yield (i, "raw std::mutex is invisible to thread-safety "
                      "analysis; use dpcf::Mutex + dpcf::MutexLock from "
                      "common/thread_annotations.h")
        m = _MUTEX_MEMBER.match(line)
        if not m:
            continue
        if not named_by(m.group(1), _LOCK_ANNOTATIONS):
            yield (i, f"dpcf::Mutex '{m.group(1)}' is not referenced by any "
                      "GUARDED_BY/REQUIRES/EXCLUDES annotation in this "
                      "file — annotate what it protects")
        elif not named_by(m.group(1), ("GUARDED_BY", "PT_GUARDED_BY")):
            yield (i, f"dpcf::Mutex '{m.group(1)}' appears in lock "
                      "annotations but no member is GUARDED_BY it — TSA "
                      "cannot catch unlocked access to the state it "
                      "protects; add GUARDED_BY to that state")


# dpcf-nondeterminism: feedback must be a pure function of (data, seed).
# The monitors are only trustworthy re-optimization input if two runs over
# the same data produce bit-identical feedback, so no function in the
# monitor core (src/core) or the execution path (src/exec) may reach
# ambient entropy, directly or through any call chain. Randomness comes
# from common/random.h generators seeded through MonitorOptions::seed.
# Functions defined under the barriers below may read clocks for
# reporting; the walk stops there. DESIGN.md section 13 documents each.
NONDET_SCOPE = ("src/core/", "src/exec/")
NONDET_BARRIERS = (
    "src/common/random",          # the seeded-RNG plumbing itself
    "src/obs/",                   # spans/metrics timing, never state
    "src/storage/buffer_pool",    # miss timing, waits until a read is due
    "src/storage/disk_manager",   # device due-time stamps
)
CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}


def _direct_entropy(model, fn):
    """(token index, description) for entropy fn's body reads itself."""
    for name, idx, receiver in fn.calls:
        recv = set(_IDENT.findall(receiver))
        for ident in list(recv):
            recv.update(_IDENT.findall(model.aliases.get(ident, "")))
        bare = recv <= {"std"}
        if name in ("rand", "srand") and bare:
            yield idx, f"{name}() (process-global PRNG)"
        elif name == "time" and recv <= {"std", "nullptr"}:
            yield idx, "time() (wall clock)"
        elif name == "clock" and bare:
            yield idx, "clock() (CPU time)"
        elif name == "gettimeofday":
            yield idx, "gettimeofday() (wall clock)"
        elif name == "now" and recv & CLOCK_NAMES:
            yield idx, f"{min(recv & CLOCK_NAMES)}::now() (clock read)"
    toks = fn.file.tokens
    for i in range(fn.body_start + 1, fn.body_end):
        if toks[i].text == "random_device":
            yield i, "std::random_device (hardware entropy)"


def _is_barrier(fn):
    return fn.file.rel.startswith(NONDET_BARRIERS)


def _reaches_entropy(model, name, stack=frozenset()):
    """A chain [name, ..., source description] by which `name` reaches
    entropy, or None. Barriers absorb; undefined names are assumed pure."""
    if name in model.entropy_memo:
        return model.entropy_memo[name]
    if name in stack:
        return None
    result = None
    for fn in model.defined_names.get(name, ()):
        if _is_barrier(fn):
            continue
        direct = next(_direct_entropy(model, fn), None)
        if direct:
            result = [name, direct[1]]
            break
        for callee, _, _ in fn.calls:
            sub = callee != name and _reaches_entropy(model, callee,
                                                      stack | {name})
            if sub:
                result = [name] + sub
                break
        if result:
            break
    model.entropy_memo[name] = result
    return result


@rule("dpcf-nondeterminism",
      "src/core + src/exec code reaching ambient entropy (rand/time/"
      "random_device/*_clock::now/default-constructed mt19937) via the "
      "call graph")
def check_nondeterminism(src, model):
    if not src.rel.startswith(NONDET_SCOPE):
        return
    toks = src.tokens
    seen = set()
    # std::mt19937 has a fixed default seed, but a default-constructed one
    # is a generator nobody seeded from MonitorOptions::seed.
    for i, t in enumerate(toks[:-2]):
        if t.text in ("mt19937", "mt19937_64") and \
                toks[i + 1].kind == "ident" and toks[i + 2].text == ";":
            seen.add(t.line)
            yield (t.line, f"default-constructed std::{t.text} is not "
                           "seeded from MonitorOptions::seed; feedback "
                           "would not follow the run's seed")
    for fn in src.functions:
        for idx, desc in _direct_entropy(model, fn):
            if toks[idx].line not in seen:
                seen.add(toks[idx].line)
                yield (toks[idx].line,
                       f"'{fn.display_name}' reads {desc} directly; "
                       "feedback must be a pure function of (data, seed) "
                       "— route randomness through common/random.h and "
                       "timestamps through the observability sinks")
        for callee, idx, _ in fn.calls:
            defs = model.defined_names.get(callee)
            # In-scope callees are flagged at their own definition.
            if not defs or toks[idx].line in seen or \
                    any(d.file.rel.startswith(NONDET_SCOPE) for d in defs) or \
                    all(_is_barrier(d) for d in defs):
                continue
            chain = _reaches_entropy(model, callee)
            if chain:
                seen.add(toks[idx].line)
                yield (toks[idx].line,
                       "call reaches ambient entropy: "
                       f"{' -> '.join([fn.display_name] + chain)}; feedback "
                       "must be deterministic, so either seed this path or "
                       "add the callee to the reviewed reporting barriers")


# dpcf-charge-conservation: every page access must be accounted, or the
# counters the estimation-error diagnosis trusts undercount. A src/
# function reading a heap-page image needs a charge (a CHARGE_TOKENS
# counter, directly or via any callee) before every return after the read.
# The files that define the readers and charge primitives are exempt.
PAGE_READERS = {"PageRowCount", "RowInPage", "PageRows", "FetchRow",
                "ReadImage"}
CHARGE_TOKENS = {
    # IoStats (storage/io_stats.h)
    "physical_seq_reads", "physical_rand_reads", "physical_writes",
    "prefetch_reads", "prefetch_hits", "prefetch_rejected",
    "logical_reads", "buffer_hits", "raw_page_reads",
    # CpuStats
    "rows_processed", "predicate_atom_evals", "monitor_hash_ops",
    "monitor_row_ops", "hash_table_ops",
}
CHARGE_EXEMPT = ("src/table/heap_file", "src/table/row_codec",
                 "src/storage/io_stats")


@rule("dpcf-charge-conservation",
      "page-image read with a return path charging neither IoStats nor "
      "CpuStats")
def check_charge_conservation(src, model):
    if not src.rel.startswith("src/") or src.rel.startswith(CHARGE_EXEMPT):
        return
    toks = src.tokens
    for fn in src.functions:
        reads = [(idx, name) for name, idx, _ in fn.calls
                 if name in PAGE_READERS]
        if not reads:
            continue
        first_idx, first_name = min(reads)
        body = range(fn.body_start + 1, fn.body_end)
        charges = [i for i in body if toks[i].text in CHARGE_TOKENS]
        charges += [idx for callee, idx, _ in fn.calls
                    if callee in model.charging]
        # Falling off the end of a void function returns at the '}'.
        returns = [i for i in body
                   if toks[i].text == "return" and i > first_idx]
        for r in returns or [fn.body_end]:
            if not any(c < r for c in charges):
                yield (fn.line,
                       f"'{fn.display_name}' reads the page image via "
                       f"'{first_name}' (line {toks[first_idx].line}) but "
                       f"the path returning at line {toks[r].line} charges "
                       "neither IoStats nor CpuStats, directly or via any "
                       "callee; every page access must be accounted so "
                       "estimation-error diagnosis can trust the counters")
                break  # one finding per function keeps the signal readable


# dpcf-include-hygiene: keep the include graph boring. Headers open with
# #pragma once; quoted includes are rooted at src/ (no "../"); no
# <bits/stdc++.h>; and a src/**/foo.cc with a sibling foo.h includes
# "dir/foo.h" first — the cheapest proof that every header is
# self-contained (it is compiled once with nothing before it).
_INCLUDE = re.compile(r'^\s*#\s*include\s+([<"][^>"]+[>"])')


@rule("dpcf-include-hygiene",
      "#pragma once, no parent-relative includes, .cc includes its own "
      "header first")
def check_include_hygiene(src, model):
    includes = []  # (line, spelling)
    pragma_once = first_directive = None
    for i, line in enumerate(src.code_lines, start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        first_directive = first_directive or i
        if re.match(r"^#\s*pragma\s+once\b", stripped):
            pragma_once = i
        # The blanked view hides quoted paths; read them from the raw line.
        m = _INCLUDE.match(src.raw_lines[i - 1])
        if m and re.match(r"^#\s*include\b", stripped):
            includes.append((i, m.group(1)))
    if src.rel.endswith(".h"):
        if pragma_once is None:
            yield (1, "header is missing #pragma once")
        elif first_directive != pragma_once:
            yield (pragma_once,
                   "#pragma once must be the first directive in the header")
    for line_no, spelling in includes:
        if spelling.startswith('"../') or "/../" in spelling:
            yield (line_no, f"parent-relative include {spelling}; quoted "
                            "includes are rooted at src/")
        if spelling == "<bits/stdc++.h>":
            yield (line_no, "<bits/stdc++.h> is a non-standard catch-all; "
                            "include what you use")
    if src.rel.startswith("src/") and src.rel.endswith(".cc") and includes:
        own = os.path.splitext(src.rel)[0][len("src/"):] + ".h"
        if os.path.exists(os.path.join(os.path.dirname(src.path),
                                       os.path.basename(own))) and \
                includes[0][1] != f'"{own}"':
            yield (includes[0][0], f"first include must be the file's own "
                                   f'header "{own}" (self-containment '
                                   "check)")


# dpcf-naked-new: ownership lives in unique_ptr (or the pool's frames).
# Raw `new` leaks on every early Status return before the owner takes it;
# raw `delete` double-frees when two paths both think they own.
# Private-constructor factories that cannot use make_unique get a NOLINT.
_NEW = re.compile(r"(?<![\w_])new\s+[A-Za-z_:(]")
_DELETE = re.compile(r"(?<![\w_])delete\s*(?:\[\s*\]\s*)?[A-Za-z_(*]")
_DELETED_FN = re.compile(r"=\s*delete\b|operator\s+delete")


@rule("dpcf-naked-new", "naked new/delete outside sanctioned owners")
def check_naked_new(src, model):
    for i, line in enumerate(src.code_lines, start=1):
        if _NEW.search(line):
            yield (i, "naked new; use std::make_unique (NOLINT private-"
                      "ctor factories with a reason)")
        if _DELETE.search(line) and not _DELETED_FN.search(line):
            yield (i, "naked delete; owners must be RAII "
                      "(unique_ptr / PageGuard)")


# dpcf-eval-in-morsel: the scan hot path evaluates predicates with
# PredicateKernel and feeds monitors with ObserveBatch, one call per page
# (DESIGN.md section 12). A per-row EvalLeading / EvalNoShortCircuit /
# OnRow call inside a loop over a page's rows reintroduces the per-tuple
# overhead the kernel removed. The deliberate row-at-a-time loops (the
# property sweep's oracle, sorted-key early exit) carry an `oracle`
# comment within five lines above the loop header.
_ROW_CALL = re.compile(
    r"(?:\.|->)\s*(EvalLeading|EvalNoShortCircuit|OnRow)\s*\(")
_ROW_LOOP = re.compile(r"\b(?:for|while)\s*\(.*\b(?:rows_in_page_?|"
                       r"row_idx_?|num_rows|PageRowCount)\b")
_ORACLE = re.compile(r"\boracle\b", re.IGNORECASE)
_LOOP_WINDOW = 40   # lines a call may sit below its loop header
_MARKER_WINDOW = 5  # lines the marker may sit above the header


@rule("dpcf-eval-in-morsel",
      "per-row EvalLeading/EvalNoShortCircuit/OnRow inside a page row loop "
      "in src/exec without an `oracle` marker")
def check_eval_in_morsel(src, model):
    if not src.rel.startswith("src/exec/"):
        return
    code = src.code_lines
    for i, line in enumerate(code, start=1):
        m = _ROW_CALL.search(line)
        if m is None:
            continue
        header = next((j for j in range(i - 1, max(0, i - 1 - _LOOP_WINDOW),
                                        -1)
                       if _ROW_LOOP.search(code[j - 1])), None)
        if header is None or any(
                _ORACLE.search(src.raw_lines[k - 1])
                for k in range(max(1, header - _MARKER_WINDOW), header + 1)):
            continue
        yield (i, f"per-row {m.group(1)}() inside a page row loop — use "
                  "PredicateKernel::EvalBatch / ScanMonitorBundle::"
                  "ObserveBatch, or mark the loop with an `oracle` comment "
                  "if row-at-a-time is intentional")


# dpcf-simd-intrinsics: ISA-specific code lives in the per-ISA translation
# units behind runtime dispatch (src/exec/simd*, DESIGN.md section 16). An
# intrinsic anywhere else either fails to compile (no -mavx2 there) or,
# once someone widens the flag, SIGILLs on CPUs without the feature, and
# it bypasses the dispatch table's scalar-equivalence tests.
_X86 = re.compile(r"\b_mm\d{0,3}_[a-z0-9_]+\s*\(")
_NEON = re.compile(r"\bv[a-z]+\d*q?(?:_[a-z]+)*_[sufp]\d+\s*\(")


@rule("dpcf-simd-intrinsics",
      "raw SIMD intrinsics (_mm*/_mm256_*/vld1q_*-style) outside "
      "src/exec/simd* — add a kernel to the SimdOps dispatch table instead")
def check_simd_intrinsics(src, model):
    if src.rel.startswith("src/exec/simd"):
        return
    for i, line in enumerate(src.code_lines, start=1):
        for pat, family in ((_X86, "x86"), (_NEON, "NEON")):
            m = pat.search(line)
            if m is not None:
                name = m.group(0).rstrip("( \t")
                yield (i, f"raw {family} intrinsic {name}() outside "
                          "src/exec/simd* — route it through the SimdOps "
                          "kernel table (src/exec/simd.h)")


# ---------------------------------------------------------------------------
# Driver


def suppressed(raw_lines, line_no, rule_id):
    """True if a NOLINT on 1-based `line_no`, or a NOLINTNEXTLINE on the
    line above, names `rule_id` (or names no rule at all)."""
    for idx, next_line_form in ((line_no - 1, False), (line_no - 2, True)):
        if not 0 <= idx < len(raw_lines):
            continue
        m = NOLINT_RE.search(raw_lines[idx])
        if m and bool(m.group(1)) == next_line_form and (
                m.group(2) is None or
                rule_id in (r.strip() for r in m.group(2).split(","))):
            return True
    return False


def discover_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs if not SKIP_DIR_PATTERNS.match(d))
                files.extend(os.path.join(root, name) for name in sorted(names)
                             if name.endswith(SOURCE_EXTENSIONS))
        else:
            print(f"dpcf_lint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--rule", action="append", default=[],
                        help="run only this rule id (repeatable)")
    parser.add_argument("--rel-root", default=REPO_ROOT,
                        help="directory paths are reported relative to "
                             "(default: the repo root); also sets the "
                             "prefix path-scoped rules match against")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, (description, _) in RULES.items():
            print(f"{rule_id}: {description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2
    unknown = [r for r in args.rule if r not in RULES]
    if unknown:
        print(f"dpcf_lint: unknown rule id(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    files = discover_files(args.paths)
    sources = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"dpcf_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        rel = os.path.relpath(os.path.abspath(path),
                              os.path.abspath(args.rel_root))
        sources.append(SourceFile(path, rel.replace("\\", "/"), text))
    model = Model(sources)

    selected = [r for r in RULES if not args.rule or r in args.rule]
    findings = sorted(
        (src.rel, line, rule_id, message)
        for src in sources
        for rule_id in selected
        for line, message in RULES[rule_id][1](src, model)
        if not suppressed(src.raw_lines, line, rule_id))
    for rel, line, rule_id, message in findings:
        print(f"{rel}:{line}: [{rule_id}] {message}")
    if findings:
        print(f"dpcf_lint: {len(findings)} finding(s) in {len(files)} "
              "file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
