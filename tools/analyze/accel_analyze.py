#!/usr/bin/env python3
"""accel-analyze: the static-analysis wall for the Accelerometer
reproduction.

The repo's core correctness claim is determinism under concurrency:
every experiment is a pure function of its seed, and parallel fan-out
must stay bit-identical to the serial path. Its accounting claims rest
on every config knob being validated and every counter reaching a
report (ROADMAP "Recent", DESIGN.md section 6b). Ten rules enforce
both, in two families.

Token rules: patterns over comment/string-stripped source.

  banned-random      no rand()/srand()/std::random_device/std::mt19937
                     in simulation/model/stats code; all randomness
                     flows through util/rng.hh (seeded PCG32).
  banned-clock       no wall-clock reads (steady_clock::now, time(),
                     clock(), gettimeofday, ...) in simulation/model/
                     stats/kernel code; simulated time comes from the
                     event clock, wall time from util/wall_timer.hh.
  unordered-float-iter
                     no iteration over std::unordered_{map,set} that
                     feeds a floating-point accumulation; hash-order
                     is implementation-defined, so such reductions are
                     not reproducible across platforms or libstdc++
                     versions.
  fn-by-value        no by-value callable parameters (std::function,
                     sim::InlineFunction, sim::InlineCallback) in
                     function signatures; pass const& (borrow) or &&
                     (sink) so hot paths never pay a silent
                     type-erased copy or move.
  parfor-pushback    no push_back/emplace_back inside parallelFor
                     bodies; parallel loop bodies must write to
                     pre-sized slots indexed by loop index, which is
                     what makes results independent of worker count.
  header-standalone  every header under src/ compiles on its own
                     (IWYU-lite), so include order can never change
                     behaviour.

Structural rules: scope and cross-file reasoning over the extracted
functions, structs and lambdas.

  dangling-capture   A lambda that captures by reference (default [&]
                     or explicit [&x]) and flows into a *deferred*
                     callback sink — sim::EventQueue::schedule*, tier
                     dispatch/hedging, or any function taking a
                     sim::InlineCallback&& / sim::InlineFunction&&
                     parameter — while referencing locals of the
                     enclosing frame. The frame returns before the
                     event runs, so those captures dangle. Frames that
                     drive the event loop themselves (call run /
                     runNext / runUntil / runAll on a queue) outlive
                     their events and are exempt; that is why tests
                     and benches may schedule [&] lambdas and then
                     eq.runAll() in the same function.

  rng-discipline     RNG advances that silently break ACCEL_JOBS
                     parity or seeded replay:
                       * an accel::Rng advanced inside a parallelFor
                         body when the generator is not constructed in
                         that body (a shared stream consumed in worker
                         completion order);
                       * an Rng captured *by value* into a lambda (the
                         stream forks and both copies replay the same
                         draws);
                       * advances on a static/global Rng;
                       * std::*_distribution draws in determinism-
                         scoped code (banned-random bans engines, but
                         a distribution wrapping a sanctioned engine
                         is still libstdc++-specific and unportable).
                     The approved patterns are: a function-local Rng
                     constructed from slot-mixed seeds, a class-owned
                     member stream (rng_), or an Rng& parameter whose
                     caller owns the stream.

  validate-coverage  Every *Config-style struct that declares
                     `void validate() const` must check its unsafe
                     fields: each floating-point field (NaN/inf can
                     arrive from config parsing) and each sub-config
                     field that itself has validate() must be
                     referenced in the struct's validate() body.
                     When a `<name>FromConfig` parse function exists
                     for the struct, *every* field must be reachable
                     from it — a field the parser cannot set is a
                     silent config no-op. bool/enum fields have no
                     out-of-domain values and are exempt from the
                     validate() leg.

  metrics-accounting Counters in metrics structs (*Metrics / *Stats)
                     that are incremented but never aggregated or
                     reported anywhere in src/bench/examples (the
                     number is collected and then lost), or reported
                     but never incremented (the report prints a
                     constant). Self-updates (x.f = max(x.f, v)) and
                     warmup resets do not count as reporting.

Scope: path arguments feed every rule. Without them each family checks
its own default trees (TOKEN_PATHS, STRUCTURAL_PATHS).

One frontend, a comment/string-stripped lexer with balanced-bracket
function/struct/lambda extraction, serves every rule; its behaviour is
pinned by the fixture corpora in tests/tools/fixtures/. The only input
besides the sources is compile_commands.json (-p builddir), whose first
entry gives header-standalone its compiler and flags.

A finding can be silenced only per line, with a justification comment:

    // accel-lint: allow(<rule>) -- one-line reason

on the offending line or the comment block directly above it (for
header-standalone: anywhere in the header's first 15 lines).

--audit-suppressions reports stale allow() comments: a suppression
naming a rule that ran on its file on a line where that rule no longer
fires.

Exit status: 0 clean (only suppressed findings), 1 when any live
finding remains (or any stale suppression in audit mode), 2 on usage
errors.
"""

import argparse
import concurrent.futures
import functools
import json
import os
import re
import subprocess
import sys
import tempfile

TOOL_NAME = "accel-analyze"

TOKEN_RULES = (
    "banned-random",
    "banned-clock",
    "unordered-float-iter",
    "fn-by-value",
    "parfor-pushback",
    "header-standalone",
)

STRUCTURAL_RULES = (
    "dangling-capture",
    "rng-discipline",
    "validate-coverage",
    "metrics-accounting",
)

ALL_RULES = TOKEN_RULES + STRUCTURAL_RULES

CXX_EXTENSIONS = (".cc", ".cpp", ".cxx", ".hh", ".h", ".hpp")
HEADER_EXTENSIONS = (".hh", ".hpp", ".h")

# Directories (relative to the repo root) whose code must be free of
# ambient randomness, wall-clock reads and std::<random> distribution
# draws. util/ is deliberately NOT in scope: util/rng.{hh,cc} and
# util/wall_timer.{hh,cc} are the two sanctioned owners of those
# effects.
DETERMINISM_SCOPE = (
    "src/sim",
    "src/faults",
    "src/microsim",
    "src/model",
    "src/stats",
    "src/workload",
    "src/kernels",
)

# Default scope of each rule family when no paths are given. The token
# rules police every compiled tree, tests included. The structural
# rules skip tests/: test frames hand [&] lambdas to helpers and nest
# them inside frames that drive the loop, which the frame-local
# loop-driver exemption cannot see, so dangling-capture would report
# false findings there (on 7 lines of tests/microsim/tier_test.cc,
# from nested lambdas in frames that drive the loop). tests/ also
# stays out of metrics-accounting's "reported somewhere" scope: a
# counter only a test reads is still lost in every real run.
TOKEN_PATHS = ("src", "tests", "bench", "examples")
STRUCTURAL_PATHS = ("src", "bench", "examples", "tools")

# Event-queue sink methods that defer a callback past the caller's
# frame. Extended automatically with every function in the analyzed
# tree that declares a sim::InlineCallback&& / sim::InlineFunction&&
# parameter (tier dispatch, hedging, resilient offload plumbing, ...).
BUILTIN_SINKS = frozenset({
    "schedule", "scheduleIn", "scheduleAt",
    "scheduleTimer", "scheduleTimerIn", "scheduleEvent",
})

# A frame that calls one of these drives the event loop itself, so its
# locals outlive the scheduled events.
LOOP_DRIVERS = ("run", "runNext", "runUntil", "runAll")

# accel::Rng state-advancing methods (util/rng.hh).
RNG_ADVANCE_METHODS = ("next64", "next", "uniform", "below64", "below",
                      "chance", "exponential", "gaussian", "logNormal")

SUPPRESS_RE = re.compile(r"//\s*accel-lint:\s*allow\(([\w\-, ]+)\)")

CXX_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "decltype", "alignof", "noexcept", "new", "delete", "throw",
    "case", "goto", "else", "do", "static_assert", "alignas",
    "co_return", "co_await", "co_yield", "assert",
})


class Finding:
    def __init__(self, path, line, rule, message, suppressed=False):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = suppressed

    def as_dict(self):
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self):
        tag = " (suppressed)" if self.suppressed else ""
        return "%s:%d: [%s]%s %s" % (self.path, self.line, self.rule,
                                     tag, self.message)


# ---------------------------------------------------------------------
# Lexing (positions are preserved)
# ---------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving line
    structure and column offsets so findings keep exact positions.

    Suppression comments must be collected *before* calling this.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"' and (i == 0 or
                                          not (text[i - 1].isalnum() or
                                               text[i - 1] == "_")):
            # Raw string literal: R"delim( ... )delim" — unescaped
            # quotes and backslashes inside must not desync the lexer.
            j = i + 2
            while j < n and text[j] not in "(\n":
                j += 1
            delim = text[i + 2:j]
            terminator = ")" + delim + '"'
            end = text.find(terminator, j)
            end = (end + len(terminator)) if end != -1 else n
            for k in range(i, end):
                out.append("\n" if text[k] == "\n" else " ")
            i = end
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allow_comments(text):
    """Yield (lineno, rules, after) for every allow() comment. after is
    the first code line following the comment block when the allow()
    sits on a comment-only line, so a justification may wrap over
    several comment lines; it is None for an allow() on a code line."""
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        after = None
        if line.strip().startswith("//"):
            nxt = lineno
            while nxt < len(lines) and \
                    lines[nxt].strip().startswith("//"):
                nxt += 1
            after = nxt + 1
        yield lineno, rules, after


def suppressed_rules_by_line(text):
    """Line number -> set of rule names allowed on that line. An
    allow() covers its own line and, from a comment block, the first
    code line after the block."""
    allowed = {}
    for lineno, rules, after in allow_comments(text):
        for ln in (lineno, after):
            if ln is not None:
                allowed.setdefault(ln, set()).update(rules)
    return allowed


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_balanced(text, start, open_ch, close_ch):
    """Offset one past the bracket closing text[start], or None."""
    assert text[start] == open_ch
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        elif open_ch == "<" and c == ";":
            return None
        i += 1
    return None


def prev_sig_char(text, pos):
    """The nearest non-whitespace character before pos, or ''."""
    i = pos - 1
    while i >= 0 and text[i] in " \t\n":
        i -= 1
    return text[i] if i >= 0 else ""


def split_top_level(text, sep=","):
    """Split on sep at bracket depth 0."""
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------
# Structural scanning: functions, structs, enums, lambdas
# ---------------------------------------------------------------------

FUNC_HEAD_RE = re.compile(r"([A-Za-z_~][\w:<>~]*)\s*\(")


class Function:
    def __init__(self, name, qualname, params_text, body_start,
                 body_end, head_start):
        self.name = name
        self.qualname = qualname
        self.params_text = params_text
        self.body_start = body_start
        self.body_end = body_end
        self.head_start = head_start


def _skip_ctor_init_list(clean, pos):
    """pos is just after ':' following a ')'. Skip `name(args)` /
    `name{args}` elements separated by commas; return offset of the
    body '{' or None."""
    n = len(clean)
    i = pos
    while i < n:
        while i < n and clean[i] in " \t\n":
            i += 1
        m = re.match(r"[A-Za-z_][\w:]*", clean[i:])
        if not m:
            return None
        i += m.end()
        while i < n and clean[i] in " \t\n":
            i += 1
        if i >= n or clean[i] not in "({<":
            return None
        if clean[i] == "<":
            close = match_balanced(clean, i, "<", ">")
            if close is None:
                return None
            i = close
            while i < n and clean[i] in " \t\n":
                i += 1
            if i >= n or clean[i] not in "({":
                return None
        close = match_balanced(clean, i, clean[i],
                               ")" if clean[i] == "(" else "}")
        if close is None:
            return None
        i = close
        while i < n and clean[i] in " \t\n":
            i += 1
        if i < n and clean[i] == ",":
            i += 1
            continue
        if i < n and clean[i] == "{":
            return i
        return None
    return None


def find_functions(clean):
    """Function/method definitions with bodies (heuristic; good for
    this codebase's clang-format style). TEST(...) { } macro bodies
    count as functions, which is what the frame analysis wants."""
    funcs = []
    n = len(clean)
    for m in FUNC_HEAD_RE.finditer(clean):
        qualname = m.group(1)
        name = qualname.rsplit("::", 1)[-1]
        base = re.sub(r"<.*", "", name)
        if base in CXX_KEYWORDS or not base:
            continue
        open_paren = m.end() - 1
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        params_text = clean[open_paren + 1:close - 1]
        i = close
        # Skip trailing specifiers up to '{', ';', or anything else.
        body_open = None
        while i < n:
            while i < n and clean[i] in " \t\n":
                i += 1
            if i >= n:
                break
            c = clean[i]
            if c == "{":
                body_open = i
                break
            if c == ";" or c == ",":
                break
            if c == ":" and (i + 1 >= n or clean[i + 1] != ":"):
                body_open = _skip_ctor_init_list(clean, i + 1)
                break
            spec = re.match(
                r"(const|noexcept|override|final|mutable|&&|&|->)",
                clean[i:])
            if not spec:
                break
            i += spec.end()
            if spec.group(1) == "noexcept" and i < n and \
                    clean[i:].lstrip()[:1] == "(":
                j = clean.index("(", i)
                nc = match_balanced(clean, j, "(", ")")
                if nc is None:
                    break
                i = nc
            elif spec.group(1) == "->":
                tm = re.match(r"\s*[\w:<>,\s*&]+", clean[i:])
                if tm:
                    i += tm.end()
        if body_open is None:
            continue
        body_close = match_balanced(clean, body_open, "{", "}")
        if body_close is None:
            continue
        funcs.append(Function(name, qualname, params_text,
                              body_open, body_close, m.start()))
    return funcs


STRUCT_RE = re.compile(
    r"\b(struct|class)\s+([A-Za-z_]\w*)\s*(final\s*)?(:[^;{]*)?\{")
ENUM_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)")

MEMBER_SKIP_RE = re.compile(
    r"^\s*(using|typedef|static|constexpr|friend|template|enum|struct|"
    r"class|virtual|explicit|operator|public|private|protected)\b")


class StructDef:
    def __init__(self, name, kind, line, body_start, body_end):
        self.name = name
        self.kind = kind
        self.line = line
        self.body_start = body_start
        self.body_end = body_end
        self.fields = []          # (name, type_text, line)
        self.has_validate = False


def _statement_is_field(stmt):
    """A member declaration statement -> (type_text, name) or None."""
    s = stmt.strip()
    if not s or MEMBER_SKIP_RE.match(s):
        return None
    # Strip default initializers: `= expr` or `{expr}` trailer.
    s = split_top_level(s, "=")[0].strip()
    brace = s.find("{")
    if brace != -1:
        s = s[:brace].strip()
    # Remove template argument lists before checking for parens so
    # std::function<void(int)> members still count as fields.
    no_tmpl = re.sub(r"<[^<>]*>", "", s)
    while re.search(r"<[^<>]*>", no_tmpl):
        no_tmpl = re.sub(r"<[^<>]*>", "", no_tmpl)
    if "(" in no_tmpl or ")" in no_tmpl:
        return None  # member function / ctor
    m = re.match(r"^(.*[\w>:&*\s])\s*\b([A-Za-z_]\w*)\s*(\[[^\]]*\])?$",
                 s, re.S)
    if not m:
        return None
    type_text = m.group(1).strip()
    name = m.group(2)
    if not type_text or name in CXX_KEYWORDS:
        return None
    return (type_text, name)


def find_structs(clean):
    """All struct/class definitions with their public data members."""
    structs = []
    for m in STRUCT_RE.finditer(clean):
        kind, name = m.group(1), m.group(2)
        body_open = m.end() - 1
        body_close = match_balanced(clean, body_open, "{", "}")
        if body_close is None:
            continue
        sd = StructDef(name, kind, line_of(clean, m.start()),
                       body_open, body_close)
        body = clean[body_open + 1:body_close - 1]
        # Walk top-depth statements, tracking access specifiers.
        public = (kind == "struct")
        depth = 0
        stmt_start = 0
        i = 0
        bn = len(body)
        while i < bn:
            c = body[i]
            if c in "([{":
                close = match_balanced(body, i, c,
                                       {"(": ")", "[": "]",
                                        "{": "}"}[c])
                if close is None:
                    break
                # A brace group at depth 0 ends a statement (nested
                # struct, member function body, init list).
                if c == "{":
                    # The label may be followed by the start of the
                    # brace-owning declaration (`private:\n struct X`),
                    # so take the last specifier anywhere in the
                    # statement, not just one abutting the brace.
                    stmt = body[stmt_start:i]
                    ams = re.findall(
                        r"\b(public|private|protected)\s*:", stmt)
                    if ams:
                        public = (ams[-1] == "public")
                    i = close
                    # Optional trailing `;`
                    j = i
                    while j < bn and body[j] in " \t\n":
                        j += 1
                    if j < bn and body[j] == ";":
                        i = j + 1
                    stmt_start = i
                    continue
                i = close
                continue
            if c == ";":
                stmt = body[stmt_start:i]
                # Access specifiers may prefix the statement.
                for am in re.finditer(r"\b(public|private|protected)\s*:",
                                      stmt):
                    public = (am.group(1) == "public")
                    stmt = stmt[am.end():]
                if "validate" in stmt and "(" in stmt:
                    if re.search(r"\bvalidate\s*\(\s*\)\s*const", stmt):
                        sd.has_validate = True
                if public:
                    field = _statement_is_field(stmt)
                    if field:
                        abs_off = body_open + 1 + stmt_start
                        # Anchor the finding at the declarator line.
                        decl_off = abs_off + len(body[stmt_start:i]) - \
                            len(body[stmt_start:i].lstrip())
                        nm_m = re.search(
                            r"\b%s\b" % re.escape(field[1]),
                            clean[abs_off:body_open + 1 + i])
                        if nm_m:
                            decl_off = abs_off + nm_m.start()
                        sd.fields.append(
                            (field[1], field[0],
                             line_of(clean, decl_off)))
                stmt_start = i + 1
            i += 1
        structs.append(sd)
    return structs


class Lambda:
    def __init__(self, start, captures_text, params_text, body_start,
                 body_end):
        self.start = start
        self.captures_text = captures_text
        self.params_text = params_text
        self.body_start = body_start
        self.body_end = body_end

    def captures(self):
        """Parsed capture list: list of (kind, name, init_expr) where
        kind is 'ref-default', 'val-default', 'this', 'ref', 'val'."""
        out = []
        for raw in split_top_level(self.captures_text):
            c = raw.strip()
            if not c:
                continue
            if c == "&":
                out.append(("ref-default", None, None))
            elif c == "=":
                out.append(("val-default", None, None))
            elif c in ("this", "*this"):
                out.append(("this", None, None))
            else:
                init = None
                if "=" in c:
                    c, init = c.split("=", 1)
                    c = c.strip()
                    init = init.strip()
                if c.startswith("&"):
                    out.append(("ref", c[1:].strip().rstrip("."),
                                init))
                else:
                    out.append(("val", c.strip().rstrip("."), init))
        return out


def find_lambdas(clean):
    lams = []
    n = len(clean)
    i = 0
    while i < n:
        i = clean.find("[", i)
        if i == -1:
            break
        prev = prev_sig_char(clean, i)
        # Subscript / array declarator / attribute: not a lambda intro.
        if prev.isalnum() or prev in "_)]":
            i += 1
            continue
        if i + 1 < n and clean[i + 1] == "[":
            i = clean.find("]]", i)
            i = i + 2 if i != -1 else n
            continue
        close = match_balanced(clean, i, "[", "]")
        if close is None:
            i += 1
            continue
        captures_text = clean[i + 1:close - 1]
        j = close
        while j < n and clean[j] in " \t\n":
            j += 1
        params_text = ""
        if j < n and clean[j] == "(":
            pclose = match_balanced(clean, j, "(", ")")
            if pclose is None:
                i += 1
                continue
            params_text = clean[j + 1:pclose - 1]
            j = pclose
        # Skip specifiers and trailing return type up to '{'.
        body_open = None
        while j < n:
            while j < n and clean[j] in " \t\n":
                j += 1
            if j >= n:
                break
            if clean[j] == "{":
                body_open = j
                break
            spec = re.match(r"(mutable|constexpr|noexcept|->)",
                            clean[j:])
            if not spec:
                break
            j += spec.end()
            if spec.group(1) == "noexcept" and \
                    clean[j:].lstrip()[:1] == "(":
                k = clean.index("(", j)
                nc = match_balanced(clean, k, "(", ")")
                if nc is None:
                    break
                j = nc
            elif spec.group(1) == "->":
                tm = re.match(r"\s*[\w:<>,\s*&]+", clean[j:])
                if tm:
                    j += tm.end()
        if body_open is None:
            i += 1
            continue
        body_close = match_balanced(clean, body_open, "{", "}")
        if body_close is None:
            i += 1
            continue
        lams.append(Lambda(i, captures_text, params_text, body_open,
                           body_close))
        i = body_open + 1  # nested lambdas are found too
    return lams


# ---------------------------------------------------------------------
# Frame analysis helpers
# ---------------------------------------------------------------------

PARAM_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}()]\s*|\n\s*)(?:const\s+)?"
    r"(?!return\b|else\b|delete\b|new\b|throw\b|case\b|do\b|goto\b)"
    r"[A-Za-z_][\w]*(?:\s*::\s*\w+)*(?:\s*<[^;(){}<>]*>)?"
    r"[\s*&]+([a-z_]\w*)\s*[=;({\[]")
RANGE_FOR_DECL_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,\s]*[\s*&]"
    r"([A-Za-z_]\w*)\s*:")


def param_names(params_text):
    names = set()
    for p in split_top_level(params_text):
        p = split_top_level(p, "=")[0].strip()
        if not p or p in ("void",):
            continue
        m = PARAM_NAME_RE.search(p)
        if m and m.group(1) not in CXX_KEYWORDS:
            names.add(m.group(1))
    return names


def local_decls(body_text):
    names = set()
    for m in LOCAL_DECL_RE.finditer(body_text):
        if m.group(1) not in CXX_KEYWORDS:
            names.add(m.group(1))
    for m in RANGE_FOR_DECL_RE.finditer(body_text):
        names.add(m.group(1))
    return names


def innermost_frame(pos, functions, lambdas):
    """The innermost function or lambda whose body contains pos.
    Returns (params_text, body_start, body_end) or None."""
    best = None
    best_size = None
    for f in functions:
        if f.body_start < pos < f.body_end:
            size = f.body_end - f.body_start
            if best_size is None or size < best_size:
                best, best_size = (f.params_text, f.body_start,
                                   f.body_end), size
    for lam in lambdas:
        if lam.body_start < pos < lam.body_end:
            size = lam.body_end - lam.body_start
            if best_size is None or size < best_size:
                best, best_size = (lam.params_text, lam.body_start,
                                   lam.body_end), size
    return best


def enclosing_call_names(clean, pos, limit=4):
    """Names of the call expressions enclosing pos, innermost first,
    stopping at a statement boundary."""
    names = []
    depth = 0
    i = pos - 1
    while i >= 0 and len(names) < limit:
        c = clean[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                if c != "(":
                    return names
                j = i - 1
                while j >= 0 and clean[j] in " \t\n":
                    j -= 1
                k = j
                while k >= 0 and (clean[k].isalnum() or
                                  clean[k] == "_"):
                    k -= 1
                ident = clean[k + 1:j + 1]
                if ident and not ident[0].isdigit() and \
                        ident not in CXX_KEYWORDS:
                    names.append(ident)
                elif not ident:
                    return names
                i = k
                continue
            depth -= 1
        elif c == ";" and depth == 0:
            return names
        i -= 1
    return names


# ---------------------------------------------------------------------
# Per-file analysis context
# ---------------------------------------------------------------------

class FileCtx:
    """One source file: its text, allow() map and the comment/string-
    stripped copy every rule reads. The structural extraction runs on
    first use, so files only the token rules check never pay for it."""

    def __init__(self, root, path):
        self.path = path
        self.rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.allowed = suppressed_rules_by_line(self.text)
        self.clean = strip_comments_and_strings(self.text)

    @functools.cached_property
    def functions(self):
        return find_functions(self.clean)

    @functools.cached_property
    def lambdas(self):
        return find_lambdas(self.clean)

    @functools.cached_property
    def structs(self):
        return find_structs(self.clean)

    def is_suppressed(self, lineno, rule):
        return (rule in self.allowed.get(lineno, ()) or
                rule in self.allowed.get(lineno - 1, ()))


def in_determinism_scope(rel):
    return any(rel == d or rel.startswith(d + "/")
               for d in DETERMINISM_SCOPE)


# ---------------------------------------------------------------------
# Token rules
# ---------------------------------------------------------------------

RANDOM_PATTERNS = (
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.>])random\s*\(\s*\)"), "random()"),
    (re.compile(r"(?<![\w.>])drand48\s*\("), "drand48()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"std\s*::\s*(mt19937(_64)?|minstd_rand0?|ranlux\w+|"
                r"default_random_engine|knuth_b)\b"),
     "std <random> engine"),
)

CLOCK_PATTERNS = (
    (re.compile(r"(steady_clock|system_clock|high_resolution_clock)"
                r"\s*::\s*now\s*\("), "std::chrono clock read"),
    (re.compile(r"(?<![\w.:>])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:>])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
)


def check_patterns(ctx, rule, patterns, findings):
    for rx, what in patterns:
        for m in rx.finditer(ctx.clean):
            lineno = line_of(ctx.clean, m.start())
            findings.append(Finding(
                ctx.rel, lineno, rule,
                "%s is nondeterministic here; use util/rng.hh" % what
                if rule == "banned-random" else
                "%s bypasses the event clock; use util/wall_timer.hh "
                "or sim::EventQueue::now()" % what,
                suppressed=ctx.is_suppressed(lineno, rule)))


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
FLOAT_ACCUM_RE = re.compile(r"[+\-*]=|\+\+")


def unordered_decl_names(clean):
    """Names of variables declared with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(clean):
        close = match_balanced(clean, clean.index("<", m.end() - 1),
                               "<", ">")
        if close is None:
            continue
        rest = clean[close:close + 160]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", rest)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def loop_body_span(clean, paren_close):
    """Span of the statement following a for(...) header."""
    i = paren_close
    n = len(clean)
    while i < n and clean[i] in " \t\n":
        i += 1
    if i >= n:
        return (i, i)
    if clean[i] == "{":
        end = match_balanced(clean, i, "{", "}")
        return (i, end if end is not None else n)
    end = clean.find(";", i)
    return (i, end + 1 if end != -1 else n)


def check_unordered_float_iter(ctx, findings):
    clean = ctx.clean
    decls = unordered_decl_names(clean)
    for m in RANGE_FOR_RE.finditer(clean):
        open_paren = clean.index("(", m.end() - 1)
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        header = clean[open_paren + 1:close - 1]
        if ";" in header or ":" not in header:
            continue  # classic for-loop or malformed
        range_expr = header.rsplit(":", 1)[1].strip()
        base = re.match(r"[A-Za-z_]\w*", range_expr)
        over_unordered = ("unordered_" in range_expr or
                          (base and base.group(0) in decls))
        if not over_unordered:
            continue
        body_start, body_end = loop_body_span(clean, close)
        body = clean[body_start:body_end]
        if not FLOAT_ACCUM_RE.search(body):
            continue
        lineno = line_of(clean, m.start())
        rule = "unordered-float-iter"
        findings.append(Finding(
            ctx.rel, lineno, rule,
            "iteration over an unordered container feeds an "
            "accumulation; hash order is implementation-defined, so "
            "the reduction is not reproducible — iterate a sorted "
            "view or use an ordered container",
            suppressed=ctx.is_suppressed(lineno, rule)))


FN_RE = re.compile(
    r"(?:std\s*::\s*function|(?:\bsim\s*::\s*)?\bInlineFunction)\s*<")
# The void() alias has no template argument list of its own.
INLINE_CB_RE = re.compile(r"(?:\bsim\s*::\s*)?\bInlineCallback\b")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "catch",
                    "sizeof", "decltype", "alignof", "noexcept"}


def enclosing_call_paren(clean, pos):
    """Offset of the nearest unmatched '(' before pos whose preceding
    token is an identifier (i.e. a signature/call paren), else None."""
    depth = 0
    i = pos - 1
    while i >= 0:
        c = clean[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if c == "(" and depth == 0:
                j = i - 1
                while j >= 0 and clean[j] in " \t\n":
                    j -= 1
                k = j
                while k >= 0 and (clean[k].isalnum() or clean[k] == "_"):
                    k -= 1
                ident = clean[k + 1:j + 1]
                if ident and not ident[0].isdigit() and \
                        ident not in CONTROL_KEYWORDS:
                    return i
                return None
            if depth == 0:
                return None
            depth -= 1
        elif c == ";":
            return None
        i -= 1
    return None


def fn_by_value_candidates(clean):
    """Offsets of each by-value-prone callable type mention: yields
    (start, end_of_type) for std::function<...>, InlineFunction<...>,
    and the sim::InlineCallback alias (which has no argument list)."""
    for m in FN_RE.finditer(clean):
        lt = clean.index("<", m.end() - 1)
        close = match_balanced(clean, lt, "<", ">")
        if close is not None:
            yield m.start(), close
    for m in INLINE_CB_RE.finditer(clean):
        yield m.start(), m.end()


def check_fn_by_value(ctx, findings):
    clean = ctx.clean
    for start, close in fn_by_value_candidates(clean):
        rest = clean[close:]
        rm = re.match(r"\s*([&*]+)?\s*([A-Za-z_]\w*)?\s*([,)=])?", rest)
        if not rm or rm.group(1):
            continue  # reference/pointer: fine
        if not rm.group(2) or rm.group(3) is None:
            continue  # no declarator or not followed by , ) = — skip
        if enclosing_call_paren(clean, start) is None:
            continue  # local/member/alias declaration, not a parameter
        lineno = line_of(clean, start)
        rule = "fn-by-value"
        findings.append(Finding(
            ctx.rel, lineno, rule,
            "by-value callable parameter (std::function / "
            "sim::InlineFunction / sim::InlineCallback) pays a "
            "type-erased copy or move on every call; take const& "
            "(borrow) or && (sink)",
            suppressed=ctx.is_suppressed(lineno, rule)))


PARFOR_RE = re.compile(r"\bparallelFor\s*\(")
PUSHBACK_RE = re.compile(r"\.\s*(push_back|emplace_back)\s*\(")


def check_parfor_pushback(ctx, findings):
    clean = ctx.clean
    for m in PARFOR_RE.finditer(clean):
        open_paren = clean.index("(", m.end() - 1)
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        region = clean[open_paren:close]
        for pm in PUSHBACK_RE.finditer(region):
            lineno = line_of(clean, open_paren + pm.start())
            rule = "parfor-pushback"
            findings.append(Finding(
                ctx.rel, lineno, rule,
                "%s inside a parallelFor body orders results by "
                "completion, not by index; write to a pre-sized slot "
                "out[i] instead" % pm.group(1),
                suppressed=ctx.is_suppressed(lineno, rule)))


def check_token_rules(ctx, rules, findings):
    """Every token rule but header-standalone, which needs a compiler.
    banned-random and banned-clock apply only in the determinism
    scope."""
    if in_determinism_scope(ctx.rel):
        if "banned-random" in rules and "util/rng" not in ctx.rel:
            check_patterns(ctx, "banned-random", RANDOM_PATTERNS,
                           findings)
        if "banned-clock" in rules:
            check_patterns(ctx, "banned-clock", CLOCK_PATTERNS,
                           findings)
    if "unordered-float-iter" in rules:
        check_unordered_float_iter(ctx, findings)
    if "fn-by-value" in rules:
        check_fn_by_value(ctx, findings)
    if "parfor-pushback" in rules:
        check_parfor_pushback(ctx, findings)


def check_header_standalone(root, headers, compiler, flags, findings):
    """Compile each header on its own (-fsyntax-only), one compiler
    process per CPU."""
    def compile_one(ctx):
        rel = os.path.relpath(ctx.path, os.path.join(root, "src"))
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cc", delete=False) as tu:
            tu.write('#include "%s"\nint accel_analyze_tu_anchor;\n'
                     % rel)
            name = tu.name
        try:
            proc = subprocess.run(
                [compiler] + flags + ["-I", os.path.join(root, "src"),
                                      "-fsyntax-only", name],
                capture_output=True, text=True)
            return ctx, proc.returncode, proc.stderr
        finally:
            os.unlink(name)

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 1) as ex:
        for ctx, rc, err in ex.map(compile_one, headers):
            if rc == 0:
                continue
            head = "\n".join(ctx.text.splitlines()[:15])
            sup_match = SUPPRESS_RE.search(head)
            sup = bool(sup_match and
                       "header-standalone" in sup_match.group(1))
            first_err = next((ln for ln in err.splitlines()
                              if "error:" in ln), err.strip()[:200])
            findings.append(Finding(
                ctx.rel, 1, "header-standalone",
                "header does not compile standalone: %s" % first_err,
                suppressed=sup))


# ---------------------------------------------------------------------
# Sink discovery
# ---------------------------------------------------------------------

CALLBACK_PARAM_RE = re.compile(
    r"\b(?:sim\s*::\s*)?(?:InlineCallback\b|InlineFunction\s*<)")


def discover_sinks(ctxs):
    """BUILTIN_SINKS plus every function in the tree that declares a
    sim::InlineCallback / sim::InlineFunction parameter."""
    sinks = set(BUILTIN_SINKS)
    for ctx in ctxs:
        for m in FUNC_HEAD_RE.finditer(ctx.clean):
            name = m.group(1).rsplit("::", 1)[-1]
            if name in CXX_KEYWORDS:
                continue
            open_paren = m.end() - 1
            close = match_balanced(ctx.clean, open_paren, "(", ")")
            if close is None:
                continue
            params = ctx.clean[open_paren + 1:close - 1]
            if CALLBACK_PARAM_RE.search(params):
                sinks.add(name)
    return sinks


# ---------------------------------------------------------------------
# Rule: dangling-capture
# ---------------------------------------------------------------------

IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)\b")


def check_dangling_capture(ctx, sinks, findings):
    clean = ctx.clean
    for lam in ctx.lambdas:
        caps = lam.captures()
        ref_default = any(k == "ref-default" for k, _, _ in caps)
        explicit_refs = [(nm, init) for k, nm, init in caps
                         if k == "ref"]
        if not ref_default and not explicit_refs:
            continue
        call_names = enclosing_call_names(clean, lam.start)
        if not any(nm in sinks for nm in call_names):
            continue
        frame = innermost_frame(lam.start, ctx.functions, ctx.lambdas)
        if frame is None:
            continue
        params_text, fstart, fend = frame
        frame_body = clean[fstart:fend]
        # A frame that drives the event loop outlives its events.
        if re.search(r"[.>]\s*(%s)\s*\(" % "|".join(LOOP_DRIVERS),
                     frame_body):
            continue
        lineno = line_of(clean, lam.start)
        sup = ctx.is_suppressed(lineno, "dangling-capture")
        frame_locals = (param_names(params_text) |
                        local_decls(clean[fstart:lam.start]))
        fired = False
        for nm, init in explicit_refs:
            # An init-capture referencing only members stays valid.
            if init is not None:
                init_ids = set(IDENT_RE.findall(init))
                if not (init_ids & frame_locals):
                    continue
            findings.append(Finding(
                ctx.rel, lineno, "dangling-capture",
                "lambda captures '%s' by reference and is deferred "
                "through a callback sink (%s); the enclosing frame "
                "returns before the callback runs, so the reference "
                "dangles — capture by value or move instead"
                % (nm, next((c for c in call_names if c in sinks),
                            call_names[0] if call_names else "?")),
                suppressed=sup))
            fired = True
        if ref_default and not fired:
            body_ids = set(
                IDENT_RE.findall(clean[lam.body_start:lam.body_end]))
            leaked = sorted(body_ids & frame_locals)
            # Names re-declared inside the lambda body shadow the
            # enclosing locals and are not captures.
            inner = (local_decls(clean[lam.body_start:lam.body_end]) |
                     param_names(lam.params_text))
            leaked = [nm for nm in leaked if nm not in inner]
            if leaked:
                findings.append(Finding(
                    ctx.rel, lineno, "dangling-capture",
                    "[&]-default lambda referencing enclosing "
                    "local(s) %s is deferred through a callback sink "
                    "(%s); the frame returns before the callback "
                    "runs, so the references dangle — capture by "
                    "value or move instead"
                    % (", ".join("'%s'" % nm for nm in leaked[:4]),
                       next((c for c in call_names if c in sinks),
                            call_names[0] if call_names else "?")),
                    suppressed=sup))


# ---------------------------------------------------------------------
# Rule: rng-discipline
# ---------------------------------------------------------------------

RNG_ADVANCE_RE = re.compile(
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*(%s)\s*\("
    % "|".join(RNG_ADVANCE_METHODS))
STD_DISTRIBUTION_RE = re.compile(
    r"std\s*::\s*(\w+_distribution)\s*<")
STATIC_RNG_RE = re.compile(
    r"\bstatic\s+(?:thread_local\s+)?(?:accel\s*::\s*)?Rng\s+(\w+)")
RNG_LOCAL_RE = re.compile(r"\b(?:accel\s*::\s*)?Rng\s+(\w+)\s*[({;=]")


def check_rng_discipline(ctx, findings):
    clean = ctx.clean
    rule = "rng-discipline"

    # (1) std::*_distribution draws in determinism-scoped code.
    if in_determinism_scope(ctx.rel):
        for m in STD_DISTRIBUTION_RE.finditer(clean):
            lineno = line_of(clean, m.start())
            findings.append(Finding(
                ctx.rel, lineno, rule,
                "std::%s output sequences are implementation-defined "
                "(libstdc++ vs libc++ differ); draw through "
                "util/rng.hh helpers instead" % m.group(1),
                suppressed=ctx.is_suppressed(lineno, rule)))

    # (2) advances on static Rng streams.
    static_rngs = {m.group(1) for m in STATIC_RNG_RE.finditer(clean)}

    # Pre-compute parallelFor lambda body spans.
    parfor_bodies = []
    for m in PARFOR_RE.finditer(clean):
        open_paren = clean.index("(", m.end() - 1)
        close = match_balanced(clean, open_paren, "(", ")")
        if close is None:
            continue
        for lam in ctx.lambdas:
            if open_paren < lam.start < close:
                parfor_bodies.append(lam)

    for m in RNG_ADVANCE_RE.finditer(clean):
        receiver = m.group(1)
        base = re.split(r"\.|->", receiver)[0]
        lineno = line_of(clean, m.start())
        sup = ctx.is_suppressed(lineno, rule)
        if base in static_rngs:
            findings.append(Finding(
                ctx.rel, lineno, rule,
                "advance on static Rng '%s': a program-lifetime "
                "stream is consumed in call order, not slot order, "
                "so results depend on event interleaving and worker "
                "count — construct a slot-seeded local Rng instead"
                % base, suppressed=sup))
            continue
        for lam in parfor_bodies:
            if not (lam.body_start < m.start() < lam.body_end):
                continue
            inner = clean[lam.body_start:lam.body_end]
            declared_inside = (
                re.search(r"\b(?:accel\s*::\s*)?Rng\s+%s\b"
                          % re.escape(base), inner) or
                re.search(r"\bauto\s+%s\s*=" % re.escape(base),
                          inner) or
                base in param_names(lam.params_text))
            if declared_inside:
                continue
            findings.append(Finding(
                ctx.rel, lineno, rule,
                "Rng '%s' advanced inside a parallelFor body but "
                "constructed outside it: the shared stream is "
                "consumed in worker completion order, breaking "
                "ACCEL_JOBS parity — construct a per-slot Rng from "
                "mixed (seed, index) inside the body" % base,
                suppressed=sup))
            break

    # (3) by-value capture of an Rng forks the stream.
    for lam in ctx.lambdas:
        frame = innermost_frame(lam.start, ctx.functions, ctx.lambdas)
        if frame is None:
            continue
        params_text, fstart, fend = frame
        before = clean[fstart:lam.start]
        rng_locals = set(RNG_LOCAL_RE.findall(before))
        # Rng& / Rng params are stream borrows, not forkable copies?
        # A by-value capture of either still copies the engine.
        for p in split_top_level(params_text):
            pm = re.search(r"\bRng\s*&?\s*([A-Za-z_]\w*)\s*$",
                           split_top_level(p, "=")[0].strip())
            if pm:
                rng_locals.add(pm.group(1))
        if not rng_locals:
            continue
        lineno = line_of(clean, lam.start)
        sup = ctx.is_suppressed(lineno, rule)
        for kind, nm, init in lam.captures():
            if kind == "val" and nm in rng_locals and init is None:
                findings.append(Finding(
                    ctx.rel, lineno, rule,
                    "Rng '%s' captured by value: the lambda's copy "
                    "replays the same draws as the original stream "
                    "(a silent stream fork) — capture by reference, "
                    "std::move the generator in, or construct a "
                    "fresh slot-seeded Rng inside" % nm,
                    suppressed=sup))
            elif kind == "val" and init is not None:
                init_ids = set(IDENT_RE.findall(init))
                if (init_ids & rng_locals) and "move" not in init_ids:
                    findings.append(Finding(
                        ctx.rel, lineno, rule,
                        "init-capture copies Rng '%s': the lambda's "
                        "copy replays the same draws as the original "
                        "stream (a silent stream fork) — move it or "
                        "construct a fresh slot-seeded Rng"
                        % sorted(init_ids & rng_locals)[0],
                        suppressed=sup))


# ---------------------------------------------------------------------
# Rules: validate-coverage and metrics-accounting (cross-file)
# ---------------------------------------------------------------------

FLOAT_TYPES = ("double", "float")


def _type_category(type_text, validatable, enums):
    t = type_text.strip()
    if re.search(r"\bbool\b", t):
        return "bool"
    for e in enums:
        if re.search(r"\b%s\b" % re.escape(e), t):
            return "enum"
    for v in validatable:
        if re.search(r"\b%s\b" % re.escape(v), t):
            return "subconfig"
    if any(re.search(r"\b%s\b" % ft, t) for ft in FLOAT_TYPES):
        return "float"
    return "other"


def collect_validate_bodies(ctxs):
    """StructName -> concatenated text of its validate() definition."""
    bodies = {}
    rx = re.compile(r"([A-Za-z_]\w*)\s*::\s*validate\s*\(\s*\)\s*const")
    for ctx in ctxs:
        for m in rx.finditer(ctx.clean):
            brace = ctx.clean.find("{", m.end())
            if brace == -1:
                continue
            close = match_balanced(ctx.clean, brace, "{", "}")
            if close is None:
                continue
            bodies.setdefault(m.group(1), "")
            bodies[m.group(1)] += ctx.clean[brace:close]
    return bodies


def collect_parse_bodies(ctxs, struct_names):
    """StructName -> concatenated bodies of its FromConfig parser(s).
    A parser is associated by return type mention in the declaration
    head (e.g. `Params paramsFromConfig(` or
    `std::shared_ptr<const Plan> planFromConfig(`)."""
    bodies = {}
    for ctx in ctxs:
        for f in ctx.functions:
            if not re.search(r"[Ff]romConfig", f.name):
                continue
            head_limit = ctx.clean.rfind("\n", 0, f.head_start)
            head_start = ctx.clean.rfind("\n", 0, max(0, head_limit))
            head = ctx.clean[max(0, head_start):f.head_start + 1]
            for s in struct_names:
                if re.search(r"\b%s\b" % re.escape(s), head):
                    bodies.setdefault(s, "")
                    bodies[s] += ctx.clean[f.body_start:f.body_end]
    return bodies


def check_validate_coverage(ctxs, findings):
    rule = "validate-coverage"
    enums = set()
    for ctx in ctxs:
        enums.update(ENUM_RE.findall(ctx.clean))

    # Validatable structs, with the defining context for anchoring.
    defs = []  # (ctx, StructDef)
    for ctx in ctxs:
        for sd in ctx.structs:
            if sd.has_validate:
                defs.append((ctx, sd))
    validatable = {sd.name for _, sd in defs}
    validate_bodies = collect_validate_bodies(ctxs)
    parse_bodies = collect_parse_bodies(ctxs, validatable)

    for ctx, sd in defs:
        vbody = validate_bodies.get(sd.name)
        pbody = parse_bodies.get(sd.name)
        for (fname, ftype, fline) in sd.fields:
            cat = _type_category(ftype, validatable, enums)
            sup = ctx.is_suppressed(fline, rule)
            ref_rx = re.compile(r"\b%s\b" % re.escape(fname))
            if vbody is not None and cat in ("float", "subconfig"):
                if not ref_rx.search(vbody):
                    what = ("floating-point field can carry NaN/inf "
                            "out of config parsing"
                            if cat == "float" else
                            "sub-config field has its own validate() "
                            "that is never invoked")
                    findings.append(Finding(
                        ctx.rel, fline, rule,
                        "%s.%s is never referenced in "
                        "%s::validate(): %s"
                        % (sd.name, fname, sd.name, what),
                        suppressed=sup))
            if pbody is not None:
                if not ref_rx.search(pbody):
                    findings.append(Finding(
                        ctx.rel, fline, rule,
                        "%s.%s cannot be set by the %s FromConfig "
                        "parse path: the config key is a silent "
                        "no-op for this field"
                        % (sd.name, fname, sd.name),
                        suppressed=sup))


METRICS_NAME_RE = re.compile(r"(Metrics|Stats)$")
WRITE_AFTER_RE = re.compile(
    r"^\s*(\+=|-=|\*=|/=|\+\+|--|=[^=])")
WRITE_METHOD_RE = re.compile(
    r"^\s*\.\s*(add|merge|record|push_back|emplace_back|resize|"
    r"insert|clear|assign|reserve)\s*\(")
SUBSCRIPT_WRITE_RE = re.compile(r"^\s*\[[^\]]*\]\s*(\+=|-=|=[^=])")
# ++x.f / --x.f: the operator precedes the receiver chain, not the
# field itself.
PRE_INCR_RE = re.compile(r"(\+\+|--)\s*[A-Za-z_][\w.>\[\]-]*\s*$")
# A statement that writes the field elsewhere (self-update like
# x.f = max(x.f, v), or aggregation total.f += m.f / total.f.merge(
# m.f)): its reads are not independent reports of the value.
SELF_WRITE_STMT_TMPL = (
    r"(?:\.|->)\s*%s\s*(?:(\+=|-=|\*=|/=|\+\+|--|=[^=])|"
    r"\.\s*(add|merge|record|push_back|insert|assign)\s*\()")


def _enclosing_statement(clean, pos):
    start = max(clean.rfind(";", 0, pos), clean.rfind("{", 0, pos),
                clean.rfind("}", 0, pos))
    end = clean.find(";", pos)
    if end == -1:
        end = len(clean)
    return clean[start + 1:end]


def _classify_accesses(clean, matches, tracked):
    for m in matches:
        fname = m.group(1)
        after = clean[m.end():m.end() + 200]
        before = clean[max(0, m.start() - 80):m.start()]
        is_write = bool(WRITE_AFTER_RE.match(after) or
                        WRITE_METHOD_RE.match(after) or
                        SUBSCRIPT_WRITE_RE.match(after) or
                        PRE_INCR_RE.search(before))
        if is_write:
            tracked[fname][0] += 1
        else:
            stmt = _enclosing_statement(clean, m.start())
            if re.search(SELF_WRITE_STMT_TMPL % re.escape(fname),
                         stmt):
                continue
            tracked[fname][1] += 1


def check_metrics_accounting(ctxs, scope_rels, findings):
    rule = "metrics-accounting"

    # Collect metrics structs and every known struct's field names
    # (for ambiguity detection).
    metrics = []  # (ctx, StructDef)
    all_fields = {}  # field name -> set of struct names declaring it
    for ctx in ctxs:
        for sd in ctx.structs:
            for (fname, _t, _l) in sd.fields:
                all_fields.setdefault(fname, set()).add(sd.name)
            if METRICS_NAME_RE.search(sd.name) and sd.kind == "struct":
                metrics.append((ctx, sd))

    metric_structs = {sd.name for _, sd in metrics}
    tracked = {}  # field -> [writes, reads]
    ambiguous = set()
    decl_lines = {}  # field -> set of (rel, line) declaration sites
    for ctx, sd in metrics:
        for (fname, ftype, fline) in sd.fields:
            owners = all_fields.get(fname, set())
            # Owned by a non-metrics struct too: member accesses can't
            # be attributed without type resolution; skip honestly.
            if owners - metric_structs:
                ambiguous.add(fname)
                continue
            tracked.setdefault(fname, [0, 0])
            decl_lines.setdefault(fname, set()).add((ctx.rel, fline))

    if not tracked:
        return

    names_alt = "|".join(re.escape(f) for f in sorted(tracked))
    access_rx = re.compile(r"(?:\.|->)\s*(%s)\b" % names_alt)
    # Unqualified accesses: only meaningful inside the metrics
    # struct's own member functions (metrics.cc-style qps()/
    # meanLatencyCycles() read fields without a receiver prefix).
    bare_rx = re.compile(r"(?<![\w.>])(%s)\b" % names_alt)

    for ctx in ctxs:
        if ctx.rel not in scope_rels:
            continue
        clean = ctx.clean
        _classify_accesses(clean, access_rx.finditer(clean), tracked)

        # Member-scope spans for bare accesses: the struct bodies of
        # metrics structs defined here, plus out-of-line
        # StructName::method definitions.
        spans = []
        for sd in ctx.structs:
            if sd.name in metric_structs and \
                    METRICS_NAME_RE.search(sd.name):
                spans.append((sd.body_start, sd.body_end, sd))
        for f in ctx.functions:
            qual = f.qualname.rsplit("::", 2)
            if len(qual) >= 2 and qual[-2] in metric_structs:
                spans.append((f.body_start, f.body_end, None))
        for (start, end, sd) in spans:
            seg = clean[start:end]
            hits = []
            for m in bare_rx.finditer(seg):
                fname = m.group(1)
                lineno = line_of(clean, start + m.start())
                # Skip the field's own declaration (the initializer
                # `= 0` is not an accounting write).
                if sd is not None and \
                        (ctx.rel, lineno) in decl_lines.get(fname,
                                                            ()):
                    continue
                # Arrow/dot-prefixed hits were already counted by
                # access_rx above.
                prev = prev_sig_char(seg, m.start())
                if prev == "." or (prev == ">" and
                                   seg[m.start() - 2:m.start()]
                                   == "->"):
                    continue
                hits.append(m)
            if hits:
                # Re-anchor matches to absolute offsets for
                # classification context.
                class _Shift:
                    def __init__(self, m, off):
                        self._m = m
                        self._off = off

                    def group(self, i):
                        return self._m.group(i)

                    def start(self):
                        return self._m.start() + self._off

                    def end(self):
                        return self._m.end() + self._off

                _classify_accesses(
                    clean, [_Shift(m, start) for m in hits], tracked)

    for ctx, sd in metrics:
        for (fname, ftype, fline) in sd.fields:
            if fname in ambiguous or fname not in tracked:
                continue
            writes, reads = tracked[fname]
            sup = ctx.is_suppressed(fline, rule)
            if writes and not reads:
                findings.append(Finding(
                    ctx.rel, fline, rule,
                    "%s.%s is incremented but never aggregated or "
                    "reported anywhere in src/bench/examples: the "
                    "counter is collected and then lost"
                    % (sd.name, fname), suppressed=sup))
            elif reads and not writes:
                findings.append(Finding(
                    ctx.rel, fline, rule,
                    "%s.%s is reported but never incremented: the "
                    "report shows a constant default"
                    % (sd.name, fname), suppressed=sup))
            elif not reads and not writes:
                findings.append(Finding(
                    ctx.rel, fline, rule,
                    "%s.%s is neither incremented nor reported: dead "
                    "counter" % (sd.name, fname), suppressed=sup))


# ---------------------------------------------------------------------
# Suppression audit
# ---------------------------------------------------------------------

def audit_suppressions(ctxs, findings, rules_run):
    """Stale allow() comments: a suppression naming a rule that ran on
    its file (rules_run: rel -> rules) where that rule produced no
    finding on any covered line. Other rule names are ignored. An
    allow() in a header's first 15 lines also covers the
    header-standalone finding pinned to line 1."""
    fired = {}  # (rel, line) -> set of rules (suppressed or not)
    for f in findings:
        fired.setdefault((f.path, f.line), set()).add(f.rule)
    stale = []
    for ctx in ctxs:
        is_header = ctx.rel.endswith(HEADER_EXTENSIONS)
        for lineno, rules, after in allow_comments(ctx.text):
            covered = {lineno, lineno + 1}
            if after is not None:
                covered.add(after)
            for rule in sorted(rules & rules_run[ctx.rel]):
                rule_covered = set(covered)
                if rule == "header-standalone" and is_header and \
                        lineno <= 15:
                    rule_covered.add(1)
                if any(rule in fired.get((ctx.rel, ln), ())
                       for ln in rule_covered):
                    continue
                stale.append(Finding(
                    ctx.rel, lineno, "stale-suppression",
                    "allow(%s) no longer matches any %s finding on "
                    "this line; remove the suppression" %
                    (rule, rule)))
    return stale


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def collect_files(root, paths, excludes):
    files = []
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            files.append(full)
            continue
        if not os.path.isdir(full):
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir == e or rel_dir.startswith(e + "/")
                   for e in excludes):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, fn))
    return sorted(set(files))


def compile_flags(build_dir):
    """(compiler, flags) from the first entry of build_dir's
    compile_commands.json, keeping -std/-I/-isystem/-D; c++ -std=c++20
    without one."""
    cc_path = os.path.join(build_dir, "compile_commands.json") \
        if build_dir else None
    if cc_path and os.path.exists(cc_path):
        with open(cc_path, encoding="utf-8") as f:
            for entry in json.load(f):
                args = (entry.get("arguments") or
                        entry.get("command", "").split())
                if args:
                    return args[0], [
                        a for a in args[1:]
                        if a.startswith(("-std", "-I", "-isystem", "-D"))]
    return "c++", ["-std=c++20"]


def main(argv):
    ap = argparse.ArgumentParser(
        prog="accel_analyze",
        description="Static analysis for the Accelerometer "
                    "reproduction: determinism, hot-path, callback-"
                    "lifetime, RNG, config and metrics rules.")
    ap.add_argument("paths", nargs="*",
                    help="files or directories relative to --root, "
                         "checked by every rule (default: token rules "
                         "%s; structural rules %s)"
                         % (" ".join(TOKEN_PATHS),
                            " ".join(STRUCTURAL_PATHS)))
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(compiler flags for header-standalone)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above "
                         "this script)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write a machine-readable report here")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated rule subset to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--audit-suppressions", action="store_true",
                    help="report stale allow() comments instead of "
                         "failing on findings")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0

    root = os.path.abspath(
        args.root or
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", ".."))
    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(ALL_RULES)
    if unknown:
        print("accel-analyze: unknown rule(s): %s" %
              ", ".join(sorted(unknown)), file=sys.stderr)
        return 2

    compiler, flags = compile_flags(args.build_dir)

    # The fixture corpora are intentionally full of violations; never
    # analyze them as part of the real tree.
    excludes = ["tests/tools/fixtures"]
    token_files = collect_files(root, args.paths or TOKEN_PATHS,
                                excludes)
    struct_files = collect_files(root, args.paths or STRUCTURAL_PATHS,
                                 excludes)
    # Cross-file rules always see the full structural scope so a
    # partial invocation cannot mistake "not scanned" for "never
    # reported".
    scope_files = collect_files(root, STRUCTURAL_PATHS, excludes)

    ctx_by_path = {p: FileCtx(root, p) for p in
                   sorted(set(token_files) | set(struct_files) |
                          set(scope_files))}
    token_ctxs = [ctx_by_path[p] for p in token_files]
    struct_ctxs = [ctx_by_path[p] for p in struct_files]
    cross_ctxs = [ctx_by_path[p] for p in
                  sorted(set(struct_files) | set(scope_files))]
    struct_rels = {c.rel for c in struct_ctxs}
    scope_rels = {os.path.relpath(p, root) for p in scope_files}

    findings = []
    for ctx in token_ctxs:
        check_token_rules(ctx, rules, findings)
    if "header-standalone" in rules:
        headers = [c for c in token_ctxs
                   if c.rel.endswith(HEADER_EXTENSIONS) and
                   c.rel.startswith("src/")]
        check_header_standalone(root, headers, compiler, flags, findings)
    if "dangling-capture" in rules:
        sinks = discover_sinks(cross_ctxs)
        for ctx in struct_ctxs:
            check_dangling_capture(ctx, sinks, findings)
    if "rng-discipline" in rules:
        for ctx in struct_ctxs:
            check_rng_discipline(ctx, findings)
    if "validate-coverage" in rules:
        agg = []
        check_validate_coverage(cross_ctxs, agg)
        findings.extend(f for f in agg if f.path in struct_rels)
    if "metrics-accounting" in rules:
        agg = []
        check_metrics_accounting(cross_ctxs, scope_rels, agg)
        findings.extend(f for f in agg if f.path in struct_rels)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    # One finding per (file, line, rule): distinct patterns for one
    # rule can fire on the same line (e.g. two clock reads in one
    # statement). Suppression state is per line, so a dropped
    # duplicate never differs from the one kept.
    seen = set()
    deduped = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(f)
    findings = deduped

    checked = [ctx_by_path[p] for p in
               sorted(set(token_files) | set(struct_files))]

    if args.audit_suppressions:
        rules_run = {c.rel: set() for c in checked}
        for c in token_ctxs:
            rules_run[c.rel] |= rules & set(TOKEN_RULES)
        for c in struct_ctxs:
            rules_run[c.rel] |= rules & set(STRUCTURAL_RULES)
        stale = audit_suppressions(checked, findings, rules_run)
        stale.sort(key=lambda f: (f.path, f.line))
        for f in stale:
            print(f.render())
        print("accel-analyze: suppression audit: %d file(s), "
              "%d stale suppression(s)" % (len(checked), len(stale)))
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as f:
                json.dump({
                    "version": 1,
                    "mode": "audit-suppressions",
                    "stale": [s.as_dict() for s in stale],
                }, f, indent=2)
                f.write("\n")
        return 1 if stale else 0

    live = [f for f in findings if not f.suppressed]

    for f in findings:
        print(f.render())
    print("accel-analyze: %d file(s) analyzed (token rules %d, "
          "structural rules %d), %d finding(s), %d suppressed"
          % (len(checked), len(token_files), len(struct_files),
             len(live), len(findings) - len(live)))

    if args.json_out:
        report = {
            "version": 1,
            "tool": TOOL_NAME,
            "root": root,
            "rules": sorted(rules),
            "checked_files": len(checked),
            "findings": [f.as_dict() for f in findings],
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
