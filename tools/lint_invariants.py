#!/usr/bin/env python3
"""Project-invariant linter: concurrency contracts the compiler can't see.

Clang's -Wthread-safety checks lock discipline where annotations exist; this
linter closes the gaps where the *absence* of an annotation is the bug, and
enforces repo conventions that keep the annotated world airtight:

  naked-mutex      Raw <mutex>/<condition_variable> primitives are forbidden
                   outside src/util/mutex.h. Mutual exclusion must go through
                   the annotated hcore::Mutex/MutexLock/CondVar wrappers, or
                   the thread-safety analysis silently sees nothing.

  published-type   The published, shared-by-readers type (HCoreSnapshot)
                   must stay logically immutable: every public member
                   function is const, and every `mutable` field either
                   carries GUARDED_BY(...) or is a std::atomic (or the Mutex
                   that guards the others).

  stats-add        Every numeric counter in a *Stats struct that has a
                   field-wise `void Add(const X&)` must be referenced in the
                   Add body — a counter missing from Add silently vanishes
                   from cross-epoch aggregation.

  shared-buffer    Graph storage reachable from published snapshots
                   (CsrStorage, Graph) is shared by pointer across epochs
                   and reader threads: these types must expose no public
                   mutating (non-const) member functions. A mutation entry
                   point on shared storage is a data race with every
                   concurrent reader of every epoch that shares it.

  test-only-api    A function declared in a src/ header must have a caller
                   in a program: something under src/, tools/, bench/,
                   examples/ or perfbench/ outside the declaring header and
                   its same-stem .cc must reference it. A function only
                   tests/ and its own files call belongs in tests/ (e.g.
                   tests/test_util.h), in an anonymous namespace, or
                   nowhere. Matching is by name, so a name some other
                   program file uses for anything counts as used.

A line (or the statement it ends) can be exempted with a justifying comment
containing `lint:allow(<rule>)`; for test-only-api, put it with a reason in
the comment above the declaration.

Usage:
  lint_invariants.py [--root DIR]   # lint the tree; exit 1 on violations
  lint_invariants.py --self-test    # negative tests: each rule must fire
"""

import argparse
import bisect
import os
import re
import sys

# Classes with the published-immutable contract (rule: published-type).
PUBLISHED_CLASSES = ("HCoreSnapshot",)

# Graph storage types shared across epochs (rule: shared-buffer).
# Reachable from every published snapshot; a public mutating method here
# would let one epoch scribble on arrays other epochs still serve.
SHARED_BUFFER_CLASSES = ("CsrStorage", "Graph")

# Directories scanned, relative to --root.
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")

# Programs whose references keep a src/ function alive (rule:
# test-only-api), and the tree whose references do not.
API_USER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
API_TEST_DIR = "tests"

# The one file allowed to name the raw primitives: the annotated wrapper.
MUTEX_WRAPPER = os.path.join("src", "util", "mutex.h")

NAKED_MUTEX_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b")

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _allowed(rule, *texts):
    for text in texts:
        for m in ALLOW_RE.finditer(text):
            if m.group(1) == rule:
                return True
    return False


def _line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def _matching(text, open_pos, open_ch, close_ch):
    """Index just past the bracket matching text[open_pos]; -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


_COMMENT_OR_STRING_RE = re.compile(r'//|/\*|"')


def _strip_comments(text):
    """Blanks // and /* */ comments, preserving newlines (line numbers)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        m = _COMMENT_OR_STRING_RE.search(text, i)
        if not m:
            out.append(text[i:])
            break
        out.append(text[i:m.start()])
        i = m.start()
        if m.group(0) == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
        elif m.group(0) == "/*":
            j = text.find("*/", i)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
        else:
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
        i = j
    return "".join(out)


def _strip_bodies(text):
    """Replaces every top-level {...} block with ';', preserving newlines."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "{":
            end = _matching(text, i, "{", "}")
            if end < 0:
                break
            out.append(";" + "\n" * text.count("\n", i, end))
            i = end
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rule: naked-mutex
# ---------------------------------------------------------------------------

def check_naked_mutex(path, text, code=None):
    violations = []
    if path.replace(os.sep, "/").endswith(MUTEX_WRAPPER.replace(os.sep, "/")):
        return violations
    if code is None:
        code = _strip_comments(text)
    code_lines = code.splitlines()
    orig_lines = text.splitlines()
    for i, line in enumerate(code_lines, start=1):
        m = NAKED_MUTEX_RE.search(line)
        if m and not _allowed("naked-mutex", orig_lines[i - 1]):
            violations.append(Violation(
                path, i, "naked-mutex",
                f"raw {m.group(0)} outside src/util/mutex.h — use the "
                "annotated hcore::Mutex/MutexLock/CondVar wrappers"))
    return violations


# ---------------------------------------------------------------------------
# Rule: published-type
# ---------------------------------------------------------------------------

_FUNC_SKIP_NAMES = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "decltype",
    "static_assert", "alignas", "alignof", "noexcept", "catch", "defined",
))

_MACRO_NAME_RE = re.compile(r"^[A-Z_0-9]+$")


def _class_body(text, name):
    """(body, offset, kind) of `class|struct name ... { ... }`.

    kind is "class" or "struct" (they differ in default member access);
    (None, 0, None) when the type is not defined in `text`.
    """
    m = re.search(
        r"\b(class|struct)\s+" + re.escape(name) + r"\b[^;{]*\{", text)
    if not m:
        return None, 0, None
    open_pos = m.end() - 1
    end = _matching(text, open_pos, "{", "}")
    if end < 0:
        return None, 0, None
    return text[open_pos + 1:end - 1], open_pos + 1, m.group(1)


def check_published_type(path, text, code=None,
                         class_names=PUBLISHED_CLASSES):
    violations = []
    # Comment stripping preserves offsets, so class-body positions found in
    # `code` are valid in `text` (where the lint:allow comments live).
    if code is None:
        code = _strip_comments(text)
    orig_lines = text.splitlines()

    def stmt_allowed(base_line, stmt):
        lo = base_line - 1
        hi = min(len(orig_lines), lo + stmt.count("\n") + 1)
        return _allowed("published-type", *orig_lines[lo:hi])

    for name in class_names:
        body, base, kind = _class_body(code, name)
        if body is None:
            continue
        base_line = _line_of(code, base)
        stripped = _strip_bodies(body)

        # (a) public member functions must be const.
        access = "public" if kind == "struct" else "private"
        # Walk declarations statement-by-statement, tracking access labels.
        for stmt_m in re.finditer(r"[^;]*;", stripped):
            stmt = stmt_m.group(0)
            line = base_line + stripped.count("\n", 0, stmt_m.start())
            for lab in re.finditer(r"\b(public|private|protected)\s*:", stmt):
                access = lab.group(1)
            if access != "public":
                continue
            fn = re.search(r"(~?)([A-Za-z_]\w*)\s*\(", stmt)
            if not fn:
                continue
            fname = fn.group(2)
            if (fn.group(1) == "~" or fname == name
                    or fname in _FUNC_SKIP_NAMES
                    or _MACRO_NAME_RE.match(fname)
                    or "operator" in stmt
                    or re.search(r"\bstatic\b", stmt)
                    or re.search(r"\busing\b", stmt)):
                continue
            close = _matching(stmt, fn.end() - 1, "(", ")")
            if close < 0:
                continue
            tail = stmt[close:]
            if re.match(r"\s*const\b", tail):
                continue
            if stmt_allowed(line, stmt):
                continue
            violations.append(Violation(
                path, line + stmt.count("\n", 0, fn.start()),
                "published-type",
                f"{name}::{fname} is a non-const public member function on "
                "a published (reader-shared) type"))

        # (b) mutable fields must be guarded or atomic.
        for stmt_m in re.finditer(r"[^;]*;", stripped):
            stmt = stmt_m.group(0)
            line = base_line + stripped.count("\n", 0, stmt_m.start())
            if "mutable" not in stmt:
                continue
            if ("GUARDED_BY(" in stmt or "std::atomic" in stmt
                    or re.search(r"\bMutex\s+\w+", stmt)):
                continue
            if stmt_allowed(line, stmt):
                continue
            violations.append(Violation(
                path, line, "published-type",
                f"mutable field in {name} is neither GUARDED_BY(...) nor "
                "std::atomic"))
    return violations


# ---------------------------------------------------------------------------
# Rule: shared-buffer
# ---------------------------------------------------------------------------

def check_shared_buffer(path, text, code=None,
                        class_names=SHARED_BUFFER_CLASSES):
    """Graph storage shared across published epochs must be read-only.

    Flags every public non-const, non-static member function on the shared
    storage types. Constructors, destructors, operators (assignment of a
    whole Graph *value* is fine — it rebinds a shared_ptr, it does not
    mutate shared arrays), and ALL_CAPS macros are skipped, mirroring the
    published-type walk.
    """
    violations = []
    if code is None:
        code = _strip_comments(text)
    orig_lines = text.splitlines()

    def stmt_allowed(base_line, stmt):
        lo = base_line - 1
        hi = min(len(orig_lines), lo + stmt.count("\n") + 1)
        return _allowed("shared-buffer", *orig_lines[lo:hi])

    for name in class_names:
        body, base, kind = _class_body(code, name)
        if body is None:
            continue
        base_line = _line_of(code, base)
        stripped = _strip_bodies(body)
        access = "public" if kind == "struct" else "private"
        for stmt_m in re.finditer(r"[^;]*;", stripped):
            stmt = stmt_m.group(0)
            line = base_line + stripped.count("\n", 0, stmt_m.start())
            for lab in re.finditer(r"\b(public|private|protected)\s*:", stmt):
                access = lab.group(1)
            if access != "public":
                continue
            fn = re.search(r"(~?)([A-Za-z_]\w*)\s*\(", stmt)
            if not fn:
                continue
            fname = fn.group(2)
            if (fn.group(1) == "~" or fname == name
                    or fname in _FUNC_SKIP_NAMES
                    or _MACRO_NAME_RE.match(fname)
                    or "operator" in stmt
                    or re.search(r"\bstatic\b", stmt)
                    or re.search(r"\busing\b", stmt)
                    or re.search(r"\bfriend\b", stmt)):
                continue
            close = _matching(stmt, fn.end() - 1, "(", ")")
            if close < 0:
                continue
            tail = stmt[close:]
            if re.match(r"\s*const\b", tail):
                continue
            if stmt_allowed(line, stmt):
                continue
            violations.append(Violation(
                path, line + stmt.count("\n", 0, fn.start()),
                "shared-buffer",
                f"{name}::{fname} is a public mutating member function on a "
                "storage type shared across published epochs"))
    return violations


# ---------------------------------------------------------------------------
# Rule: stats-add
# ---------------------------------------------------------------------------

_NUMERIC_FIELD_RE = re.compile(
    r"\b(?:uint64_t|int64_t|uint32_t|int32_t|size_t|double|float)\s+"
    r"([a-z]\w*)\s*(?:=[^;,]*)?;")
_AGGREGATE_FIELD_RE = re.compile(r"\b(\w+Stats)\s+([a-z]\w*)\s*;")


def _struct_bodies(text):
    """Yields (struct_name, body_text) for every `struct X { ... }`."""
    for m in re.finditer(r"\bstruct\s+(\w+)\s*(?::[^={]*)?\{", text):
        end = _matching(text, m.end() - 1, "{", "}")
        if end < 0:
            continue
        yield m.group(1), text[m.end():end - 1]


def check_stats_add(header_path, header_text, cc_texts):
    """header_text and cc_texts ({path: text}, the pool searched for
    out-of-line Add bodies) are comment-stripped (see _strip_comments)."""
    violations = []
    for sname, body in _struct_bodies(header_text):
        add_decl = re.search(
            r"void\s+Add\s*\(\s*const\s+" + re.escape(sname) + r"\s*&", body)
        if not add_decl:
            continue
        fields = [f for f in _NUMERIC_FIELD_RE.findall(body)]
        fields += [f[1] for f in _AGGREGATE_FIELD_RE.findall(body)]
        # Locate the Add body: inline, or Struct::Add in one of the .cc files.
        brace = body.find("{", add_decl.end())
        semi = body.find(";", add_decl.end())
        add_body = None
        if brace != -1 and (semi == -1 or brace < semi):
            end = _matching(body, brace, "{", "}")
            add_body = body[brace:end] if end > 0 else None
        else:
            pat = re.compile(re.escape(sname) + r"::Add\s*\([^)]*\)\s*\{")
            for _cc_path, cc_text in cc_texts.items():
                mm = pat.search(cc_text)
                if mm:
                    end = _matching(cc_text, mm.end() - 1, "{", "}")
                    if end > 0:
                        add_body = cc_text[mm.end() - 1:end]
                    break
        if add_body is None:
            violations.append(Violation(
                header_path, _line_of(header_text, header_text.find(body)),
                "stats-add",
                f"{sname} declares Add() but no definition was found"))
            continue
        for field in fields:
            if not re.search(r"\b" + re.escape(field) + r"\b", add_body):
                if _allowed("stats-add", add_body):
                    continue
                violations.append(Violation(
                    header_path,
                    _line_of(header_text, header_text.find(body)),
                    "stats-add",
                    f"counter {sname}::{field} is not accumulated in "
                    f"{sname}::Add — it will vanish from aggregation"))
    return violations


# ---------------------------------------------------------------------------
# Rule: test-only-api
# ---------------------------------------------------------------------------

# Comments, string literals and char literals (not digit separators, which
# follow a word character).
_NON_CODE_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|(?<!\w)\'(?:\\.|[^\'\\\n])*\'',
    re.S)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_DELIM_RE = re.compile(r"[;{}]|^[ \t]*#[^\n]*$", re.M)
_NOT_DECL_FIRST_WORDS = frozenset((
    "return", "else", "case", "default", "throw", "new", "delete", "goto",
    "do", "using", "typedef", "co_return", "co_yield", "co_await",
))


def _code_only(text):
    """Blanks comments and literal contents, keeping offsets and newlines."""
    def blank(m):
        s = m.group(0)
        if s[0] in "\"'":
            return s[0] + re.sub(r"[^\n]", " ", s[1:-1]) + s[-1]
        return re.sub(r"[^\n]", " ", s)
    return _NON_CODE_RE.sub(blank, text)


def _is_declarator_prefix(prefix):
    """True if `prefix` (the statement text before a name) is a return type
    plus an optional `Class::` qualifier, i.e. the name is being declared or
    defined rather than referenced."""
    p = prefix.strip()
    while True:
        m = re.match(r"(?:public|private|protected)\s*:\s*|\[\[[^\]]*\]\]\s*",
                     p)
        if m:
            p = p[m.end():]
            continue
        if re.match(r"template\s*<", p):
            depth = 0
            for i, c in enumerate(p):
                if c == "<":
                    depth += 1
                elif c == ">":
                    depth -= 1
                    if depth == 0:
                        p = p[i + 1:].lstrip()
                        break
            else:
                return False
            continue
        break
    if not p or "<<" in p or not re.fullmatch(r"[\w:<>,*&\s]+", p):
        return False
    type_part = re.sub(r"(?:\w+::)+$", "", p).strip()
    if not type_part or not re.match(r"[A-Za-z_]", type_part):
        return False
    return type_part.split()[0] not in _NOT_DECL_FIRST_WORDS


def _name_sites(code, names=None):
    """Yields (name, offset, is_declarator, statement_start) for every
    identifier in `code` (only those in `names` when given). A site is a
    declarator when a parameter list follows and the statement before it is
    a type."""
    delims = [m.end() for m in _DELIM_RE.finditer(code)]
    for m in _IDENT_RE.finditer(code):
        name = m.group(0)
        if names is not None and name not in names:
            continue
        i = bisect.bisect_right(delims, m.start())
        start = delims[i - 1] if i > 0 else 0
        declarator = (re.match(r"\s*\(", code[m.end():m.end() + 64])
                      is not None
                      and _is_declarator_prefix(code[start:m.start()]))
        yield name, m.start(), declarator, start


def _declaration_scopes(code):
    """Sorted (offset, in_declaration_scope, class_name) after every brace:
    declaration scope means every enclosing brace is a namespace or a
    class body (not a function body, initializer or enum)."""
    events = []
    stack = []  # (kind, class name)
    last_delim = 0
    for m in re.finditer(r"[;{}]", code):
        if m.group(0) == "{":
            head = code[last_delim:m.start()]
            cls = re.search(r"\b(?:class|struct|union)\s+(\w+)[^()]*$", head)
            if re.search(r"\bnamespace\b|\bextern\s*\"", head):
                stack.append(("ns", None))
            elif re.search(r"\benum\b", head):
                stack.append(("enum", None))
            elif cls:
                stack.append(("class", cls.group(1)))
            else:
                stack.append(("block", None))
        elif m.group(0) == "}" and stack:
            stack.pop()
        last_delim = m.end()
        in_decl = all(kind in ("ns", "class") for kind, _ in stack)
        cls_name = stack[-1][1] if stack and stack[-1][0] == "class" else None
        events.append((m.end(), in_decl, cls_name))
    return events


def _header_functions(code):
    """Yields (name, offset, statement_start) for every function declared or
    defined at namespace or class scope of a header."""
    events = _declaration_scopes(code)
    offsets = [e[0] for e in events]
    for name, off, declarator, start in _name_sites(code):
        if not declarator:
            continue
        i = bisect.bisect_right(offsets, off)
        in_decl, cls_name = (events[i - 1][1:] if i > 0 else (True, None))
        if (not in_decl or name == cls_name or name in _FUNC_SKIP_NAMES
                or _MACRO_NAME_RE.match(name) or name == "operator"
                or code[off - 1:off] == "~"):
            continue
        yield name, off, start


def check_test_only_api(texts):
    """texts: {relative path: text} over API_USER_DIRS and API_TEST_DIR."""
    def top(path):
        return path.replace(os.sep, "/").split("/", 1)[0]

    codes = {p: _code_only(t) for p, t in texts.items()}
    declared = {}  # name -> [(path, offset, statement start)]
    for path, code in codes.items():
        if top(path) == "src" and path.endswith(".h"):
            for name, off, start in _header_functions(code):
                declared.setdefault(name, []).append((path, off, start))
    names = set(declared)
    used, tested = {}, {}  # name -> program paths / first test path
    for path, code in codes.items():
        where = top(path)
        for name, _off, declarator, _start in _name_sites(code, names):
            if declarator:
                continue
            if where in API_USER_DIRS:
                used.setdefault(name, set()).add(path)
            elif where == API_TEST_DIR:
                tested.setdefault(name, path)

    violations = []
    for name in sorted(tested):
        for path, off, start in declared[name]:
            own = {path, path[:-len(".h")] + ".cc"}
            if used.get(name, set()) - own:
                continue
            text = texts[path]
            end = min(len(text), text.find("\n", off) + 1 or len(text))
            if _allowed("test-only-api", text[start:end]):
                continue
            violations.append(Violation(
                path, _line_of(text, off), "test-only-api",
                f"{name} is referenced from {tested[name]} but from no "
                "program under " + "/, ".join(API_USER_DIRS) + "/ — move it "
                "into tests/ or delete it"))
    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root, dirs=SCAN_DIRS):
    files = []
    for d in dirs:
        top = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(top):
            for fn in sorted(filenames):
                if fn.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, fn))
    return files


def lint_tree(root):
    files = collect_files(root)
    texts = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            texts[path] = f.read()
    codes = {p: _strip_comments(t) for p, t in texts.items()}
    cc_codes = {p: c for p, c in codes.items() if p.endswith(".cc")}

    violations = []
    for path, text in texts.items():
        rel = os.path.relpath(path, root)
        code = codes[path]
        violations += check_naked_mutex(rel, text, code)
        if path.endswith(".h"):
            violations += check_published_type(rel, text, code)
            violations += check_shared_buffer(rel, text, code)
            violations += check_stats_add(rel, code, cc_codes)

    api_texts = {}
    for path in collect_files(root, API_USER_DIRS + (API_TEST_DIR,)):
        with open(path, encoding="utf-8") as f:
            api_texts[os.path.relpath(path, root)] = f.read()
    violations += check_test_only_api(api_texts)
    return violations


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on the
# compliant twin. This is the negative test the build runs — it proves the
# linter still detects what it claims to.
# ---------------------------------------------------------------------------

def self_test():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # naked-mutex fires on a raw primitive, stays quiet on the wrapper file
    # and on an allowed line.
    bad = "std::mutex mu_;\n"
    ok_allowed = "std::mutex mu_;  // justified: lint:allow(naked-mutex)\n"
    expect(check_naked_mutex("x.h", bad), "naked-mutex: missed std::mutex")
    expect(not check_naked_mutex(MUTEX_WRAPPER, bad),
           "naked-mutex: fired inside the wrapper header")
    expect(not check_naked_mutex("x.h", ok_allowed),
           "naked-mutex: ignored lint:allow")

    # published-type fires on a non-const public method and an unguarded
    # mutable field; quiet on the compliant class.
    bad_cls = """
class HCoreSnapshot {
 public:
  void Poke(int x);
 private:
  mutable int scribble_;
};
"""
    ok_cls = """
class HCoreSnapshot {
 public:
  int Get() const;
 private:
  mutable Mutex lazy_mu_;
  mutable int cache_ GUARDED_BY(lazy_mu_);
  mutable std::atomic<int> hits_{0};
};
"""
    got = check_published_type("x.h", bad_cls)
    expect(any("Poke" in v.message for v in got),
           "published-type: missed non-const public method")
    expect(any("mutable" in v.message for v in got),
           "published-type: missed unguarded mutable field")
    expect(not check_published_type("x.h", ok_cls),
           "published-type: false positive on compliant class")

    # shared-buffer fires on a public mutating method of a shared storage
    # type (struct default access counts as public); quiet on the read-only
    # twin and on an allowed line.
    bad_storage = """
struct CsrStorage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  void Clear();
};
"""
    ok_storage = """
struct CsrStorage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  uint64_t MemoryBytes() const;
};
"""
    allowed_storage = """
struct CsrStorage {
  void Clear();  // build-time only: lint:allow(shared-buffer)
};
"""
    bad_graph = """
class Graph {
 public:
  void CompactInPlace();
  uint64_t num_edges() const;
};
"""
    got = check_shared_buffer("x.h", bad_storage)
    expect(any("Clear" in v.message for v in got),
           "shared-buffer: missed mutating method on struct (default public)")
    expect(not check_shared_buffer("x.h", ok_storage),
           "shared-buffer: false positive on read-only storage type")
    expect(not check_shared_buffer("x.h", allowed_storage),
           "shared-buffer: ignored lint:allow")
    expect(any("CompactInPlace" in v.message
               for v in check_shared_buffer("x.h", bad_graph)),
           "shared-buffer: missed mutating method on Graph")

    # stats-add fires when a counter is missing from Add.
    bad_stats = """
struct FooStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  void Add(const FooStats& other) { hits += other.hits; }
};
"""
    ok_stats = """
struct FooStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  void Add(const FooStats& other) {
    hits += other.hits;
    misses += other.misses;
  }
};
"""
    expect(any("misses" in v.message
               for v in check_stats_add("x.h", _strip_comments(bad_stats),
                                        {})),
           "stats-add: missed unaccumulated counter")
    expect(not check_stats_add("x.h", _strip_comments(ok_stats), {}),
           "stats-add: false positive on complete Add")

    # test-only-api fires on src/ functions only tests/ reference (a free
    # function and a member defined out of line), and on one its own .cc
    # calls too; it stays quiet once a tools/ caller exists, and honors
    # lint:allow above the declaration.
    api_tree = {
        "src/x.h": ("#include <vector>\n"
                    "namespace hcore {\n"
                    "/// Doubles x.\n"
                    "int Twice(int x);\n"
                    "int Used(int x);\n"
                    "int Helper(int x);\n"
                    "struct Box {\n"
                    "  Box() = default;\n"
                    "  const std::vector<int>& Items() const;\n"
                    "};\n"
                    "}  // namespace hcore\n"),
        "src/x.cc": ("#include \"x.h\"\n"
                     "namespace hcore {\n"
                     "int Twice(int x) { return 2 * x; }\n"
                     "int Used(int x) { return Helper(x); }\n"
                     "int Helper(int x) { return x; }\n"
                     "const std::vector<int>& Box::Items() const {\n"
                     "  static const std::vector<int> kNone;\n"
                     "  return kNone;\n"
                     "}\n"
                     "}  // namespace hcore\n"),
        "tests/x_test.cc": ("TEST(X, Twice) {\n"
                            "  EXPECT_EQ(Twice(2), Used(Helper(4)));\n"
                            "  EXPECT_TRUE(Box().Items().empty());\n"
                            "}\n"),
        "examples/e.cc": "int main() { return hcore::Used(0); }\n",
    }
    got = sorted(v.message.split()[0] for v in check_test_only_api(api_tree))
    expect(got == ["Helper", "Items", "Twice"],
           "test-only-api: expected Helper, Items and Twice flagged, "
           f"got {got}")
    with_caller = dict(api_tree)
    with_caller["tools/t.cc"] = ("int Run(const hcore::Box& b) {\n"
                                 "  return hcore::Twice(b.Items().size()) +\n"
                                 "         hcore::Helper(1);\n"
                                 "}\n")
    expect(not check_test_only_api(with_caller),
           "test-only-api: fired although tools/ calls the functions")
    allowed = dict(with_caller)
    allowed.pop("tools/t.cc")
    allow = "lint:allow(test-only-api): reason"
    allowed["src/x.h"] = allowed["src/x.h"].replace(
        "/// Doubles x.", "/// Doubles x. " + allow).replace(
        "int Helper", "// " + allow + "\nint Helper").replace(
        "  const std::vector<int>& Items",
        "  // " + allow + "\n  const std::vector<int>& Items")
    expect(not check_test_only_api(allowed),
           "test-only-api: ignored lint:allow")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("lint_invariants self-test: all rules fire and stay quiet "
          "as specified")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true",
                    help="run the negative tests instead of linting")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
