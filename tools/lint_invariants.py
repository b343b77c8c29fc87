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

  page-buffer      COW page buffer types reachable from published snapshots
                   (AdjacencyPage, Graph) are shared by pointer across
                   epochs and reader threads: they must expose no
                   public mutating (non-const) member functions. A mutation
                   entry point on a shared page is a data race with every
                   concurrent reader of every epoch that shares it.

A line (or the statement it ends) can be exempted with a justifying comment
containing `lint:allow(<rule>)`.

Usage:
  lint_invariants.py [--root DIR]   # lint the tree; exit 1 on violations
  lint_invariants.py --self-test    # negative tests: each rule must fire
"""

import argparse
import os
import re
import sys

# Classes with the published-immutable contract (rule: published-type).
PUBLISHED_CLASSES = ("HCoreSnapshot",)

# COW page buffer types shared across epochs (rule: page-buffer).
# Reachable from every published snapshot; a public mutating method here
# would let one epoch scribble on pages other epochs still serve.
PAGE_BUFFER_CLASSES = ("AdjacencyPage", "Graph")

# Directories scanned, relative to --root.
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")

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


def _strip_comments(text):
    """Blanks // and /* */ comments, preserving newlines (line numbers)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j < 0 else j + 2
            chunk = text[i:j]
            out.append("".join(c if c == "\n" else " " for c in chunk))
            i = j
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        else:
            out.append(text[i])
            i += 1
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

def check_naked_mutex(path, text):
    violations = []
    if path.replace(os.sep, "/").endswith(MUTEX_WRAPPER.replace(os.sep, "/")):
        return violations
    code_lines = _strip_comments(text).splitlines()
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


def check_published_type(path, text, class_names=PUBLISHED_CLASSES):
    violations = []
    # Comment stripping preserves offsets, so class-body positions found in
    # `code` are valid in `text` (where the lint:allow comments live).
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
# Rule: page-buffer
# ---------------------------------------------------------------------------

def check_page_buffer(path, text, class_names=PAGE_BUFFER_CLASSES):
    """Page buffers shared across published epochs must be read-only.

    Flags every public non-const, non-static member function on the COW
    page buffer types. Constructors, destructors, operators (assignment of
    a whole Graph *value* is fine — it rebinds shared_ptrs, it does not
    mutate shared pages), and ALL_CAPS macros are skipped, mirroring the
    published-type walk.
    """
    violations = []
    code = _strip_comments(text)
    orig_lines = text.splitlines()

    def stmt_allowed(base_line, stmt):
        lo = base_line - 1
        hi = min(len(orig_lines), lo + stmt.count("\n") + 1)
        return _allowed("page-buffer", *orig_lines[lo:hi])

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
                "page-buffer",
                f"{name}::{fname} is a public mutating member function on a "
                "COW page buffer type shared across published epochs"))
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
    """cc_texts: {path: text} pool to search for out-of-line Add bodies."""
    violations = []
    header_text = _strip_comments(header_text)
    cc_texts = {p: _strip_comments(t) for p, t in cc_texts.items()}
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
# Driver
# ---------------------------------------------------------------------------

def collect_files(root):
    files = []
    for d in SCAN_DIRS:
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
    cc_texts = {p: t for p, t in texts.items() if p.endswith(".cc")}

    violations = []
    for path, text in texts.items():
        rel = os.path.relpath(path, root)
        violations += check_naked_mutex(rel, text)
        if path.endswith(".h"):
            violations += check_published_type(rel, text)
            violations += check_page_buffer(rel, text)
            violations += check_stats_add(rel, text, cc_texts)
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

    # page-buffer fires on a public mutating method of a page buffer type
    # (struct default access counts as public); quiet on the read-only twin
    # and on an allowed line.
    bad_page = """
struct AdjacencyPage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  void Clear();
};
"""
    ok_page = """
struct AdjacencyPage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  uint64_t MemoryBytes() const;
};
"""
    allowed_page = """
struct AdjacencyPage {
  void Clear();  // build-time only: lint:allow(page-buffer)
};
"""
    bad_graph = """
class Graph {
 public:
  void CompactInPlace();
  uint64_t num_edges() const;
};
"""
    got = check_page_buffer("x.h", bad_page)
    expect(any("Clear" in v.message for v in got),
           "page-buffer: missed mutating method on struct (default public)")
    expect(not check_page_buffer("x.h", ok_page),
           "page-buffer: false positive on read-only page type")
    expect(not check_page_buffer("x.h", allowed_page),
           "page-buffer: ignored lint:allow")
    expect(any("CompactInPlace" in v.message
               for v in check_page_buffer("x.h", bad_graph)),
           "page-buffer: missed mutating method on Graph")

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
               for v in check_stats_add("x.h", bad_stats, {})),
           "stats-add: missed unaccumulated counter")
    expect(not check_stats_add("x.h", ok_stats, {}),
           "stats-add: false positive on complete Add")

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
