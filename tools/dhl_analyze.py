#!/usr/bin/env python3
"""Static analyzer for the DHL codebase: layering, determinism,
snapshot coverage and the single-file source invariants.

Pure Python (no clang dependency) so it runs identically on developer
machines and in CI.  It parses the *include graph* plus a lightweight
C++ class-member/statement model of src/ and enforces the
whole-program invariants the byte-identity CI jobs can only catch after
the fact (A1-A8), plus the single-file textual invariants the type
system and compiler cannot (A9-A12):

  A1  layer-dag            One declarative adjacency table (LAYER_DEPS)
                           covers every directory under src/: each
                           #include edge in the real include graph must
                           be permitted by the table, which fences both
                           directions at once — a layer reaching *up*
                           (physics including dhl/), a fenced consumer
                           set being widened (anything but serve
                           including te/), and any src/ file reaching
                           *out* to the front-end trees (bench/, tools/,
                           examples/).  A directory missing from the
                           table is itself a finding (layer-unknown):
                           growing a new subsystem forces a conscious
                           DAG decision.  --dot exports the graph.
  A2  snapshot-coverage    Every class that implements the snapshot
                           protocol (saveState/restoreState taking
                           SnapshotWriter/SnapshotReader, or
                           checkpoint/restore constructing them) must
                           account for each non-static data member: the
                           member is referenced on *both* the save and
                           the restore side, or it carries an explicit
                           in-source allowlist comment
                             // dhl-analyze: transient(<m1>, <m2>): why
                           inside the class body.  Adding a field to
                           ServingSim without serialising it fails CI
                           instead of silently diverging a checkpoint.
  A3  snapshot-keys        The literal `put*` keys written by a class's
                           save side must equal the literal `get*`/
                           `has` keys read by its restore side —
                           a write-only or read-only key is a drifting
                           document schema.
  A4  snapshot-transient   A transient(...) annotation naming a member
                           the class does not declare is stale and must
                           be removed (it would mask a future field).
  A5  unordered-iteration  Range-for / iterator loops over
                           unordered_map/unordered_set whose body
                           accumulates (+=, -=, *=, /=), schedules
                           events, or writes snapshot keys are
                           order-dependent: hash iteration order is not
                           part of the determinism contract.  The
                           sanctioned shape is collect-keys-then-sort.
  A6  literal-seed         Rng construction from an integer literal in
                           src/: every stream must flow through
                           deriveSeed(base, stream) so seeds stay
                           decorrelated and survive scenario reordering
                           (common/random.hpp documents why).
  A7  pointer-key          Pointer-valued keys in ordered containers
                           (std::map/set over T*): iteration order is
                           allocation order, which no two runs share.
  A8  raw-threading        No raw std::thread / std::async / std::mutex
                           (and friends) in src/ outside the ThreadPool
                           implementation and the logging sink's lock —
                           concurrency goes through the
                           caller-participating ThreadPool, whose
                           fork/join handshake is the only
                           synchronisation the determinism contract
                           allows.
  A9  magnitude-literals   No raw ``* 1e9`` / ``/ 1e12``-style unit
                           conversions in src/ outside units.hpp and
                           quantity.hpp — use the named helpers
                           (units::toMegajoules, qty::petabytes, ...).
  A10 iostream-in-src      No ``std::cout`` / ``std::cerr`` in src/ —
                           library code reports through logging.hpp
                           (whose default sink is the one exemption);
                           only tools/, bench/ and examples/ print.
  A11 nondeterminism       No ``rand()`` / ``srand()`` / ``time(``
                           in src/ — the DES must be seed-reproducible
                           (use common/random.hpp Rng).
  A12 include-guards       Headers under src/ use the canonical
                           ``DHL_<PATH>_HPP`` guard so guards never
                           collide as the tree grows.

Usage:
  tools/dhl_analyze.py [--root DIR] [--dot FILE]   analyze (exit 1 on findings)
  tools/dhl_analyze.py --self-test                 run the fixture tests
  tools/dhl_analyze.py --dump-model                print the class model
"""

import argparse
import os
import re
import sys
import tempfile

# ---------------------------------------------------------------------------
# A1: the declarative layer DAG.
#
# For each directory under src/, the set of *other* src/ directories its
# files may #include from (every directory may include itself).  The
# table is the single source of truth for layering: physics/common at
# the bottom; the DES kernel (sim); the transport substrates
# (network/storage); the modelled systems (dhl/mlsim/faults, with cost
# riding on dhl); workload synthesis; and the policy layers
# (ops/serve/te) on top.  bench/, tools/ and examples/ are front-end
# trees *outside* the DAG: they may include anything, nothing in src/
# may include them.
#
# The te fence falls out of the table: te appears in the dependency set
# of serve alone, so an include of te/ from anywhere else in src/
# violates the edge check — the "inbound" direction needs no separate
# rule.
# ---------------------------------------------------------------------------

LAYER_DEPS = {
    "common":    set(),
    "physics":   {"common"},
    "sim":       {"common"},
    "exp":       {"common"},
    "storage":   {"common"},
    "network":   {"common", "sim"},
    "faults":    {"common", "sim"},
    "dhl":       {"common", "sim", "physics", "network", "storage",
                  "faults"},
    "mlsim":     {"common", "sim", "network", "dhl", "exp"},
    "cost":      {"common", "dhl", "network"},
    "workloads": {"common", "sim", "network", "dhl"},
    "te":        {"common", "sim"},
    "ops":       {"common", "sim", "dhl", "faults"},
    "serve":     {"common", "sim", "network", "dhl", "faults", "exp",
                  "workloads", "ops", "te"},
    "plan":      {"common", "dhl", "cost", "exp"},
}

FRONTEND_DIRS = ("bench", "tools", "examples")

INCLUDE_RE = re.compile(r'#\s*include\s*["<]([^">]+)[">]')


def validate_layer_table(table):
    """Return a list of problems with an adjacency table: references to
    unknown directories, or a dependency cycle (the table must be a
    DAG, or 'layering' means nothing)."""
    problems = []
    for d, deps in sorted(table.items()):
        for dep in sorted(deps):
            if dep not in table:
                problems.append("%s depends on unknown layer %r" % (d, dep))
            if dep == d:
                problems.append("%s lists itself (self-edges are implicit)"
                                % d)
    # Kahn's algorithm: anything left over sits on a cycle.
    remaining = {d: {x for x in deps if x in table}
                 for d, deps in table.items()}
    while True:
        roots = [d for d, deps in remaining.items() if not deps]
        if not roots:
            break
        for d in roots:
            del remaining[d]
        for deps in remaining.values():
            deps.difference_update(roots)
    if remaining:
        problems.append("dependency cycle through: %s"
                        % ", ".join(sorted(remaining)))
    return problems


def include_target_dir(path):
    """First path component of an include target, with any ../ prefix
    stripped; None for local (bare-filename) or system includes."""
    p = path.replace("\\", "/")
    while p.startswith("../"):
        p = p[3:]
    if "/" not in p:
        return None
    return p.split("/", 1)[0]


# ---------------------------------------------------------------------------
# Lightweight C++ model: comment masking, brace matching, class/member
# extraction, method-definition bodies.
# ---------------------------------------------------------------------------

def mask_comments(text):
    """Replace comment and string-literal contents with spaces,
    preserving every newline so offsets map to the same lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append(re.sub(r"[^\n]", " ", chunk))
            i = j + 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + " " * (j - i - 1) + '"')
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("'" + " " * (j - i - 1) + "'")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_brace(text, open_idx):
    """Index of the '}' matching text[open_idx] == '{'; -1 if
    unbalanced.  Call on comment-masked text only."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


CLASS_RE = re.compile(
    r"\b(enum\s+)?(?:class|struct)\s+([A-Za-z_]\w*)\s*"
    r"(?:final\s*)?(?::[^{;]*)?\{")

TRANSIENT_RE = re.compile(
    r"//\s*dhl-analyze:\s*transient\(([^)]*)\)\s*:?")

MEMBER_SKIP_RE = re.compile(
    r"\b(?:static|using|typedef|friend|template|operator|enum|class|"
    r"struct|return|if|for|while|switch|case|public|private|protected)\b")

MEMBER_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


class ClassModel(object):
    def __init__(self, name, rel_path, line, start, end):
        self.name = name
        self.rel_path = rel_path
        self.line = line
        self.span = (start, end)        # offsets into the file text
        self.members = []               # (name, type_text, line)
        self.transients = {}            # member name -> line
        self.save_bodies = []           # masked body text of save side
        self.restore_bodies = []


def extract_classes(rel_path, text, masked):
    """All class/struct definitions in one file (nested ones too: they
    surface as their own models and their members are not attributed to
    the enclosing class)."""
    classes = []
    for m in CLASS_RE.finditer(masked):
        if m.group(1):                  # enum class
            continue
        open_idx = m.end() - 1
        close = match_brace(masked, open_idx)
        if close < 0:
            continue
        cls = ClassModel(m.group(2), rel_path, line_of(masked, m.start()),
                         m.start(), close)
        body = masked[open_idx + 1:close]
        body_base = open_idx + 1
        cls.members = extract_members(body, masked, body_base)
        # Transient annotations live in comments, inside the class span.
        # A long member list may wrap across lines; each continuation
        # line carries its own leading "//", which is stripped here.
        for t in TRANSIENT_RE.finditer(text, m.start(), close):
            for name in t.group(1).split(","):
                name = name.strip()
                while name.startswith("/"):
                    name = name.lstrip("/").lstrip()
                if name:
                    cls.transients[name] = line_of(text, t.start())
        classes.append(cls)
    return classes


def _mask_nested(body):
    """Blank the contents of nested {...} groups (function bodies,
    nested classes, braced initialisers), then terminate each closing
    brace with ';' so an inline method body never glues itself onto the
    next declaration when splitting on ';'."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            out.append("{")
        elif c == "}":
            depth -= 1
            out.append("};" if depth == 0 else " ")
        elif depth > 0:
            out.append("\n" if c == "\n" else " ")
        else:
            out.append(c)
    return "".join(out)


def extract_members(body, masked, body_base):
    """Non-static data members of one class body: (name, type, line)."""
    flat = _mask_nested(body)
    members = []
    pos = 0
    for stmt_m in re.finditer(r"[^;]*;", flat, re.DOTALL):
        stmt = stmt_m.group(0)[:-1]
        stmt_start = stmt_m.start()
        pos = stmt_m.end()
        # Drop access labels glued to the front of the statement.
        stmt = re.sub(r"^\s*(?:public|private|protected)\s*:", "", stmt)
        if "(" in stmt or ")" in stmt:
            continue                    # function declaration
        if MEMBER_SKIP_RE.search(stmt):
            continue
        decl = stmt.split("=", 1)[0]
        decl = re.sub(r"\{[^}]*\}\s*$", "", decl)   # brace-init
        decl = re.sub(r"\[[^\]]*\]\s*$", "", decl)  # array extent
        nm = MEMBER_NAME_RE.search(decl.rstrip())
        if not nm:
            continue
        name = nm.group(1)
        type_text = decl[:nm.start(1)].strip()
        if not type_text:               # a bare identifier is not a decl
            continue
        line = line_of(masked, body_base + stmt_start +
                       len(stmt_m.group(0)) - len(stmt_m.group(0).lstrip()))
        members.append((name, " ".join(type_text.split()), line))
    del pos
    return members


METHOD_DEF_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\(")

INLINE_METHOD_RE = re.compile(r"\b(~?[A-Za-z_]\w*)\s*\(")


def _param_and_body(masked, paren_open):
    """From the '(' of a candidate method definition, return
    (params_text, body_text, body_found) — body_found False for pure
    declarations."""
    depth = 0
    i = paren_open
    while i < len(masked):
        if masked[i] == "(":
            depth += 1
        elif masked[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    if i >= len(masked):
        return "", "", False
    params = masked[paren_open + 1:i]
    j = i + 1
    while j < len(masked) and (masked[j].isspace() or
                               masked[j:j + 5] == "const" or
                               masked[j:j + 8] == "noexcept" or
                               masked[j:j + 8] == "override" or
                               masked[j:j + 5] == "final"):
        if masked[j].isspace():
            j += 1
        elif masked[j:j + 5] == "const":
            j += 5
        elif masked[j:j + 8] in ("noexcept", "override"):
            j += 8
        else:
            j += 5
    if j >= len(masked) or masked[j] != "{":
        return params, "", False
    close = match_brace(masked, j)
    if close < 0:
        return params, "", False
    return params, masked[j + 1:close], True


WRITER_CTOR_RE = re.compile(r"\bSnapshotWriter\s+[A-Za-z_]\w*\s*[({]")
READER_CTOR_RE = re.compile(r"\bSnapshotReader\s+[A-Za-z_]\w*\s*[({]")


def collect_method_bodies(masked):
    """Qualified method definitions in one (masked) file:
    [(class_name, method_name, params, body)]."""
    defs = []
    for m in METHOD_DEF_RE.finditer(masked):
        params, body, found = _param_and_body(masked, m.end() - 1)
        if found:
            defs.append((m.group(1), m.group(2), params, body))
    return defs


def collect_inline_bodies(masked, cls):
    """In-class method definitions inside one class span."""
    start, end = cls.span
    body_region = masked[start:end]
    defs = []
    for m in INLINE_METHOD_RE.finditer(body_region):
        params, body, found = _param_and_body(body_region, m.end() - 1)
        if found:
            defs.append((cls.name, m.group(1), params, body))
    return defs


def side_of(params, body):
    """'save', 'restore', or None for one method definition."""
    if "SnapshotWriter" in params or WRITER_CTOR_RE.search(body):
        return "save"
    if "SnapshotReader" in params or READER_CTOR_RE.search(body):
        return "restore"
    return None


# ---------------------------------------------------------------------------
# Snapshot key extraction (A3).
# ---------------------------------------------------------------------------

# Keys must be extracted from *unmasked* method bodies (string literals
# carry the key names), so the key pass re-runs the body extraction on
# raw text.  put/get with a non-literal first argument (a composed
# key such as "lat" + to_string(i)) is outside the literal check.
PUT_KEY_RE = re.compile(
    r"\.\s*put(?:String|U64|I64|Bool|Double|Rng)\s*\(\s*\"([^\"]+)\"")
GET_KEY_RE = re.compile(
    r"\.\s*(?:get(?:String|U64|I64|Bool|Double|Rng)|has)\s*\(\s*\"([^\"]+)\"")


# ---------------------------------------------------------------------------
# Determinism hazards (A5-A7).
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"((?:const\s+)?(?:std::)?unordered_(?:map|set)\s*<[^;{}()]*?>)\s*&?\s*"
    r"([A-Za-z_]\w*)\s*[;={(]")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")

ITER_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s+\w+\s*=\s*"
    r"((?:this->)?[A-Za-z_][\w.>\-\[\]]*?)\s*\.\s*c?begin\s*\(")

ACCUM_RE = re.compile(r"(?:\+=|-=|\*=|/=)")
SCHED_RE = re.compile(r"\.\s*schedule\w*\s*\(")
SNAPWRITE_RE = re.compile(r"\.\s*put[A-Z]\w*\s*\(")

RNG_LITERAL_RE = re.compile(r"\bRng\s+[A-Za-z_]\w*\s*[({]\s*(?:0x[0-9a-fA-F]+|\d)"
                            r"|\bRng\s*[({]\s*(?:0x[0-9a-fA-F]+|\d)")

RNG_ALLOWLIST = {"src/common/random.hpp", "src/common/random.cpp"}

POINTER_KEY_RE = re.compile(
    r"\bstd::(?:multi)?(?:map|set)\s*<\s*[^,<>]*\*")

# A8: raw threading primitives.  Everything below either spawns threads
# or synchronises them; simulation code must instead use the ThreadPool
# so every cross-thread effect goes through its deterministic fork/join
# barrier.
RAW_THREADING_RE = re.compile(
    r"\bstd::(?:thread|jthread|async|mutex|recursive_mutex|timed_mutex"
    r"|shared_mutex|condition_variable(?:_any)?|lock_guard|unique_lock"
    r"|shared_lock|scoped_lock)\b")

# The pool implementation and the logging sink's lock are the
# concurrency layer the rule funnels everyone into.
RAW_THREADING_ALLOWLIST = {
    "src/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
    "src/common/logging.hpp",
    "src/common/logging.cpp",
}

# ---------------------------------------------------------------------------
# Single-file textual invariants (A9-A12).
# ---------------------------------------------------------------------------

# A9: files allowed to spell out powers of ten — they *define* the unit
# and quantity helpers everything else must use.
MAGNITUDE_ALLOWLIST = {"src/common/units.hpp", "src/common/quantity.hpp"}

# ``* 1e9`` / ``/ 1e15`` with a positive magnitude exponent.  Negative
# exponents (tolerances such as 1e-9) and bare scientific literals in
# comparisons are not unit conversions and stay legal.
MAGNITUDE_RE = re.compile(r"[*/]\s*1e(?:3|6|9|12|15)\b")

# A10: the logging implementation owns the default stderr sink.
IOSTREAM_RE = re.compile(r"\bstd::c(?:out|err)\b")
IOSTREAM_ALLOWLIST = {"src/common/logging.cpp"}

# A11: rand()/srand()/time() calls.  Word-boundary + open paren so that
# identifiers like trip_time or travelTime( never match.
NONDETERMINISM_RE = re.compile(r"(?<![\w.])(?:s?rand|time)\s*\(")

GUARD_RE = re.compile(r"^#ifndef\s+(\S+)", re.MULTILINE)


def expected_guard(posix):
    """src/dhl/analytical.hpp -> DHL_DHL_ANALYTICAL_HPP (the leading
    src/ is dropped, the dhl:: project prefix is added)."""
    stem = os.path.splitext(posix.split("/", 1)[1])[0]
    return "DHL_" + re.sub(r"[/.]", "_", stem).upper() + "_HPP"


def _split_range_for(masked, for_start):
    """For a `for (` at for_start, return (range_expr, body, header_end)
    if it is a range-for, else None.  body is the masked loop body."""
    i = masked.find("(", for_start)
    depth = 0
    j = i
    colon = -1
    while j < len(masked):
        c = masked[j]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                break
        elif c == ":" and depth == 1:
            if masked[j - 1] == ":" or masked[j + 1] == ":":
                j += 1
                continue
            colon = j
        elif c == ";" and depth == 1:
            return None                 # classic three-clause for
        j += 1
    if j >= len(masked) or colon < 0:
        return None
    expr = masked[colon + 1:j].strip()
    k = j + 1
    while k < len(masked) and masked[k].isspace():
        k += 1
    if k < len(masked) and masked[k] == "{":
        close = match_brace(masked, k)
        body = masked[k + 1:close] if close > 0 else ""
    else:
        semi = masked.find(";", k)
        body = masked[k:semi] if semi > 0 else masked[k:]
    return expr, body, j


_SUBSCRIPT_RE = re.compile(r"([A-Za-z_]\w*)\s*((?:\[[^\]]*\])*)\s*$")


def _expr_is_unordered(expr, types):
    """Best-effort: does this range expression denote an unordered
    container?  `types` maps identifier -> set of declared type texts;
    when candidates disagree the call stays quiet (conservative)."""
    if "unordered_" in expr:
        return True
    expr = expr.strip()
    expr = re.sub(r"^\s*this->", "", expr)
    m = _SUBSCRIPT_RE.search(expr)
    if not m:
        return False
    name, subscript = m.group(1), m.group(2)
    cands = types.get(name)
    if not cands:
        return False
    if subscript:
        return all(re.search(r"(?:vector|array|deque)\s*<\s*(?:std::)?"
                             r"unordered_", t) for t in cands)
    return all(re.match(r"(?:const\s+)?(?:std::)?unordered_", t)
               for t in cands)


def _body_is_order_dependent(body):
    if ACCUM_RE.search(body):
        return "accumulates in iteration order"
    if SCHED_RE.search(body):
        return "schedules events in iteration order"
    if SNAPWRITE_RE.search(body):
        return "writes snapshot keys in iteration order"
    return None


# ---------------------------------------------------------------------------
# The analysis driver.
# ---------------------------------------------------------------------------

SOURCE_EXTS = (".hpp", ".cpp")


class FileModel(object):
    def __init__(self, rel_path, text):
        self.rel_path = rel_path
        self.posix = rel_path.replace(os.sep, "/")
        self.text = text
        self.masked = mask_comments(text)
        self.classes = []
        self.includes = []              # (line, target)
        for m in INCLUDE_RE.finditer(self.masked):
            # The masked text blanks string contents; re-read the raw
            # include target from the original text at the same span.
            raw = INCLUDE_RE.match(self.text, m.start())
            if raw:
                self.includes.append((line_of(self.text, m.start()),
                                      raw.group(1)))


def load_tree(root, subdirs=("src", "bench", "tools", "examples")):
    files = []
    for sub in subdirs:
        top = os.path.join(root, sub)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as fh:
                    fm = FileModel(rel, fh.read())
                fm.classes = extract_classes(rel, fm.text, fm.masked)
                files.append(fm)
    return files


def src_dir_of(posix):
    """'src/dhl/track.hpp' -> 'dhl'; None outside src/."""
    parts = posix.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_layers(files, table=None):
    """A1: every include edge of every src/ file against the table, and
    every src/ directory against the table's key set."""
    table = LAYER_DEPS if table is None else table
    findings = []
    for problem in validate_layer_table(table):
        findings.append(("LAYER_DEPS", 0, "layer-dag",
                         "adjacency table invalid: " + problem))
    seen_dirs = set()
    for fm in files:
        d = src_dir_of(fm.posix)
        if d is None:
            continue
        if d not in seen_dirs:
            seen_dirs.add(d)
            if d not in table:
                findings.append(
                    (fm.rel_path, 1, "layer-unknown",
                     "src/%s/ has no entry in the layer DAG; add one to "
                     "LAYER_DEPS (tools/dhl_analyze.py) stating what it "
                     "may depend on" % d))
        if d not in table:
            continue
        for line, target in fm.includes:
            tgt = include_target_dir(target)
            if tgt is None:
                continue
            if tgt in FRONTEND_DIRS:
                findings.append(
                    (fm.rel_path, line, "layer-dag",
                     "src/%s/ must not include front-end header %r "
                     "(bench/, tools/ and examples/ sit outside the "
                     "layer DAG and depend on src/, never the reverse)"
                     % (d, target)))
            elif tgt in table and tgt != d and tgt not in table[d]:
                findings.append(
                    (fm.rel_path, line, "layer-dag",
                     "src/%s/ may not depend on src/%s/ (edge absent "
                     "from the layer DAG; allowed: %s)"
                     % (d, tgt, ", ".join(sorted(table[d])) or "nothing")))
    return findings


def build_class_registry(files):
    """Attach method bodies (qualified defs from any file + in-class
    inline defs) to their class models; merge same-named classes by
    (name) for body attachment, keyed per declaring file for member
    checks.  Returns the list of all class models."""
    by_name = {}
    all_classes = []
    for fm in files:
        for cls in fm.classes:
            all_classes.append(cls)
            by_name.setdefault(cls.name, []).append(cls)

    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        for cls_name, _method, params, body in collect_method_bodies(
                fm.masked):
            side = side_of(params, body)
            if side is None:
                continue
            for cls in by_name.get(cls_name, ()):
                (cls.save_bodies if side == "save"
                 else cls.restore_bodies).append(body)
    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        for cls in fm.classes:
            for _name, _method, params, body in collect_inline_bodies(
                    fm.masked, cls):
                side = side_of(params, body)
                if side is None:
                    continue
                (cls.save_bodies if side == "save"
                 else cls.restore_bodies).append(body)
    return all_classes


def _raw_side_bodies(files, cls_names):
    """Unmasked save/restore bodies per class name (for key literals)."""
    save, restore = {}, {}
    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        for cls_name, _method, params, body in collect_method_bodies(
                fm.masked):
            if cls_name not in cls_names:
                continue
            side = side_of(params, body)
            if side is None:
                continue
            # Re-extract the same span from the raw text: find the body
            # by position.  Cheaper: regex the raw text once per class.
            (save if side == "save" else restore).setdefault(
                cls_name, []).append(body)
    return save, restore


def check_snapshots(files):
    """A2/A3/A4 over every snapshot-protocol class in src/."""
    findings = []
    classes = build_class_registry(files)
    for cls in classes:
        if src_dir_of(cls.rel_path.replace(os.sep, "/")) is None:
            continue
        if not cls.save_bodies or not cls.restore_bodies:
            continue
        save_text = "\n".join(cls.save_bodies)
        restore_text = "\n".join(cls.restore_bodies)

        member_names = {name for name, _t, _l in cls.members}
        for name, _type_text, line in cls.members:
            if name in cls.transients:
                continue
            in_save = re.search(r"\b%s\b" % re.escape(name), save_text)
            in_restore = re.search(r"\b%s\b" % re.escape(name),
                                   restore_text)
            if in_save and in_restore:
                continue
            missing = ("save and restore sides"
                       if not in_save and not in_restore
                       else ("save side" if not in_save
                             else "restore side"))
            findings.append(
                (cls.rel_path, line, "snapshot-coverage",
                 "%s::%s is not referenced on the %s of the snapshot "
                 "protocol; serialise it or annotate it "
                 "'// dhl-analyze: transient(%s): <why>'"
                 % (cls.name, name, missing, name)))
        for name, line in sorted(cls.transients.items()):
            if name not in member_names:
                findings.append(
                    (cls.rel_path, line, "snapshot-transient",
                     "stale transient annotation: %s::%s is not a "
                     "data member" % (cls.name, name)))
    return findings


def check_snapshot_keys(files):
    """A3: literal put keys == literal get/has keys, per class.  Key
    literals live in string literals, which the masked text blanks, so
    this pass re-walks the raw text using the masked text's method
    spans."""
    findings = []
    # Build (class -> side -> raw bodies) by re-running the method scan
    # on masked text but slicing bodies out of the *raw* text.
    sides = {}
    lines = {}
    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        for m in METHOD_DEF_RE.finditer(fm.masked):
            params, body, found = _param_and_body(fm.masked, m.end() - 1)
            if not found:
                continue
            side = side_of(params, body)
            if side is None:
                continue
            # Locate the same body span in the raw text.
            open_idx = fm.masked.find("{", m.end() - 1)
            # _param_and_body already proved the brace exists and
            # matches; recompute its span for the raw slice.
            depth = 0
            i = fm.masked.find("(", m.end() - 1)
            while True:
                if fm.masked[i] == "(":
                    depth += 1
                elif fm.masked[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            open_idx = fm.masked.find("{", i)
            close = match_brace(fm.masked, open_idx)
            raw_body = fm.text[open_idx + 1:close]
            entry = sides.setdefault(m.group(1), {"save": set(),
                                                  "restore": set()})
            if side == "save":
                entry["save"].update(PUT_KEY_RE.findall(raw_body))
            else:
                entry["restore"].update(GET_KEY_RE.findall(raw_body))
            lines.setdefault(m.group(1), (fm.rel_path,
                                          line_of(fm.masked, m.start())))
    for cls_name, entry in sorted(sides.items()):
        if not entry["save"] or not entry["restore"]:
            continue
        rel, line = lines[cls_name]
        for key in sorted(entry["save"] - entry["restore"]):
            findings.append(
                (rel, line, "snapshot-keys",
                 "%s writes snapshot key %r that its restore side never "
                 "reads" % (cls_name, key)))
        for key in sorted(entry["restore"] - entry["save"]):
            findings.append(
                (rel, line, "snapshot-keys",
                 "%s reads snapshot key %r that its save side never "
                 "writes" % (cls_name, key)))
    return findings


def _member_types_for_file(fm, by_name):
    """identifier -> set of declared type texts visible in one cpp:
    members of every class that defines a method in this file or is
    declared in it, plus file-local unordered declarations."""
    types = {}

    def add(name, type_text):
        types.setdefault(name, set()).add(type_text)

    class_names = {m.group(1)
                   for m in METHOD_DEF_RE.finditer(fm.masked)}
    for cls in fm.classes:
        class_names.add(cls.name)
    for cls_name in class_names:
        for cls in by_name.get(cls_name, ()):
            for name, type_text, _line in cls.members:
                add(name, type_text)
    for m in UNORDERED_DECL_RE.finditer(fm.masked):
        add(m.group(2), m.group(1))
    return types


def check_hazards(files):
    """A5/A6/A7 over src/."""
    findings = []
    by_name = {}
    for fm in files:
        for cls in fm.classes:
            by_name.setdefault(cls.name, []).append(cls)

    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        types = _member_types_for_file(fm, by_name)

        for m in RANGE_FOR_RE.finditer(fm.masked):
            parts = _split_range_for(fm.masked, m.start())
            if parts is None:
                continue
            expr, body, _hdr_end = parts
            if not _expr_is_unordered(expr, types):
                continue
            why = _body_is_order_dependent(body)
            if why:
                findings.append(
                    (fm.rel_path, line_of(fm.masked, m.start()),
                     "unordered-iteration",
                     "range-for over unordered container %r %s; hash "
                     "order is not deterministic state — collect keys, "
                     "sort, then apply" % (expr.strip(), why)))
        for m in ITER_FOR_RE.finditer(fm.masked):
            if not _expr_is_unordered(m.group(1), types):
                continue
            brace = fm.masked.find("{", m.end())
            semi = fm.masked.find(";", fm.masked.find(")", m.end()))
            if brace < 0:
                continue
            close = match_brace(fm.masked, brace)
            body = fm.masked[brace + 1:close] if close > 0 else ""
            why = _body_is_order_dependent(body)
            del semi
            if why:
                findings.append(
                    (fm.rel_path, line_of(fm.masked, m.start()),
                     "unordered-iteration",
                     "iterator loop over unordered container %r %s; "
                     "hash order is not deterministic state"
                     % (m.group(1), why)))

        if fm.posix not in RNG_ALLOWLIST:
            for m in RNG_LITERAL_RE.finditer(fm.masked):
                findings.append(
                    (fm.rel_path, line_of(fm.masked, m.start()),
                     "literal-seed",
                     "Rng constructed from an integer literal; streams "
                     "must flow through deriveSeed(base, stream) so "
                     "they stay decorrelated (common/random.hpp)"))

        for m in POINTER_KEY_RE.finditer(fm.masked):
            findings.append(
                (fm.rel_path, line_of(fm.masked, m.start()),
                 "pointer-key",
                 "pointer-valued key in an ordered container: "
                 "iteration order would be allocation order, which no "
                 "two runs share — key by a stable id instead"))

        if fm.posix not in RAW_THREADING_ALLOWLIST:
            for m in RAW_THREADING_RE.finditer(fm.masked):
                findings.append(
                    (fm.rel_path, line_of(fm.masked, m.start()),
                     "raw-threading",
                     "%s in library code; use common/thread_pool.hpp "
                     "(ThreadPool)" % m.group(0)))
    return findings


def check_textual(files):
    """A9-A12 over src/, one file at a time."""
    findings = []
    for fm in files:
        if src_dir_of(fm.posix) is None:
            continue
        code = fm.masked
        if fm.posix not in MAGNITUDE_ALLOWLIST:
            for m in MAGNITUDE_RE.finditer(code):
                findings.append(
                    (fm.rel_path, line_of(code, m.start()),
                     "magnitude-literals",
                     "raw magnitude conversion %r; use a units::/qty:: "
                     "helper" % m.group(0).strip()))
        if fm.posix not in IOSTREAM_ALLOWLIST:
            for m in IOSTREAM_RE.finditer(code):
                findings.append(
                    (fm.rel_path, line_of(code, m.start()),
                     "iostream-in-src",
                     "%s in library code; use common/logging.hpp"
                     % m.group(0)))
        for m in NONDETERMINISM_RE.finditer(code):
            findings.append(
                (fm.rel_path, line_of(code, m.start()), "nondeterminism",
                 "%s) breaks seed-reproducibility; use dhl::Rng"
                 % m.group(0).rstrip("(").strip()))
        if fm.posix.endswith(".hpp"):
            g = GUARD_RE.search(code)
            want = expected_guard(fm.posix)
            if g is None:
                findings.append(
                    (fm.rel_path, 1, "include-guards",
                     "missing include guard (expected %s)" % want))
            elif g.group(1) != want:
                findings.append(
                    (fm.rel_path, line_of(code, g.start()),
                     "include-guards",
                     "guard %s should be %s" % (g.group(1), want)))
    return findings


def analyze_files(files):
    findings = []
    findings.extend(check_layers(files))
    findings.extend(check_snapshots(files))
    findings.extend(check_snapshot_keys(files))
    findings.extend(check_hazards(files))
    findings.extend(check_textual(files))
    findings.sort(key=lambda f: (f[0], f[1], f[2]))
    return findings


def analyze_tree(root):
    return analyze_files(load_tree(root))


# ---------------------------------------------------------------------------
# --dot: the include graph as a CI artifact.
# ---------------------------------------------------------------------------

def dot_graph(files, table=None):
    """Directory-level include digraph: src/ layers as boxes placed by
    topological depth, front-end trees dashed, violating edges red."""
    table = LAYER_DEPS if table is None else table
    edges = {}
    for fm in files:
        parts = fm.posix.split("/")
        if parts[0] in FRONTEND_DIRS:
            src = parts[0]
        else:
            src = src_dir_of(fm.posix)
            if src is None:
                continue
        for _line, target in fm.includes:
            tgt = include_target_dir(target)
            if tgt is None or tgt == src:
                continue
            if tgt not in table and tgt not in FRONTEND_DIRS:
                continue
            ok = (src in FRONTEND_DIRS or
                  (tgt in table.get(src, set())))
            key = (src, tgt)
            edges[key] = edges.get(key, True) and ok

    depth = {}

    def depth_of(d):
        if d not in table:
            return 0
        if d not in depth:
            depth[d] = 1 + max((depth_of(x) for x in table[d]
                                if x in table), default=-1)
        return depth[d]

    out = ["digraph dhl_includes {", "  rankdir=BT;",
           '  node [shape=box, fontname="Helvetica"];']
    by_depth = {}
    for d in table:
        by_depth.setdefault(depth_of(d), []).append(d)
    for level in sorted(by_depth):
        out.append("  { rank=same; %s }"
                   % " ".join('"%s";' % d for d in sorted(by_depth[level])))
    for d in FRONTEND_DIRS:
        out.append('  "%s" [style=dashed];' % d)
    for (src, tgt), ok in sorted(edges.items()):
        attr = "" if ok else ' [color=red, penwidth=2]'
        out.append('  "%s" -> "%s"%s;' % (src, tgt, attr))
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Self-test: fixture trees per rule family, written to a tempdir and
# analyzed with the production entry points.
# ---------------------------------------------------------------------------

def _write_tree(root, spec):
    for rel, text in spec.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rules(findings):
    return sorted({f[2] for f in findings})


SNAPSHOT_OK_FIXTURE = {
    "src/sim/gadget.hpp": """\
#ifndef DHL_SIM_GADGET_HPP
#define DHL_SIM_GADGET_HPP
class Gadget {
  public:
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
  private:
    double position_;
    std::uint64_t trips_ = 0;
    // dhl-analyze: transient(scratch_, helper_): rebuilt by recompute()
    std::vector<double> scratch_;
    Helper *helper_ = nullptr;
};
#endif
""",
    "src/sim/gadget.cpp": """\
void Gadget::saveState(sim::SnapshotWriter &w) const {
    w.putDouble("position", position_);
    w.putU64("trips", trips_);
}
void Gadget::restoreState(sim::SnapshotReader &r) {
    position_ = r.getDouble("position");
    trips_ = r.getU64("trips");
}
""",
}

SNAPSHOT_BAD_FIXTURE = {
    "src/sim/gadget.hpp": """\
#ifndef DHL_SIM_GADGET_HPP
#define DHL_SIM_GADGET_HPP
class Gadget {
  public:
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
  private:
    double position_;
    std::uint64_t trips_ = 0;
    double forgotten_field_;
    // dhl-analyze: transient(ghost_): annotation without a member
};
#endif
""",
    "src/sim/gadget.cpp": """\
void Gadget::saveState(sim::SnapshotWriter &w) const {
    w.putDouble("position", position_);
    w.putU64("trips", trips_);
    w.putU64("write_only", trips_);
}
void Gadget::restoreState(sim::SnapshotReader &r) {
    position_ = r.getDouble("position");
    trips_ = r.getU64("trips");
}
""",
}

HAZARD_OK_FIXTURE = {
    "src/dhl/widget.cpp": """\
#include "common/random.hpp"
struct Widget {
    std::unordered_map<std::uint32_t, double> wear_;
    void snapshotSorted(sim::SnapshotWriter &w) const;
    double total() const;
};
void Widget::snapshotSorted(sim::SnapshotWriter &w) const {
    std::vector<std::uint32_t> ids;
    for (const auto &[id, v] : wear_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::uint32_t id : ids)
        w.putDouble("wear", wear_.at(id));
}
double makeStream(std::uint64_t base) {
    Rng rng(deriveSeed(base, 7));
    std::map<std::uint32_t, int> by_id;
    return rng.uniform();
}
""",
}

HAZARD_BAD_FIXTURE = {
    "src/dhl/widget.cpp": """\
#include "common/random.hpp"
struct Widget {
    std::unordered_map<std::uint32_t, double> wear_;
    double total() const;
};
double Widget::total() const {
    double sum = 0.0;
    for (const auto &[id, v] : wear_)
        sum += v;
    return sum;
}
double roll() {
    Rng rng(42);
    std::map<Widget *, int> by_ptr;
    return rng.uniform();
}
void spin() {
    std::mutex m;
    std::thread t([] {});
    t.join();
}
""",
}


def self_test():
    failures = []
    checks = [0]

    def check(name, cond):
        checks[0] += 1
        if not cond:
            failures.append(name)

    # ---- the production table is itself valid ------------------------
    check("table valid", validate_layer_table(LAYER_DEPS) == [])
    check("table cycle detected",
          validate_layer_table({"a": {"b"}, "b": {"a"}}) != [])
    check("table unknown dep detected",
          any("unknown" in p
              for p in validate_layer_table({"a": {"zzz"}})))

    # ---- include target resolution ----------------------------------
    check("target plain", include_target_dir("common/random.hpp")
          == "common")
    check("target relative", include_target_dir("../te/fairness.hpp")
          == "te")
    check("target local", include_target_dir("bar.hpp") is None)

    # ---- member extraction on tricky declarations --------------------
    masked = mask_comments(SNAPSHOT_OK_FIXTURE["src/sim/gadget.hpp"])
    cls = extract_classes("src/sim/gadget.hpp",
                          SNAPSHOT_OK_FIXTURE["src/sim/gadget.hpp"],
                          masked)[0]
    names = [m[0] for m in cls.members]
    check("members found",
          names == ["position_", "trips_", "scratch_", "helper_"])
    check("transients parsed",
          set(cls.transients) == {"scratch_", "helper_"})
    tricky = (
        "class T {\n"
        "  public:\n"
        "    std::size_t numParts() const { return parts_.size(); }\n"
        "    void run(std::size_t n = 0);\n"
        "  private:\n"
        "    static constexpr int kChunk = 8;\n"
        "    using Chunk = std::array<int, 4>;\n"
        "    struct Nested { double inner_; };\n"
        "    std::unordered_map<int, double> by_id_;\n"
        "    double state_[4];\n"
        "    stats::Counter *ctr_ = nullptr;\n"
        "    faults::FaultConfig faults{};\n"
        "};\n")
    cls2 = extract_classes("src/sim/t.hpp", tricky,
                           mask_comments(tricky))[0]
    names2 = [m[0] for m in cls2.members]
    check("tricky members",
          names2 == ["by_id_", "state_", "ctr_", "faults"])
    check("nested struct member not attributed",
          "inner_" not in names2)

    # ---- A9-A12: single-file textual rules -----------------------------
    def rules_of(rel, text):
        return set(_rules(check_textual([FileModel(rel, text)])))

    cpp = os.path.join("src", "foo", "bar.cpp")
    hpp = os.path.join("src", "foo", "bar.hpp")
    hdr = "#ifndef DHL_FOO_BAR_HPP\n#define DHL_FOO_BAR_HPP\n#endif\n"

    # A9 fires on magnitude conversions, in either direction...
    check("A9 multiply",
          "magnitude-literals" in rules_of(cpp, "double x = b * 1e9;\n"))
    check("A9 divide",
          "magnitude-literals" in rules_of(cpp, "double x = j / 1e6;\n"))
    # ...but not on tolerances, comments, or the allow-listed files.
    check("A9 tolerance",
          not rules_of(cpp, "bool ok = err < 1e-9 * 1e-12;\n"))
    check("A9 comment",
          not rules_of(cpp, "// historical: bytes * 1e9\nint x;\n"))
    check("A9 allowlist",
          "magnitude-literals" not in rules_of(
              os.path.join("src", "common", "units.hpp"),
              "constexpr double giga(double n) { return n * 1e9; }\n"))
    check("A9 bare literal",
          not rules_of(cpp, "double cap = 8e12; if (cap > 1e9) cap = 0;\n"))

    # A10 fires only under src/.
    check("A10 cout", "iostream-in-src" in rules_of(cpp, "std::cout << 1;\n"))
    check("A10 cerr", "iostream-in-src" in rules_of(cpp, "std::cerr << 1;\n"))
    check("A10 bench exempt",
          not rules_of(os.path.join("bench", "x.cpp"), "std::cout << 1;\n"))
    check("A10 logging sink exempt",
          "iostream-in-src" not in rules_of(
              os.path.join("src", "common", "logging.cpp"),
              "std::cerr << tag;\n"))

    # A11 fires on the C randomness/time calls, not on lookalikes.
    check("A11 rand", "nondeterminism" in rules_of(cpp, "int r = rand();\n"))
    check("A11 srand", "nondeterminism" in rules_of(cpp, "srand(42);\n"))
    check("A11 time", "nondeterminism" in rules_of(cpp, "time(nullptr);\n"))
    check("A11 travelTime",
          not rules_of(cpp, "double t = travelTime(1, 2, 3, m);\n"))
    check("A11 trip_time", not rules_of(cpp, "double t = trip_time(0);\n"))
    check("A11 member", not rules_of(cpp, "double t = sim.time();\n"))

    # A12 guard naming.
    check("A12 good", "include-guards" not in rules_of(hpp, hdr))
    check("A12 wrong name",
          "include-guards" in rules_of(
              hpp, "#ifndef BAR_HPP\n#define BAR_HPP\n#endif\n"))
    check("A12 missing", "include-guards" in rules_of(hpp, "int x;\n"))
    check("A12 expected name",
          expected_guard(hpp.replace(os.sep, "/")) == "DHL_FOO_BAR_HPP")

    # Includes and threading primitives belong to A1 and A8 alone: the
    # textual rules never report them a second time.
    check("textual rules leave includes to A1",
          not rules_of(os.path.join("src", "ops", "dispatcher.cpp"),
                       '#include "bench/bench_util.hpp"\n'))
    check("textual rules leave threading to A8",
          not rules_of(cpp, "std::thread t(run);\n"))

    # ---- fixture pairs, one per rule family --------------------------
    with tempfile.TemporaryDirectory() as tmp:
        # A1 layer DAG, clean tree.
        _write_tree(os.path.join(tmp, "dag_ok"), {
            "src/dhl/track.cpp": '#include "common/logging.hpp"\n'
                                 '#include "sim/simulator.hpp"\n',
            "src/serve/s.cpp": '#include "te/controller.hpp"\n'
                               '#include "ops/dispatcher.hpp"\n',
            "src/plan/p.cpp": '#include "cost/cost_model.hpp"\n'
                              '#include "exp/experiment_runner.hpp"\n',
            "tools/cli.cpp": '#include "te/controller.hpp"\n',
        })
        f = analyze_tree(os.path.join(tmp, "dag_ok"))
        check("dag ok clean", f == [])

        # A1 violations: an upward edge, a widened te fence (the
        # inbound direction), a front-end reach-out, and the ops layer
        # reaching te/ or network/.
        _write_tree(os.path.join(tmp, "dag_bad"), {
            "src/physics/lim.cpp": '#include "dhl/fleet.hpp"\n',
            "src/dhl/sched.cpp": '#include "te/controller.hpp"\n',
            "src/serve/s.cpp": '#include "bench/bench_util.hpp"\n',
            "src/ops/d.cpp": '#include <tools/cli_helpers.hpp>\n'
                             '#include "te/controller.hpp"\n'
                             '#include "network/flowsim.hpp"\n',
            "src/plan/p.cpp": '#include "serve/admission.hpp"\n',
            "src/plan/q.cpp": '#include "te/controller.hpp"\n',
        })
        f = analyze_tree(os.path.join(tmp, "dag_bad"))
        check("dag bad fires", _rules(f) == ["layer-dag"])
        check("dag bad count", len(f) == 8)
        check("dag upward edge",
              any("physics" in m for _p, _l, _r, m in f))
        check("dag te fence",
              any(p.endswith("sched.cpp") for p, _l, _r, m in f))
        check("dag ops fence",
              sorted(m.split(" (")[0] for p, _l, _r, m in f
                     if p.replace(os.sep, "/").endswith("ops/d.cpp")
                     and "front-end" not in m)
              == ["src/ops/ may not depend on src/network/",
                  "src/ops/ may not depend on src/te/"])
        check("dag plan fence",
              sum(1 for p, _l, _r, m in f
                  if "/plan/" in p.replace(os.sep, "/")) == 2)

        # A1 unknown directory.
        _write_tree(os.path.join(tmp, "dag_unknown"), {
            "src/widgets/w.cpp": '#include "common/logging.hpp"\n',
        })
        f = analyze_tree(os.path.join(tmp, "dag_unknown"))
        check("dag unknown dir", _rules(f) == ["layer-unknown"])

        # A2/A3/A4 snapshot coverage.
        _write_tree(os.path.join(tmp, "snap_ok"), SNAPSHOT_OK_FIXTURE)
        f = analyze_tree(os.path.join(tmp, "snap_ok"))
        check("snapshot ok clean", f == [])

        _write_tree(os.path.join(tmp, "snap_bad"), SNAPSHOT_BAD_FIXTURE)
        f = analyze_tree(os.path.join(tmp, "snap_bad"))
        check("snapshot bad fires",
              _rules(f) == ["snapshot-coverage", "snapshot-keys",
                            "snapshot-transient"])
        check("snapshot bad member",
              any("forgotten_field_" in m for _p, _l, _r, m in f))
        check("snapshot bad key",
              any("write_only" in m for _p, _l, _r, m in f))
        check("snapshot bad stale",
              any("ghost_" in m for _p, _l, _r, m in f))

        # A2: a member restored but never saved is one-sided.
        _write_tree(os.path.join(tmp, "snap_oneside"), {
            "src/sim/gadget.hpp": SNAPSHOT_OK_FIXTURE["src/sim/gadget.hpp"],
            "src/sim/gadget.cpp": """\
void Gadget::saveState(sim::SnapshotWriter &w) const {
    w.putDouble("position", position_);
}
void Gadget::restoreState(sim::SnapshotReader &r) {
    position_ = r.getDouble("position");
    trips_ = r.getU64("trips");
}
""",
        })
        f = analyze_tree(os.path.join(tmp, "snap_oneside"))
        check("snapshot one-sided member",
              any(r == "snapshot-coverage" and "save side" in m
                  for _p, _l, r, m in f))
        check("snapshot one-sided key",
              any(r == "snapshot-keys" and "trips" in m
                  for _p, _l, r, m in f))

        # A2: checkpoint/restore via *constructed* writer/reader (the
        # ServingSim shape) is detected too.
        _write_tree(os.path.join(tmp, "snap_ctor"), {
            "src/serve/m.hpp": """\
#ifndef DHL_SERVE_M_HPP
#define DHL_SERVE_M_HPP
class Mini {
  public:
    void checkpoint(std::ostream &os) const;
    void restore(std::istream &is);
  private:
    std::uint64_t epochs_ = 0;
    double hidden_;
};
#endif
""",
            "src/serve/m.cpp": """\
void Mini::checkpoint(std::ostream &os) const {
    sim::SnapshotWriter w(os);
    w.putU64("epochs", epochs_);
}
void Mini::restore(std::istream &is) {
    sim::SnapshotReader r(is);
    epochs_ = r.getU64("epochs");
}
""",
        })
        f = analyze_tree(os.path.join(tmp, "snap_ctor"))
        check("snapshot ctor-detected",
              any(r == "snapshot-coverage" and "hidden_" in m
                  for _p, _l, r, m in f))

        # A5/A6/A7 hazards.
        _write_tree(os.path.join(tmp, "haz_ok"), HAZARD_OK_FIXTURE)
        f = analyze_tree(os.path.join(tmp, "haz_ok"))
        check("hazard ok clean", f == [])

        _write_tree(os.path.join(tmp, "haz_bad"), HAZARD_BAD_FIXTURE)
        f = analyze_tree(os.path.join(tmp, "haz_bad"))
        check("hazard bad fires",
              _rules(f) == ["literal-seed", "pointer-key",
                            "raw-threading", "unordered-iteration"])
        check("hazard raw-threading both primitives",
              sum(1 for _p, _l, r, _m in f if r == "raw-threading") == 2)

        # A8 allowlist: the concurrency layer itself may use the
        # primitives; front-end code is outside the rule entirely.
        _write_tree(os.path.join(tmp, "haz_pool"), {
            "src/common/thread_pool.cpp": "std::thread w; std::mutex m;\n",
            "bench/b2.cpp": "std::thread t(run);\n",
        })
        f = analyze_tree(os.path.join(tmp, "haz_pool"))
        check("raw-threading allowlist", f == [])

        # The allowlist is the pool and the logging lock, nothing else:
        # a mutex in the simulation kernel fires and names the pool.
        _write_tree(os.path.join(tmp, "haz_sim_mutex"), {
            "src/sim/shard.cpp": "std::mutex m;\n",
        })
        f = analyze_tree(os.path.join(tmp, "haz_sim_mutex"))
        check("raw-threading outside the allowlist",
              [(p, r) for p, _l, r, _m in f]
              == [("src/sim/shard.cpp", "raw-threading")]
              and "(ThreadPool)" in f[0][3])

        # A5: iterator-style loop, and snapshot writes in hash order.
        _write_tree(os.path.join(tmp, "haz_iter"), {
            "src/faults/f.cpp": """\
struct F { std::unordered_map<int, double> ends_; };
void dump(F &f, sim::SnapshotWriter &w) {
    for (auto it = f.ends_.begin(); it != f.ends_.end(); ++it) {
        w.putDouble("end", it->second);
    }
}
""",
        })
        f = analyze_tree(os.path.join(tmp, "haz_iter"))
        check("hazard iterator loop",
              _rules(f) == ["unordered-iteration"])

        # A6 stays quiet on derived seeds and on the front-end.
        _write_tree(os.path.join(tmp, "haz_front"), {
            "bench/b.cpp": "Rng rng(42);\n",
            "src/common/random.hpp": "#ifndef DHL_COMMON_RANDOM_HPP\n"
                                     "#define DHL_COMMON_RANDOM_HPP\n"
                                     "explicit Rng(std::uint64_t seed"
                                     " = 0x9e3779b97f4a7c15ull);\n"
                                     "#endif\n",
        })
        f = analyze_tree(os.path.join(tmp, "haz_front"))
        check("literal-seed allowlist", f == [])

        # --dot smoke: violations arrive red, ranks exist.
        files = load_tree(os.path.join(tmp, "dag_bad"))
        dot = dot_graph(files)
        check("dot digraph", dot.startswith("digraph"))
        check("dot red edge", "color=red" in dot)
        check("dot rank", "rank=same" in dot)

    # ---- the production tree, if we are inside the repo --------------
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.isdir(os.path.join(repo, "src")):
        f = analyze_tree(repo)
        check("repo clean", f == [])
        if f:
            for rel, line, rule, msg in f[:25]:
                print("  repo finding: %s:%d: [%s] %s"
                      % (rel, line, rule, msg))

    if failures:
        for name in failures:
            print("SELF-TEST FAIL: %s" % name)
        return 1
    print("dhl_analyze self-test: %d checks passed" % checks[0])
    return 0


# ---------------------------------------------------------------------------

def dump_model(files):
    classes = build_class_registry(files)
    for cls in classes:
        if not cls.save_bodies or not cls.restore_bodies:
            continue
        print("%s (%s:%d)" % (cls.name, cls.rel_path, cls.line))
        save_text = "\n".join(cls.save_bodies)
        restore_text = "\n".join(cls.restore_bodies)
        for name, type_text, line in cls.members:
            tag = "covered"
            if name in cls.transients:
                tag = "transient"
            elif not re.search(r"\b%s\b" % re.escape(name), save_text):
                tag = "MISSING(save)"
            elif not re.search(r"\b%s\b" % re.escape(name),
                               restore_text):
                tag = "MISSING(restore)"
            print("  %-28s %-16s %s" % (name, tag, type_text[:60]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent)")
    parser.add_argument("--dot", default=None, metavar="FILE",
                        help="write the directory-level include graph "
                             "as Graphviz dot")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture tests and exit")
    parser.add_argument("--dump-model", action="store_true",
                        help="print the snapshot-class model and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = load_tree(root)

    if args.dump_model:
        dump_model(files)
        return 0

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_graph(files))
        print("dhl_analyze: include graph -> %s" % args.dot)

    findings = analyze_files(files)
    for rel, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, line, rule, msg))
    if findings:
        print("dhl_analyze: %d finding(s)" % len(findings))
        return 1
    print("dhl_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
