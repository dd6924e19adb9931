#!/usr/bin/env python3
"""Project-specific lint for the hgr codebase (docs/CHECKING.md).

Two engines share one rule set:

  regex   Always available. Line-oriented scanning with comment/string
          stripping — exact for the textual rules, conservative
          approximations for the semantic id-safety rules.
  ast     Used automatically when python-libclang (`clang.cindex`) can be
          imported AND the build tree exported compile_commands.json
          (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default). Parses each
          translation unit with its real compile flags and checks the
          id-safety rules on types, not text. Select explicitly with
          --engine=ast|regex|auto.

Textual rules (all scoped to src/ and tools/ C++ sources):

  nondeterminism   No rand()/srand()/random_device-or-time seeding. Every
                   random decision must flow through common/rng.hpp seeded
                   from the config, or runs stop being reproducible.
  raw-new          No raw `new` expressions; containers or unique_ptr own
                   all allocations (exception-unwind paths in the comm
                   layer must not leak).
  plain-assert     No C `assert(...)`: it compiles away under NDEBUG, and
                   partitioning bugs produce silently-wrong partitions, not
                   crashes. Use HGR_ASSERT / HGR_ASSERT_FMT (always on) or
                   HGR_DASSERT (hot loops, intentionally debug-only).
  steady-clock     No raw std::chrono::steady_clock::now() outside src/obs
                   and common/timer.hpp. Timing flows through WallTimer or
                   the obs event clock so every measurement shows up in the
                   trace; scattered clock reads don't.
  ragged-comm      No std::vector<std::vector<...>> in src/parallel/ or
                   src/partition/: ragged buffers cost one allocation per
                   slot plus a serialize copy on every exchange. Use
                   FlatBuffer<T> (parallel/flat_buffer.hpp) or a Workspace
                   borrow. Deliberate ragged use is suppressed with
                   `// hgr-lint: ragged-ok`.
  swallowed-failure  No `catch (...)` whose body neither rethrows nor
                   aborts (throw / rethrow_exception / abort_all /
                   std::abort / std::terminate / std::exit). A silently
                   swallowed failure in the comm or degradation paths turns
                   a diagnosable abort into a wrong answer or a hang
                   (docs/ROBUSTNESS.md). Deliberate sinks are suppressed
                   with `// hgr-lint: swallow-ok` on the catch line.
  raw-thread       No raw std::thread / std::jthread construction outside
                   common/thread_pool.* and parallel/comm.cpp. Ad-hoc
                   threads bypass the ThreadPool's determinism contract,
                   its exception capture, and the tp.* counters; kernels
                   get shared-memory parallelism through the Workspace's
                   attached pool (docs/PARALLELISM.md). std::thread::id and
                   std::this_thread are fine (identity, not execution).
                   Deliberate spawns are suppressed with
                   `// hgr-lint: thread-ok`.
  counter-in-loop  No `obs::counter(...)` calls inside loop bodies in src/:
                   each call is a registry map lookup under a mutex. Hoist
                   a `static obs::CachedCounter` handle out of the loop
                   (docs/OBSERVABILITY.md) or accumulate locally and bump
                   once after. Deliberate per-iteration lookups are
                   suppressed with `// hgr-lint: counter-ok`.

Id-safety rules (common/types.hpp strong ids; see docs/CHECKING.md):

  raw-subscript    Indexing an id-typed container (IdVector, IdSpan,
                   Partition) with a raw integer instead of the matching
                   strong id. The typed operator[] rejects this at compile
                   time; the lint additionally catches indexing that
                   launders through `.raw()[i]` and (in the ast engine)
                   any integer-typed subscript reaching an id container.
  raw-escape       `to_raw(...)`, `from_raw<...>(...)`,
                   `from_raw_span<...>(...)` or `.raw()` outside the
                   comm/IO boundary. The wire format and file formats are
                   raw Index by design; everywhere else, escaping the type
                   system needs a `// hgr-lint: raw-ok` marker on the
                   statement explaining itself. Allowlisted: src/parallel/
                   (comm boundary), hypergraph/io.cpp, hypergraph/builder.cpp,
                   metrics/partition_io.cpp (file formats and raw-input
                   construction), and tools/ (CLI surface).
  weight-index-narrowing  static_cast<Index>(...) of a Weight-typed
                   expression. Weight is 64-bit, Index is 32-bit: weights
                   legitimately exceed Index range on large instances, so
                   a weight must never be used as a count or id. (The ast
                   engine checks the real operand type; the regex engine
                   flags casts whose operand spells a weight.)

A finding line may be suppressed with a trailing `// hgr-lint: allow`
comment (rule-specific markers: ragged-ok / swallow-ok / raw-ok).
`raw-ok` is statement-scoped: a marker line covers every line up to the
next `;` so multi-line constructor calls need only one marker.

Exit status: 0 when clean, 1 when there are findings (the count is
printed on the summary line either way).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SUPPRESS = "hgr-lint: allow"

# Rule-specific suppression markers: a line carrying the marker is exempt
# from that one rule (unlike SUPPRESS, which silences every rule).
RULE_SUPPRESS = {
    "ragged-comm": "hgr-lint: ragged-ok",
    "swallowed-failure": "hgr-lint: swallow-ok",
    "raw-escape": "hgr-lint: raw-ok",
    "raw-subscript": "hgr-lint: raw-ok",
    "counter-in-loop": "hgr-lint: counter-ok",
    "raw-thread": "hgr-lint: thread-ok",
}

# Paths (relative to the scan root, '/'-separated) where raw id escapes are
# the point: the comm wire format and the file formats are raw Index by
# design, and the CLI parses raw user input.
RAW_ESCAPE_ALLOWLIST = (
    "src/parallel/",
    "src/hypergraph/io.cpp",
    "src/hypergraph/builder.cpp",
    "src/metrics/partition_io.cpp",
    "tools/",
)

# The strong-id machinery itself defines the escape hatches.
RAW_ESCAPE_DEFINERS = ("src/common/types.hpp",)


def raw_escape_exempt(rel: str) -> bool:
    return rel.startswith(RAW_ESCAPE_ALLOWLIST) or rel in RAW_ESCAPE_DEFINERS


# Each rule: (name, regex, explanation, file-filter or None).
RULES = [
    (
        "nondeterminism",
        re.compile(r"(?<![\w:])(?:rand|srand)\s*\(|std::random_device"
                   r"|seed\s*\(\s*time\s*\("),
        "use common/rng.hpp seeded from the config (reproducible runs)",
        None,
    ),
    (
        "raw-new",
        re.compile(r"(?<![\w_])new\s+[A-Za-z_][\w:]*(?:\s*[<({[]|\s*[;,)])"),
        "own allocations with containers or std::unique_ptr",
        None,
    ),
    (
        "plain-assert",
        re.compile(r"(?<![\w_.])assert\s*\("),
        "use HGR_ASSERT (always-on) or HGR_DASSERT (debug-only) instead",
        None,
    ),
    (
        "steady-clock",
        re.compile(r"std::chrono::steady_clock\s*::\s*now"),
        "time through common/timer.hpp (WallTimer) or the obs event clock "
        "so the measurement reaches the trace",
        # The obs layer and WallTimer are the sanctioned clock call sites.
        lambda path: "obs" not in path.parts and
                     path.parts[-2:] != ("common", "timer.hpp"),
    ),
    (
        "raw-thread",
        # `std::thread::id` (the `::` lookahead) and `std::this_thread` (no
        # `std::thread` token at all) are identity uses, not spawns.
        re.compile(r"std::j?thread\b(?!\s*::)"),
        "spawn through ThreadPool (common/thread_pool.hpp) so parallel "
        "regions keep the determinism contract, exception capture, and "
        "tp.* counters; mark deliberate raw spawns with "
        "`// hgr-lint: thread-ok`",
        # The pool itself and the rank-emulation layer own their threads.
        lambda path: path.parts[-2:] not in (("common", "thread_pool.hpp"),
                                             ("common", "thread_pool.cpp"),
                                             ("parallel", "comm.cpp")),
    ),
    (
        "ragged-comm",
        re.compile(r"std::vector<\s*std::vector<"),
        "use FlatBuffer<T> (parallel/flat_buffer.hpp) or a Workspace "
        "borrow; mark deliberate ragged use with `// hgr-lint: ragged-ok`",
        # The hot comm/partition layers and the hypergraph layer, whose
        # O(pins) passes run every epoch, are held to the flat format.
        lambda path: ("parallel" in path.parts or "partition" in path.parts
                      or "hypergraph" in path.parts),
    ),
]

LINE_COMMENT = re.compile(r"//.*$")
STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Drop string literals and line comments so they can't false-positive."""
    line = STRING.sub('""', line)
    return LINE_COMMENT.sub("", line)


def cleaned_lines(path: Path) -> list[tuple[int, str, str]]:
    """(lineno, raw, cleaned) per line, with comments and strings blanked.

    Keeps one entry per source line (cleaned may be empty) so multi-line
    scans can brace-match across the whole file.
    """
    out = []
    in_block_comment = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                out.append((lineno, raw, ""))
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Strip (possibly several) block comments opening on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        out.append((lineno, raw, strip_noise(line)))
    return out


CATCH_ALL = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
# Anything that propagates or escalates the failure out of the handler.
FAILURE_PROPAGATION = re.compile(
    r"\bthrow\b|rethrow_exception|abort_all|std::abort\b|std::terminate\b"
    r"|std::exit\b")


def lint_swallowed_failures(path: Path,
                            lines: list[tuple[int, str, str]]) -> list[str]:
    """Flag `catch (...)` handlers that neither rethrow nor abort."""
    findings = []
    for i, (lineno, raw, cleaned) in enumerate(lines):
        match = CATCH_ALL.search(cleaned)
        if match is None:
            continue
        if SUPPRESS in raw or RULE_SUPPRESS["swallowed-failure"] in raw:
            continue
        # Collect the brace-matched handler body, which may span lines.
        depth = 0
        opened = closed = False
        body_chars = []
        j, col = i, match.end()
        while j < len(lines) and not closed:
            text = lines[j][2]
            for k in range(col, len(text)):
                ch = text[k]
                if ch == "{":
                    depth += 1
                    opened = True
                    if depth == 1:
                        continue
                elif ch == "}":
                    depth -= 1
                    if opened and depth == 0:
                        closed = True
                        break
                if opened:
                    body_chars.append(ch)
            if not closed:
                body_chars.append("\n")
                j += 1
                col = 0
        if not closed:
            continue  # unbalanced (macro soup): don't guess
        if FAILURE_PROPAGATION.search("".join(body_chars)):
            continue
        findings.append(
            f"{path}:{lineno}: [swallowed-failure] {raw.strip()}\n"
            "    -> a catch-all must rethrow or abort (throw, "
            "rethrow_exception, abort_all, std::abort, std::terminate, "
            "std::exit); mark deliberate sinks with "
            "`// hgr-lint: swallow-ok`")
    return findings


LOOP_KEYWORD = re.compile(r"(?<![\w_])(?:for|while|do)(?![\w_])")
COUNTER_CALL_SITE = re.compile(r"obs\s*::\s*counter\s*\(")


def lint_counter_in_loop(path: Path,
                         lines: list[tuple[int, str, str]]) -> list[str]:
    """Flag obs::counter(...) lookups inside loop bodies (src/ only).

    Brace-matching scan: a `{` opened after a for/while/do keyword marks a
    loop scope; any obs::counter call while at least one loop scope is open
    (or in a brace-less loop body) is a per-iteration registry lookup and
    must go through a hoisted `static obs::CachedCounter` instead.
    """
    findings = []
    loop_stack: list[bool] = []  # per open brace: opened by a loop header?
    pending_loop = False         # loop keyword seen, body not yet entered
    pending_base = 0             # paren depth where that keyword was seen
    paren_depth = 0
    for lineno, raw, cleaned in lines:
        suppressed = (SUPPRESS in raw
                      or RULE_SUPPRESS["counter-in-loop"] in raw)
        i = 0
        while i < len(cleaned):
            kw = LOOP_KEYWORD.match(cleaned, i)
            if kw is not None:
                pending_loop = True
                pending_base = paren_depth
                i = kw.end()
                continue
            call = COUNTER_CALL_SITE.match(cleaned, i)
            if call is not None:
                # `(` of the matched call is consumed here, not below.
                paren_depth += 1
                in_loop = any(loop_stack) or (
                    pending_loop and paren_depth - 1 <= pending_base)
                if in_loop and not suppressed:
                    findings.append(
                        f"{path}:{lineno}: [counter-in-loop] {raw.strip()}\n"
                        "    -> obs::counter resolves the name in the "
                        "registry on every call; hoist a `static "
                        "obs::CachedCounter` out of the loop or accumulate "
                        "locally (mark deliberate per-iteration lookups "
                        "with `// hgr-lint: counter-ok`)")
                i = call.end()
                continue
            ch = cleaned[i]
            if ch == "(":
                paren_depth += 1
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            elif ch == "{":
                # A brace inside the loop header's parens (a lambda or
                # brace-init argument) is not the loop body.
                if pending_loop and paren_depth <= pending_base:
                    loop_stack.append(True)
                    pending_loop = False
                else:
                    loop_stack.append(False)
            elif ch == "}":
                if loop_stack:
                    loop_stack.pop()
            elif ch == ";" and paren_depth <= pending_base:
                pending_loop = False
            i += 1
    return findings


# ---------------------------------------------------------------------------
# Id-safety rules, regex engine.
# ---------------------------------------------------------------------------

RAW_ESCAPE = re.compile(
    r"(?<![\w_])to_raw\s*\(|(?<![\w_])from_raw(?:_span)?\s*<"
    r"|\.\s*raw\s*\(\s*\)")

# An id-typed container subscripted with a bare integer literal: the typed
# operator[] rejects it, but `.raw()[3]` and macro-expanded code can sneak
# it past the compiler. Conservative on purpose: only integer literals.
ID_CONTAINER_DECL = re.compile(
    r"\b(?:IdVector|IdSpan)\s*<[^;{}()]*>\s+(\w+)\b"
    r"|\bPartition[&\s]+(\w+)\s*[({=;,]")
RAW_LITERAL_SUBSCRIPT = re.compile(r"\.raw\s*\(\s*\)\s*\[")

# `.size()` of a weights vector is a count, not a weight — skip it.
WEIGHT_NARROWING = re.compile(
    r"static_cast\s*<\s*Index\s*>\s*\(\s*[^()]*"
    r"(?:[Ww]eight|total_vertex_weight|net_cost|vertex_size)"
    r"(?![\w_]*\s*\.\s*s?size\s*\()")


def lint_id_safety_regex(path: Path, rel: str,
                         lines: list[tuple[int, str, str]]) -> list[str]:
    """Regex approximations of the semantic id-safety rules."""
    findings = []
    raw_ok_active = False  # statement-scoped `raw-ok` marker
    for lineno, raw, line in lines:
        if RULE_SUPPRESS["raw-escape"] in raw:
            raw_ok_active = True
        suppressed = raw_ok_active or SUPPRESS in raw
        if ";" in line:
            raw_ok_active = False
        if not line.strip():
            continue
        if not raw_escape_exempt(rel) and not suppressed \
                and RAW_ESCAPE.search(line):
            findings.append(
                f"{path}:{lineno}: [raw-escape] {raw.strip()}\n"
                "    -> raw id escapes belong at the comm/IO boundary "
                "(src/parallel/, the io/builder files, tools/); elsewhere "
                "mark the statement with `// hgr-lint: raw-ok` and say why")
        if not suppressed and RAW_LITERAL_SUBSCRIPT.search(line):
            findings.append(
                f"{path}:{lineno}: [raw-subscript] {raw.strip()}\n"
                "    -> index id-typed containers with their id type "
                "(VertexId/NetId/PartId/RankId), not through .raw()[...]")
        if SUPPRESS not in raw and WEIGHT_NARROWING.search(line):
            findings.append(
                f"{path}:{lineno}: [weight-index-narrowing] {raw.strip()}\n"
                "    -> Weight is 64-bit and Index is 32-bit; a weight must "
                "not become a count or id (restructure, or keep the math in "
                "Weight)")
    return findings


# ---------------------------------------------------------------------------
# Id-safety rules, AST engine (libclang, driven by compile_commands.json).
# ---------------------------------------------------------------------------

ID_CONTAINER_SPELLINGS = ("IdVector<", "IdSpan<", "Partition")
STRONG_ID_SPELLING = "StrongId<"
RAW_ESCAPE_CALLEES = ("to_raw", "from_raw", "from_raw_span", "raw")


def load_compile_commands(build_dir: Path):
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        return None
    entries = {}
    for entry in json.loads(db_path.read_text()):
        src = Path(entry["directory"], entry["file"]).resolve()
        args = entry.get("arguments")
        if args is None:
            # Shell-split the "command" form; good enough for cmake output.
            args = entry["command"].split()
        # Drop the compiler itself and the -o/-c output clauses.
        clean = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = (a == "-o")
                continue
            if a == str(src) or a.endswith(entry["file"]):
                continue
            clean.append(a)
        entries[src] = clean
    return entries


def is_integerish(type_obj) -> bool:
    spelling = type_obj.get_canonical().spelling
    return spelling in ("int", "long", "long long", "short", "unsigned int",
                        "unsigned long", "unsigned long long", "std::size_t",
                        "size_t")


def lint_file_ast(cindex, path: Path, rel: str, args: list[str],
                  raw_lines: list[str]) -> list[str]:
    """Type-accurate raw-subscript / raw-escape / narrowing findings."""
    findings = []

    def line_has_marker(lineno: int, marker: str) -> bool:
        # Statement-scoped: walk back from the use to the nearest `;` or
        # marker, whichever comes first.
        for back in range(lineno, max(0, lineno - 8), -1):
            text = raw_lines[back - 1]
            if marker in text or SUPPRESS in text:
                return True
            if back != lineno and ";" in strip_noise(text):
                return False
        return False

    index = cindex.Index.create()
    tu = index.parse(str(path), args=args)
    for node in tu.cursor.walk_preorder():
        loc = node.location
        if loc.file is None or Path(loc.file.name).resolve() != path.resolve():
            continue
        text = raw_lines[loc.line - 1].strip() if loc.line <= len(raw_lines) \
            else ""
        if node.kind == cindex.CursorKind.CXX_OPERATOR_CALL_EXPR:
            children = list(node.get_children())
            if len(children) == 3 and "operator[]" in (
                    children[0].spelling or ""):
                base_type = children[1].type.spelling
                idx_type = children[2].type
                if any(s in base_type for s in ID_CONTAINER_SPELLINGS) \
                        and is_integerish(idx_type) \
                        and not line_has_marker(
                            loc.line, RULE_SUPPRESS["raw-subscript"]):
                    findings.append(
                        f"{path}:{loc.line}: [raw-subscript] {text}\n"
                        f"    -> {base_type} is indexed by a strong id, got "
                        f"{idx_type.spelling}")
        elif node.kind == cindex.CursorKind.CALL_EXPR:
            if node.spelling in RAW_ESCAPE_CALLEES \
                    and not raw_escape_exempt(rel) \
                    and not line_has_marker(
                        loc.line, RULE_SUPPRESS["raw-escape"]):
                findings.append(
                    f"{path}:{loc.line}: [raw-escape] {text}\n"
                    "    -> raw id escapes belong at the comm/IO boundary; "
                    "mark deliberate ones with `// hgr-lint: raw-ok`")
        elif node.kind == cindex.CursorKind.CXX_STATIC_CAST_EXPR:
            dest = node.type.get_canonical().spelling
            children = list(node.get_children())
            if children and dest == "int":
                src_t = children[-1].type.get_canonical().spelling
                if src_t in ("long", "long long") \
                        and "Weight" in children[-1].type.spelling \
                        and not line_has_marker(loc.line, SUPPRESS):
                    findings.append(
                        f"{path}:{loc.line}: [weight-index-narrowing] "
                        f"{text}\n"
                        "    -> Weight (64-bit) narrowed to Index (32-bit)")
    return findings


def ast_engine_available(build_dir: Path):
    """(cindex, compile_commands) when the ast engine can run, else None."""
    try:
        from clang import cindex  # noqa: deferred, optional dependency
    except ImportError:
        return None
    commands = load_compile_commands(build_dir)
    if not commands:
        return None
    try:  # probe that a usable libclang shared object actually loads
        cindex.Index.create()
    except Exception:
        return None
    return cindex, commands


def lint_file(path: Path, rel: str) -> list[str]:
    findings = []
    lines = cleaned_lines(path)
    for lineno, raw, line in lines:
        if SUPPRESS in raw:
            continue
        if not line.strip():
            continue
        for name, pattern, why, file_filter in RULES:
            if file_filter is not None and not file_filter(path):
                continue
            marker = RULE_SUPPRESS.get(name)
            if marker is not None and marker in raw:
                continue
            if pattern.search(line):
                findings.append(
                    f"{path}:{lineno}: [{name}] {raw.strip()}\n"
                    f"    -> {why}")
    findings += lint_swallowed_failures(path, lines)
    if rel.startswith("src/"):
        findings += lint_counter_in_loop(path, lines)
    findings += lint_id_safety_regex(path, rel, lines)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="hgr project lint (see module docstring for rules)")
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root to scan (default: .)")
    parser.add_argument("--engine", choices=("auto", "regex", "ast"),
                        default="auto",
                        help="auto picks ast when libclang and "
                             "compile_commands.json are available")
    parser.add_argument("--build-dir", default=None,
                        help="build tree holding compile_commands.json "
                             "(default: <root>/build)")
    opts = parser.parse_args(argv[1:])

    root = Path(opts.root)
    build_dir = Path(opts.build_dir) if opts.build_dir else root / "build"
    files = []
    for sub in ("src", "tools"):
        base = root / sub
        if base.is_dir():
            files += sorted(p for p in base.rglob("*")
                            if p.suffix in (".hpp", ".cpp", ".h", ".cc"))
    if not files:
        print(f"hgr_lint: no sources found under {root}", file=sys.stderr)
        return 1

    ast = None
    if opts.engine in ("auto", "ast"):
        ast = ast_engine_available(build_dir)
        if ast is None and opts.engine == "ast":
            print("hgr_lint: --engine=ast needs python-libclang and "
                  f"{build_dir}/compile_commands.json", file=sys.stderr)
            return 1
    engine = "ast" if ast else "regex"

    findings = []
    ast_checked = 0
    for path in files:
        rel = path.relative_to(root).as_posix()
        findings += lint_file(path, rel)
        if ast:
            cindex, commands = ast
            resolved = path.resolve()
            if resolved in commands:
                raw_lines = path.read_text().splitlines()
                try:
                    findings += lint_file_ast(cindex, path, rel,
                                              commands[resolved], raw_lines)
                    ast_checked += 1
                except Exception as e:  # noqa: a broken TU must not kill lint
                    print(f"hgr_lint: ast pass failed for {path}: {e}",
                          file=sys.stderr)
    # The regex engine already covers raw-escape textually; the ast pass
    # re-reports the same sites with type info. Dedup by file:line:rule.
    seen = set()
    unique = []
    for f in findings:
        key = f.split(" ", 1)[0] + f.split("]")[0].rsplit("[", 1)[-1]
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    findings = unique

    for f in findings:
        print(f)
    suffix = f", {ast_checked} TU(s) type-checked" if ast else ""
    print(f"hgr_lint[{engine}]: {len(files)} files scanned, "
          f"{len(findings)} finding(s){suffix}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
