#!/usr/bin/env python3
"""Self-test corpus for tools/hgr_lint.py (run as the LintSelfTest ctest).

Each case is (rule, relpath, snippet, expected finding count). The corpus
pins down both halves of every rule: the bad spelling is caught, the good
spelling (or the sanctioned suppression marker) is not. The regex engine
is always exercised; the AST engine is exercised only when python-libclang
and a compile database are available, since it is an optional upgrade
(exit code 77 = "AST engine unavailable" is mapped to SKIPPED by ctest).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hgr_lint  # noqa: E402

# (name, relative path inside the fake repo, source text, expected findings)
CASES = [
    # --- nondeterminism ---
    ("nondeterminism/bad", "src/core/x.cpp",
     "int f() { return rand(); }\n", 1),
    ("nondeterminism/bad-device", "src/core/x.cpp",
     "std::random_device rd;\n", 1),
    ("nondeterminism/good", "src/core/x.cpp",
     "Rng rng(cfg.seed);\nauto v = rng.below(4);\n", 0),
    # --- raw-new ---
    ("raw-new/bad", "src/core/x.cpp",
     "auto* p = new Widget(3);\n", 1),
    ("raw-new/good", "src/core/x.cpp",
     "auto p = std::make_unique<Widget>(3);\n", 0),
    # --- plain-assert ---
    ("plain-assert/bad", "src/core/x.cpp",
     "void f(int n) { assert(n > 0); }\n", 1),
    ("plain-assert/good", "src/core/x.cpp",
     "void f(int n) { HGR_ASSERT(n > 0); }\n", 0),
    # --- steady-clock (outside obs/) ---
    ("steady-clock/bad", "src/core/x.cpp",
     "auto t = std::chrono::steady_clock::now();\n", 1),
    ("steady-clock/good-obs", "src/obs/x.cpp",
     "auto t = std::chrono::steady_clock::now();\n", 0),
    ("steady-clock/good-timer", "src/core/x.cpp",
     "WallTimer timer;\ndouble s = timer.seconds();\n", 0),
    # --- raw-thread (everywhere but the pool and the comm layer) ---
    ("raw-thread/bad", "src/core/x.cpp",
     "std::thread t([] { work(); });\nt.join();\n", 1),
    ("raw-thread/bad-jthread", "src/core/x.cpp",
     "std::jthread t([] { work(); });\n", 1),
    ("raw-thread/bad-vector", "src/partition/x.cpp",
     "std::vector<std::thread> workers;\n", 1),
    ("raw-thread/good-pool-owner", "src/common/thread_pool.cpp",
     "std::thread worker([] { loop(); });\n", 0),
    ("raw-thread/good-comm-owner", "src/parallel/comm.cpp",
     "std::thread watchdog([] { loop(); });\n", 0),
    ("raw-thread/good-id", "src/obs/x.cpp",
     "std::map<std::thread::id, int> stacks;\n"
     "auto id = std::this_thread::get_id();\n", 0),
    ("raw-thread/good-marker", "src/core/x.cpp",
     "std::thread t(f);  // hgr-lint: thread-ok (reason)\n", 0),
    # --- ragged-comm (only parallel/, partition/ and hypergraph/) ---
    ("ragged-comm/bad", "src/parallel/x.cpp",
     "std::vector<std::vector<int>> rows;\n", 1),
    ("ragged-comm/bad-hypergraph", "src/hypergraph/x.cpp",
     "std::vector<std::vector<Index>> nets_;\n", 1),
    ("ragged-comm/good-layer", "src/metrics/x.cpp",
     "std::vector<std::vector<int>> rows;\n", 0),
    ("ragged-comm/good-marker", "src/parallel/x.cpp",
     "std::vector<std::vector<int>> rows;  // hgr-lint: ragged-ok\n", 0),
    # --- swallowed-failure ---
    ("swallowed-failure/bad", "src/parallel/x.cpp",
     "void f() {\n  try { g(); } catch (...) {\n    log();\n  }\n}\n", 1),
    ("swallowed-failure/good-rethrow", "src/parallel/x.cpp",
     "void f() {\n  try { g(); } catch (...) {\n    throw;\n  }\n}\n", 0),
    ("swallowed-failure/good-marker", "src/parallel/x.cpp",
     "void f() {\n  try { g(); } catch (...) {"
     "  // hgr-lint: swallow-ok\n  }\n}\n", 0),
    # --- counter-in-loop (src/ only) ---
    ("counter-in-loop/bad-for", "src/core/x.cpp",
     "void f() {\n  for (int i = 0; i < n; ++i) {\n"
     "    obs::counter(\"epoch.count\") += 1;\n  }\n}\n", 1),
    ("counter-in-loop/bad-while", "src/core/x.cpp",
     "void f() {\n  while (pending()) {\n"
     "    obs::counter(\"epoch.count\") += 1;\n  }\n}\n", 1),
    ("counter-in-loop/bad-braceless", "src/core/x.cpp",
     "void f() {\n  for (int i = 0; i < n; ++i)\n"
     "    obs::counter(\"epoch.count\") += 1;\n}\n", 1),
    ("counter-in-loop/good-cached", "src/core/x.cpp",
     "void f() {\n  static obs::CachedCounter c(\"epoch.count\");\n"
     "  for (int i = 0; i < n; ++i) {\n    c += 1;\n  }\n}\n", 0),
    ("counter-in-loop/good-outside", "src/core/x.cpp",
     "void f() {\n  for (int i = 0; i < n; ++i) {\n    work(i);\n  }\n"
     "  obs::counter(\"epoch.count\") += n;\n}\n", 0),
    ("counter-in-loop/good-lambda-in-call", "src/core/x.cpp",
     "void f() {\n  run([&] {\n    obs::counter(\"epoch.count\") += 1;\n"
     "  });\n}\n", 0),
    ("counter-in-loop/good-marker", "src/core/x.cpp",
     "void f() {\n  for (int i = 0; i < n; ++i) {\n"
     "    obs::counter(name(i)) += 1;  // hgr-lint: counter-ok\n  }\n}\n", 0),
    ("counter-in-loop/good-tools-scope", "tools/x.cpp",
     "void f() {\n  for (int i = 0; i < n; ++i) {\n"
     "    obs::counter(\"epoch.count\") += 1;\n  }\n}\n", 0),
    # --- raw-escape ---
    ("raw-escape/bad-to-raw", "src/partition/x.cpp",
     "const Index i = to_raw(v);\n", 1),
    ("raw-escape/bad-from-raw", "src/partition/x.cpp",
     "const VertexId v = from_raw<VertexId>(i);\n", 1),
    ("raw-escape/bad-member", "src/partition/x.cpp",
     "auto& storage = weights.raw();\n", 1),
    ("raw-escape/good-allowlist", "src/parallel/x.cpp",
     "const Index i = to_raw(v);\n", 0),
    ("raw-escape/good-tools", "tools/x.cpp",
     "const Index i = to_raw(v);\n", 0),
    ("raw-escape/good-marker", "src/partition/x.cpp",
     "auto& s = weights.raw();  // hgr-lint: raw-ok (reason)\n", 0),
    ("raw-escape/good-marker-stmt", "src/partition/x.cpp",
     "// hgr-lint: raw-ok (constructor handoff)\n"
     "H h(std::move(weights.raw()),\n    std::move(sizes.raw()));\n", 0),
    ("raw-escape/marker-expires-after-stmt", "src/partition/x.cpp",
     "// hgr-lint: raw-ok (first statement only)\n"
     "auto& a = weights.raw();\n"
     "auto& b = sizes.raw();\n", 1),
    # --- raw-subscript ---
    # src/parallel/ is exempt from raw-escape but NOT from raw-subscript:
    # even at the comm boundary, indexing goes through the id type.
    ("raw-subscript/bad", "src/parallel/x.cpp",
     "const Weight w = weights.raw()[3];\n", 1),
    ("raw-subscript/bad-both-rules", "src/partition/x.cpp",
     "const Weight w = weights.raw()[3];\n", 2),
    ("raw-subscript/good", "src/partition/x.cpp",
     "const Weight w = weights[VertexId{3}];\n", 0),
    # --- weight-index-narrowing ---
    ("weight-index-narrowing/bad", "src/metrics/x.cpp",
     "const Index n = static_cast<Index>(total_weight / k);\n", 1),
    ("weight-index-narrowing/bad-accessor", "src/metrics/x.cpp",
     "const Index n = static_cast<Index>(h.total_vertex_weight());\n", 1),
    ("weight-index-narrowing/good-size", "src/metrics/x.cpp",
     "const Index n = static_cast<Index>(vertex_weights.size());\n", 0),
    ("weight-index-narrowing/good-widening", "src/metrics/x.cpp",
     "const Weight w = static_cast<Weight>(num_vertices);\n", 0),
    # --- global suppression ---
    ("allow/good", "src/core/x.cpp",
     "int x = rand();  // hgr-lint: allow\n", 0),
]


def run_regex_cases() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, rel, text, expected in CASES:
            # Real subdirectories: several rules scope by path components
            # (obs/, parallel/, partition/), not by the relpath string.
            path = Path(tmp) / name.replace("/", "_") / rel
            path.parent.mkdir(parents=True)
            path.write_text(text)
            findings = hgr_lint.lint_file(path, rel)
            if len(findings) != expected:
                failures += 1
                print(f"FAIL [{name}]: expected {expected} finding(s), "
                      f"got {len(findings)}")
                for f in findings:
                    print("   " + f.splitlines()[0])
            else:
                print(f"ok   [{name}]")
    return failures


def run_exit_status_contract() -> int:
    """The CLI clamps its exit status to 0/1 and prints the count."""
    import subprocess
    lint = Path(__file__).resolve().parent / "hgr_lint.py"
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        src.mkdir()
        # Many findings in one file: exit must still be exactly 1.
        (src / "bad.cpp").write_text("int a = rand();\n" * 7)
        r = subprocess.run([sys.executable, str(lint), tmp],
                           capture_output=True, text=True)
        if r.returncode != 1:
            failures += 1
            print(f"FAIL [exit-status/dirty]: expected 1, got {r.returncode}")
        elif "7 finding(s)" not in r.stdout:
            failures += 1
            print("FAIL [exit-status/count]: summary must print the count:\n"
                  + r.stdout)
        else:
            print("ok   [exit-status/dirty]")
        (src / "bad.cpp").write_text("int a = 1;\n")
        r = subprocess.run([sys.executable, str(lint), tmp],
                           capture_output=True, text=True)
        if r.returncode != 0:
            failures += 1
            print(f"FAIL [exit-status/clean]: expected 0, got {r.returncode}")
        else:
            print("ok   [exit-status/clean]")
    return failures


def run_ast_cases(repo_root: Path) -> int | None:
    """Exercise the AST engine against the real tree; None = unavailable."""
    ast = hgr_lint.ast_engine_available(repo_root / "build")
    if ast is None:
        return None
    # The tree itself must be clean under the type-accurate engine too.
    import subprocess
    lint = Path(__file__).resolve().parent / "hgr_lint.py"
    r = subprocess.run(
        [sys.executable, str(lint), str(repo_root), "--engine=ast"],
        capture_output=True, text=True)
    if r.returncode != 0:
        print("FAIL [ast/tree-clean]:\n" + r.stdout + r.stderr)
        return 1
    if "hgr_lint[ast]" not in r.stdout:
        print("FAIL [ast/engine-tag]: expected the ast engine to run:\n"
              + r.stdout)
        return 1
    print("ok   [ast/tree-clean]")
    return 0


def main() -> int:
    failures = run_regex_cases()
    failures += run_exit_status_contract()
    repo_root = Path(__file__).resolve().parent.parent
    ast_result = run_ast_cases(repo_root)
    if ast_result is None:
        print("note: AST engine unavailable (python-libclang not installed "
              "or no compile_commands.json); regex engine covered.")
        if failures == 0 and "--require-ast" in sys.argv:
            return 77  # ctest SKIP_RETURN_CODE
    else:
        failures += ast_result
    if failures:
        print(f"lint_selftest: {failures} failure(s)")
        return 1
    print("lint_selftest: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
