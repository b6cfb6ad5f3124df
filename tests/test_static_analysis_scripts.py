#!/usr/bin/env python3
"""Unit tests for the static-analysis tooling: scripts/lint_invariants.py,
scripts/run_clang_tidy.py, scripts/check_format.py and
scripts/check_markdown_links.py. Invoked through
CTest (stdlib unittest, no third-party dependencies, no clang needed — the
clang-tidy/clang-format drivers are exercised against stub binaries), so
the tooling that gates the CI static-analysis lane is itself
regression-guarded.
"""
import importlib.util
import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = load("lint_invariants")
tidy = load("run_clang_tidy")
fmt = load("check_format")


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, rel, text):
        p = self.dir / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        return p

    def stub(self, rel, script):
        p = self.write(rel, script)
        p.chmod(p.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        return p


# ------------------------------------------------------ lint_invariants ----


class StripperTest(unittest.TestCase):
    def test_strips_line_and_block_comments(self):
        s = lint.strip_comments_and_strings("a; // rand()\n/* time(0) */b;")
        self.assertNotIn("rand", s)
        self.assertNotIn("time", s)
        self.assertIn("a;", s)
        self.assertIn("b;", s)

    def test_strips_string_and_char_literals(self):
        s = lint.strip_comments_and_strings('x = "std::cout"; c = \'r\';')
        self.assertNotIn("cout", s)
        self.assertNotIn("r", s.replace("= ;", ""))

    def test_preserves_newlines_for_line_numbers(self):
        text = "a\n/* x\n y */\nb\n"
        self.assertEqual(
            lint.strip_comments_and_strings(text).count("\n"),
            text.count("\n"),
        )

    def test_digit_separator_is_not_a_char_literal(self):
        s = lint.strip_comments_and_strings("int n = 7'000; f(rand());")
        self.assertIn("rand", s)  # the separator must not eat the tail

    def test_escaped_quote_inside_string(self):
        s = lint.strip_comments_and_strings('x = "a\\"rand()"; y;')
        self.assertNotIn("rand", s)
        self.assertIn("y;", s)


OVERLAY_HPP_TEMPLATE = """
namespace pargreedy {
class OverlayGraph {
 public:
  OverlayGraph(int n);
  unsigned insert_edge(unsigned u, unsigned v, double w = kDefault)
      PARGREEDY_REQUIRES(writer_role_);
  unsigned erase_edge(unsigned u, unsigned v);
  void set_slot_weight(unsigned s, double w);
  void set_vertex_weight(unsigned v, double w);
  unsigned set_edge_weight(unsigned u, unsigned v, double w);
  void compact();
  void set_journal(void* j) { journal_ = j; }
  void undo(const UndoRecord& r);
  [[nodiscard]] unsigned num_vertices() const noexcept { return n_; }
%(extra)s
 private:
  void ensure_edge_weights();
  void* journal_ = nullptr;
  unsigned n_ = 0;
};
}
"""

OVERLAY_CPP_TEMPLATE = """
#include "dynamic/overlay_graph.hpp"
namespace pargreedy {
unsigned OverlayGraph::insert_edge(unsigned u, unsigned v, double w) {
  if (journal_) journal_->record(1);
  if (journal_) journal_->record(2);
  if (journal_) journal_->record(3);
  return u + v;
}
unsigned OverlayGraph::erase_edge(unsigned u, unsigned v) {
  if (journal_) journal_->record(1);
  if (journal_) journal_->record(2);
  return u + v;
}
void OverlayGraph::set_slot_weight(unsigned s, double w) {
  %(slot_hook)s
}
void OverlayGraph::set_vertex_weight(unsigned v, double w) {
  if (journal_) journal_->record(1);
  if (journal_) journal_->record(2);
}
void OverlayGraph::ensure_edge_weights() {
  if (journal_) journal_->record(1);
}
}
"""


class JournalHooksFixtureTest(TempDirTest):
    def fixture(self, slot_hook="if (journal_) journal_->record(1);",
                extra_method=""):
        self.write("src/dynamic/overlay_graph.hpp",
                   OVERLAY_HPP_TEMPLATE % {"extra": extra_method})
        self.write("src/dynamic/overlay_graph.cpp",
                   OVERLAY_CPP_TEMPLATE % {"slot_hook": slot_hook})
        return self.dir

    def test_complete_hooks_are_clean(self):
        self.assertEqual(lint.check_journal_hooks(self.fixture()), [])

    def test_deleted_hook_fails(self):
        violations = lint.check_journal_hooks(
            self.fixture(slot_hook="// forgot to journal"))
        self.assertEqual(len(violations), 1)
        self.assertIn("set_slot_weight", violations[0].message)
        self.assertEqual(violations[0].rule, "journal-hooks")

    def test_unclassified_public_mutator_fails(self):
        violations = lint.check_journal_hooks(
            self.fixture(extra_method="  void sneaky_mutator(int x);"))
        self.assertEqual(len(violations), 1)
        self.assertIn("sneaky_mutator", violations[0].message)

    def test_const_and_private_methods_need_no_classification(self):
        # num_vertices (const) and ensure_edge_weights (private) are in the
        # fixture already and must not be reported.
        self.assertEqual(lint.check_journal_hooks(self.fixture()), [])

    def test_missing_mutator_fails(self):
        root = self.fixture()
        cpp = root / "src/dynamic/overlay_graph.cpp"
        cpp.write_text(cpp.read_text().replace("erase_edge", "gone_edge"))
        violations = lint.check_journal_hooks(root)
        self.assertTrue(any("erase_edge" in v.message for v in violations))


class SimpleRulesTest(TempDirTest):
    def test_omp_confined(self):
        self.write("src/parallel/parallel_for.hpp", "#pragma omp parallel\n")
        self.write("src/core/thing.hpp", "int x;\n#pragma omp parallel\n")
        v = lint.check_omp_confined(self.dir)
        self.assertEqual([x.path for x in v], ["src/core/thing.hpp"])
        self.assertEqual(v[0].line, 2)

    def test_nondeterminism_sources(self):
        self.write("src/a.cpp",
                   "int a = rand();\n"
                   "std::random_device rd;\n"
                   "long t = time(nullptr);\n"
                   "int ok = my_rand();\n"          # suffix match must not fire
                   "int ok2 = brand();\n")
        v = lint.check_no_nondeterminism(self.dir)
        self.assertEqual([x.line for x in v], [1, 2, 3])

    def test_no_cout_in_library(self):
        self.write("src/a.hpp", "#include <iostream>\nstd::cout << 1;\n")
        self.write("src/b.hpp", "// std::cout only in a comment\n")
        v = lint.check_no_cout(self.dir)
        self.assertEqual([(x.path, x.line) for x in v], [("src/a.hpp", 2)])

    def test_bench_emit_rule(self):
        self.write("bench/bench_common.hpp", "t.print(std::cout);\n")  # exempt
        self.write("bench/fig.cpp", "table.print(std::cout);\n")
        self.write("bench/ok.cpp", "bench::emit(\"x\", \"y\", table);\n")
        v = lint.check_bench_emit(self.dir)
        self.assertEqual([x.path for x in v], ["bench/fig.cpp"])

    def test_suppression_comment(self):
        self.write("src/a.hpp",
                   "std::cout << 1;  // pargreedy-lint: allow(no-cout)\n"
                   "std::cout << 2;  // pargreedy-lint: allow(omp-confined)\n")
        v = lint.check_no_cout(self.dir)
        self.assertEqual([x.line for x in v], [2])  # wrong rule id: no effect

    def test_obs_confined(self):
        self.write("src/core/leaky.cpp",
                   "auto t0 = std::chrono::steady_clock::now();\n"
                   "std::fprintf(stderr, fmt, 1);\n"
                   "support::Timer t;\n"
                   "int n = std::snprintf(buf, sizeof buf, fmt);\n"
                   "obs::EventRecorder::global().record(k);\n"
                   "obs::record_event(obs::EventKind::kBatchBegin);\n"
                   "PG_OBS_EVENT(kBatchBegin);\n")
        v = lint.check_obs_confined(self.dir)
        # snprintf (string formatting, not telemetry output) and the
        # sanctioned PG_OBS_EVENT macro spelling must not fire; naming the
        # flight recorder directly must.
        self.assertEqual([x.line for x in v], [1, 2, 3, 5, 6])
        self.assertTrue(all(x.rule == "obs-confined" for x in v))

    def test_obs_confined_exempts_obs_layer_and_timing(self):
        self.write("src/obs/events.cpp",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.write("src/support/timing.hpp",
                   "using TimingClock = std::chrono::steady_clock;\n")
        self.write("src/support/env.cpp",
                   "std::fprintf(stderr, m);"
                   "  // pargreedy-lint: allow(obs-confined)\n")
        self.assertEqual(lint.check_obs_confined(self.dir), [])

    def test_main_exit_codes(self):
        self.assertEqual(lint.main(["--repo-root", str(self.dir)]), 2)
        self.write("src/a.hpp", "int x;\n")
        self.write("src/dynamic/overlay_graph.hpp", OVERLAY_HPP_TEMPLATE
                   % {"extra": ""})
        self.write("src/dynamic/overlay_graph.cpp", OVERLAY_CPP_TEMPLATE
                   % {"slot_hook": "if (journal_) journal_->record(1);"})
        self.assertEqual(lint.main(["--repo-root", str(self.dir)]), 0)
        self.write("src/bad.hpp", "int a = rand();\n")
        self.assertEqual(lint.main(["--repo-root", str(self.dir)]), 1)


class RealTreeTest(unittest.TestCase):
    def test_repo_is_clean(self):
        self.assertEqual(lint.run(REPO), [])

    def test_real_overlay_methods_are_all_classified(self):
        stripped = lint.strip_comments_and_strings(
            (REPO / "src/dynamic/overlay_graph.hpp").read_text())
        names = {n for n, _ in
                 lint.public_nonconst_methods(stripped, "OverlayGraph")}
        # The parser must actually see the real mutators — an empty result
        # would make the classification check pass vacuously.
        for expected in ("insert_edge", "erase_edge", "set_slot_weight",
                         "set_vertex_weight", "compact", "undo"):
            self.assertIn(expected, names)
        known = set(lint.EXPECTED_JOURNAL_HOOKS) | lint.JOURNAL_EXEMPT_METHODS
        self.assertEqual(names - known, set())


# ------------------------------------------------------- run_clang_tidy ----

STUB_TIDY = """#!/bin/sh
# Emits the diagnostics listed in $STUB_DIAGS (one per line) verbatim.
if [ -n "$STUB_DIAGS" ]; then cat "$STUB_DIAGS"; fi
exit 0
"""


class ClangTidyDriverTest(TempDirTest):
    def setUp(self):
        super().setUp()
        self.build = self.dir / "build"
        self.build.mkdir()
        # One real library TU so compile_commands filtering has a target.
        self.tu = str(REPO / "src/dynamic/overlay_graph.cpp")
        (self.build / "compile_commands.json").write_text(json.dumps(
            [{"directory": str(self.build), "file": self.tu,
              "command": f"g++ -c {self.tu}"},
             {"directory": str(self.build),
              "file": str(REPO / "tests/test_support.cpp"),
              "command": "g++ -c x.cpp"}]))
        self.baseline = self.dir / "baseline.json"
        self.bin = str(self.stub("bin/clang-tidy", STUB_TIDY))
        self.diags = self.dir / "diags.txt"
        os.environ["STUB_DIAGS"] = str(self.diags)
        self.addCleanup(os.environ.pop, "STUB_DIAGS", None)

    def run_main(self, *extra):
        return tidy.main(["--build-dir", str(self.build),
                          "--clang-tidy", self.bin,
                          "--baseline", str(self.baseline), "-j", "1",
                          *extra])

    def diag(self, check, line=10):
        return (f"{self.tu}:{line}:5: warning: something is off [{check}]\n")

    def test_library_tus_excludes_tests(self):
        files = tidy.library_tus(self.build / "compile_commands.json", REPO)
        self.assertEqual(files, [self.tu])

    def test_clean_run_exits_zero(self):
        self.diags.write_text("")
        self.assertEqual(self.run_main(), 0)

    def test_new_finding_is_a_regression(self):
        self.diags.write_text(self.diag("performance-no-int-to-ptr"))
        self.assertEqual(self.run_main(), 1)

    def test_update_baseline_then_clean(self):
        self.diags.write_text(self.diag("bugprone-use-after-move"))
        self.assertEqual(self.run_main("--update-baseline"), 0)
        saved = json.loads(self.baseline.read_text())
        self.assertEqual(
            saved["counts"]["src/dynamic/overlay_graph.cpp"],
            {"bugprone-use-after-move": 1})
        self.assertEqual(self.run_main(), 0)

    def test_ratchet_fixed_finding_requires_shrink(self):
        self.diags.write_text(self.diag("bugprone-use-after-move"))
        self.assertEqual(self.run_main("--update-baseline"), 0)
        self.diags.write_text("")  # the finding got fixed
        self.assertEqual(self.run_main(), 1)  # stale baseline: ratchet
        self.assertEqual(self.run_main("--update-baseline"), 0)
        self.assertEqual(self.run_main(), 0)

    def test_count_increase_within_baselined_check_fails(self):
        self.diags.write_text(self.diag("bugprone-use-after-move"))
        self.assertEqual(self.run_main("--update-baseline"), 0)
        self.diags.write_text(self.diag("bugprone-use-after-move", 10)
                              + self.diag("bugprone-use-after-move", 20))
        self.assertEqual(self.run_main(), 1)

    def test_duplicate_header_sites_collapse(self):
        counts = tidy.parse_diagnostics(
            self.diag("bugprone-x") + self.diag("bugprone-x"), REPO)
        self.assertEqual(
            counts["src/dynamic/overlay_graph.cpp"]["bugprone-x"], 1)

    def test_missing_binary_exits_two(self):
        self.assertEqual(tidy.main(
            ["--build-dir", str(self.build),
             "--clang-tidy", str(self.dir / "nope"),
             "--baseline", str(self.baseline)]), 2)

    def test_missing_compile_commands_exits_two(self):
        self.assertEqual(self.run_main("--build-dir",
                                       str(self.dir / "nowhere")), 2)

    def test_bad_baseline_version_exits_two(self):
        self.baseline.write_text(json.dumps({"version": 99, "counts": {}}))
        self.diags.write_text("")
        self.assertEqual(self.run_main(), 2)


# --------------------------------------------------------- check_format ----

STUB_FORMAT_OK = "#!/bin/sh\nexit 0\n"
# Fails (like --dry-run -Werror) iff the file contains MISFORMATTED.
STUB_FORMAT_PICKY = """#!/bin/sh
for last; do :; done
if grep -q MISFORMATTED "$last"; then exit 1; fi
exit 0
"""


class CheckFormatTest(TempDirTest):
    def run_main(self, binary, *extra):
        return fmt.main(["--clang-format", binary, "-j", "1", *extra])

    def test_conforming_files_exit_zero(self):
        binary = str(self.stub("bin/clang-format", STUB_FORMAT_OK))
        f = self.write("a.cpp", "int x;\n")
        self.assertEqual(self.run_main(binary, str(f)), 0)

    def test_nonconforming_file_exits_one(self):
        binary = str(self.stub("bin/clang-format", STUB_FORMAT_PICKY))
        good = self.write("good.cpp", "int x;\n")
        bad = self.write("bad.cpp", "int  MISFORMATTED ;\n")
        self.assertEqual(self.run_main(binary, str(good)), 0)
        self.assertEqual(self.run_main(binary, str(good), str(bad)), 1)

    def test_missing_binary(self):
        missing = str(self.dir / "nope")
        self.assertEqual(self.run_main(missing, "x.cpp"), 2)
        self.assertEqual(self.run_main(missing, "--skip-missing", "x.cpp"), 0)

    def test_default_scan_covers_cxx_tree(self):
        files = fmt.cxx_files(REPO)
        rels = {f.relative_to(REPO).as_posix() for f in files}
        self.assertIn("src/dynamic/overlay_graph.cpp", rels)
        self.assertIn("tests/thread_safety/contract_clean.cpp", rels)
        self.assertNotIn("scripts/lint_invariants.py", rels)


# ------------------------------------------------- check_markdown_links ----


class MarkdownLinksTest(TempDirTest):
    """The link checker run over a scratch git repository."""

    def git_repo(self, files):
        for rel, text in files.items():
            self.write(rel, text)
        subprocess.run(["git", "init", "-q"], cwd=self.dir, check=True)
        subprocess.run(["git", "add", "-A"], cwd=self.dir, check=True)

    def check(self):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "check_markdown_links.py"),
             str(self.dir)],
            capture_output=True, text=True)

    def test_valid_link_exits_zero(self):
        self.git_repo({"a.md": "[b](b.md#title)\n", "b.md": "# Title\n"})
        run = self.check()
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("0 broken", run.stdout)

    def test_broken_anchor_exits_one(self):
        self.git_repo({"a.md": "[b](b.md#nope)\n", "b.md": "# Title\n"})
        run = self.check()
        self.assertEqual(run.returncode, 1)
        self.assertIn("a.md: broken anchor -> b.md#nope", run.stderr)

    def test_deleted_tracked_file_is_reported_and_skipped(self):
        self.git_repo({"a.md": "# A\n", "gone.md": "[a](a.md)\n"})
        (self.dir / "gone.md").unlink()
        run = self.check()
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("gone.md: tracked but missing", run.stdout)
        self.assertNotIn("Traceback", run.stderr)

    def test_link_to_deleted_tracked_file_exits_one(self):
        self.git_repo({"a.md": "[gone](gone.md)\n", "gone.md": "# Gone\n"})
        (self.dir / "gone.md").unlink()
        run = self.check()
        self.assertEqual(run.returncode, 1)
        self.assertIn("a.md: broken link -> gone.md", run.stderr)
        self.assertNotIn("Traceback", run.stderr)


if __name__ == "__main__":
    sys.exit(unittest.main())
