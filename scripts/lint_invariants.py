#!/usr/bin/env python3
"""Repo-invariant linter: project-specific rules no off-the-shelf tool knows.

Rules (each reportable, each with a stable id):

  journal-hooks     every OverlayGraph mutator body in
                    src/dynamic/overlay_graph.cpp performs at least its
                    expected number of `journal_->record(...)` calls, and
                    every non-const public OverlayGraph method is classified
                    (mutator or explicitly allowlisted) so new mutators
                    cannot dodge the rule by being unknown;
  omp-confined      `#pragma omp` appears only under src/parallel/ — the
                    parallelism seam the deterministic rounds depend on;
  no-nondeterminism no rand()/srand()/std::random_device/time() in src/
                    (all randomness flows from explicit seeds; src/obs/ is
                    exempt — wall-clock reads are its whole job);
  no-cout           no std::cout in library code (src/; src/obs/ writers
                    take std::ostream& and are exempt);
  bench-emit        bench binaries emit tables only via bench::emit
                    (no direct Table::print / Table::write_json), so the
                    JSON capture lane sees every table;
  obs-confined      metric/span emission only via the src/obs/ API — no
                    ad-hoc clock reads (steady_clock & co.), Timer uses,
                    or printf-family telemetry in library code outside
                    src/obs/ and src/support/timing.hpp.

Engine: token-level scanning with comment/string stripping (always
available). When the libclang python bindings are importable, the
journal-hooks rule additionally cross-checks method-body extents with the
real parser; token-level results are authoritative when libclang is absent.

Suppression: append `// pargreedy-lint: allow(<rule-id>)` on the offending
line. Use sparingly; the suppression itself is grep-able.

Exit codes: 0 clean, 1 violations found, 2 internal/usage error.
Run as: python3 scripts/lint_invariants.py [--repo-root DIR] [--rule ID]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Iterable, List, NamedTuple, Optional

# --------------------------------------------------------------- model ----


class Violation(NamedTuple):
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 when the finding is file- or class-level
    message: str

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


RULE_IDS = (
    "journal-hooks",
    "omp-confined",
    "no-nondeterminism",
    "no-cout",
    "bench-emit",
    "obs-confined",
)

ALLOW_RE = re.compile(r"pargreedy-lint:\s*allow\(([a-z-]+)\)")

# Expected minimum journal_->record(...) call counts per OverlayGraph
# mutator body (src/dynamic/overlay_graph.cpp). Minimums, not exact counts,
# so adding a record site never trips the linter — but deleting one below
# the floor does. Keep in sync with the mutators' record sites.
EXPECTED_JOURNAL_HOOKS = {
    "insert_edge": 3,        # revive-base / revive-extra / append-extra
    "erase_edge": 2,         # erase-base / erase-extra
    "set_slot_weight": 1,    # old-weight store
    "set_vertex_weight": 2,  # lazy weighted upgrade + old-weight store
    "ensure_edge_weights": 1,  # lazy weighted upgrade
}

# Non-const public OverlayGraph methods that are legitimately NOT journal
# mutators. Anything non-const and public that is neither here nor in
# EXPECTED_JOURNAL_HOOKS fails classification — new mutators must be
# triaged into one of the two lists.
JOURNAL_EXEMPT_METHODS = {
    "set_edge_weight",  # delegates to set_slot_weight (which journals)
    "compact",          # forbidden while a journal is attached (checked)
    "set_journal",      # the attach/detach seam itself
    "undo",             # the replay path — consumes records
    "OverlayGraph",     # constructors
    "enable_frontier_tracking",  # forbidden while attached (checked); the
                                 # counters it seeds are derived state kept
                                 # exact by the journaled mutators
    "track_edge",       # derived-counter maintenance, no structural change
}

# ---------------------------------------------------------- C++ lexing ----


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string literals, and char literals, preserving
    every newline so line numbers survive. Handles //, /* */, "..." with
    escapes, '...' with escapes; raw strings are treated as plain strings
    (good enough: the repo has none outside tests)."""
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j  # keep the newline
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            out.append(c)  # digit separator (7'000), not a char literal
            i += 1
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _line_allows(raw_lines: List[str], lineno: int, rule: str) -> bool:
    if not 1 <= lineno <= len(raw_lines):
        return False
    m = ALLOW_RE.search(raw_lines[lineno - 1])
    return bool(m and m.group(1) == rule)


def scan_lines(
    path: pathlib.Path,
    root: pathlib.Path,
    pattern: re.Pattern,
    rule: str,
    message: str,
) -> List[Violation]:
    """One violation per stripped-code line matching `pattern`."""
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    rel = path.relative_to(root).as_posix()
    found = []
    for lineno, line in enumerate(strip_comments_and_strings(raw).splitlines(), 1):
        if pattern.search(line) and not _line_allows(raw_lines, lineno, rule):
            found.append(Violation(rule, rel, lineno, message))
    return found


def cxx_files(root: pathlib.Path, *subdirs: str) -> Iterable[pathlib.Path]:
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.cpp", "*.h", "*.cc"):
            yield from sorted(base.rglob(ext))


# ------------------------------------------------- rule: journal-hooks ----


def extract_method_bodies(stripped_cpp: str, class_name: str) -> dict:
    """Maps method name -> (body text, 1-based line of the definition) for
    every `Ret ClassName::method(...) ... { body }` in an
    already-stripped .cpp, via brace matching from the qualified name."""
    bodies = {}
    for m in re.finditer(rf"\b{class_name}::(~?\w+)\s*\(", stripped_cpp):
        name = m.group(1)
        brace = stripped_cpp.find("{", m.end())
        semi = stripped_cpp.find(";", m.end())
        if brace == -1 or (semi != -1 and semi < brace):
            continue  # a declaration or out-of-line `= default`
        depth, j = 1, brace + 1
        while j < len(stripped_cpp) and depth:
            depth += {"{": 1, "}": -1}.get(stripped_cpp[j], 0)
            j += 1
        bodies[name] = (
            stripped_cpp[brace:j],
            stripped_cpp.count("\n", 0, m.start()) + 1,
        )
    return bodies


def public_nonconst_methods(stripped_hpp: str, class_name: str) -> List[tuple]:
    """(name, line) for each non-const member function declared in the
    public sections of `class_name` in an already-stripped header."""
    m = re.search(rf"\bclass\s+{class_name}\b[^;{{]*{{", stripped_hpp)
    if not m:
        return []
    depth, j = 1, m.end()
    while j < len(stripped_hpp) and depth:
        depth += {"{": 1, "}": -1}.get(stripped_hpp[j], 0)
        j += 1
    body = stripped_hpp[m.end() : j - 1]
    base_line = stripped_hpp.count("\n", 0, m.end()) + 1

    # Access at any position = the last specifier before it (class default
    # is private). `(?<!:)`/`(?!:)` keep scope operators out.
    specs = [(0, "private")]
    for am in re.finditer(r"(?<!:)\b(public|protected|private)\s*:(?!:)", body):
        specs.append((am.end(), am.group(1)))

    def access_at(pos: int) -> str:
        current = "private"
        for p, name in specs:
            if p > pos:
                break
            current = name
        return current

    methods: List[tuple] = []

    def classify(decl: str, offset: int) -> None:
        if access_at(offset + len(decl)) != "public":
            return
        # Drop a leading access specifier sharing the chunk.
        am = None
        for am in re.finditer(r"(?<!:)\b(?:public|protected|private)\s*:(?!:)",
                              decl):
            pass
        if am:
            offset += am.end()
            decl = decl[am.end():]
        paren = decl.find("(")
        if paren == -1:
            return  # data member / using / friend-less declaration
        d2, j2 = 1, paren + 1
        while j2 < len(decl) and d2:
            d2 += {"(": 1, ")": -1}.get(decl[j2], 0)
            j2 += 1
        if re.match(r"\s*const\b", decl[j2:]):
            return  # const member: reader surface, out of scope
        nm = re.search(r"(~?\w+)\s*$", decl[:paren].strip())
        if not nm:
            return
        name = nm.group(1)
        if name.startswith("~") or "operator" in decl[:paren]:
            return
        methods.append((name, base_line + body.count("\n", 0, offset)))

    # Split top-level declarations at `;` or at an inline body `{...}`,
    # both only outside parentheses (default args like Weight{1} and
    # attribute macros carry nested parens/braces).
    decl_start = i = paren_depth = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth -= 1
        elif c == "{" and paren_depth == 0:
            classify(body[decl_start:i], decl_start)
            d2, j2 = 1, i + 1
            while j2 < n and d2:
                d2 += {"{": 1, "}": -1}.get(body[j2], 0)
                j2 += 1
            i = decl_start = j2
            continue
        elif c == ";" and paren_depth == 0:
            classify(body[decl_start:i], decl_start)
            decl_start = i + 1
        i += 1
    return methods


def check_journal_hooks(root: pathlib.Path) -> List[Violation]:
    cpp_path = root / "src/dynamic/overlay_graph.cpp"
    hpp_path = root / "src/dynamic/overlay_graph.hpp"
    out: List[Violation] = []
    for p in (cpp_path, hpp_path):
        if not p.is_file():
            return [
                Violation(
                    "journal-hooks",
                    p.relative_to(root).as_posix(),
                    0,
                    "file missing — cannot verify OverlayGraph journal hooks",
                )
            ]
    stripped_cpp = strip_comments_and_strings(cpp_path.read_text(encoding="utf-8"))
    bodies = extract_method_bodies(stripped_cpp, "OverlayGraph")
    rel_cpp = cpp_path.relative_to(root).as_posix()
    for name, expected in sorted(EXPECTED_JOURNAL_HOOKS.items()):
        if name not in bodies:
            out.append(
                Violation(
                    "journal-hooks",
                    rel_cpp,
                    0,
                    f"mutator OverlayGraph::{name} not found "
                    "(moved? update EXPECTED_JOURNAL_HOOKS)",
                )
            )
            continue
        body, line = bodies[name]
        got = len(re.findall(r"\bjournal_\s*->\s*record\s*\(", body))
        if got < expected:
            out.append(
                Violation(
                    "journal-hooks",
                    rel_cpp,
                    line,
                    f"OverlayGraph::{name} performs {got} journal_->record() "
                    f"call(s), expected >= {expected}: a mutation path no "
                    "longer journals its inverse",
                )
            )
    # Classification: no unknown non-const public methods.
    stripped_hpp = strip_comments_and_strings(hpp_path.read_text(encoding="utf-8"))
    rel_hpp = hpp_path.relative_to(root).as_posix()
    known = set(EXPECTED_JOURNAL_HOOKS) | JOURNAL_EXEMPT_METHODS
    for name, line in public_nonconst_methods(stripped_hpp, "OverlayGraph"):
        if name not in known:
            out.append(
                Violation(
                    "journal-hooks",
                    rel_hpp,
                    line,
                    f"unclassified non-const public method "
                    f"OverlayGraph::{name}: add it to EXPECTED_JOURNAL_HOOKS "
                    "(it journals) or JOURNAL_EXEMPT_METHODS (it provably "
                    "does not need to) in scripts/lint_invariants.py",
                )
            )
    out.extend(_libclang_crosscheck(cpp_path, root))
    return out


def _libclang_crosscheck(cpp_path: pathlib.Path, root: pathlib.Path):
    """When libclang is importable, re-derive the mutator list from the real
    AST and flag mutators the token scan missed. Silent no-op otherwise."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return []
    try:
        index = cindex.Index.create()
        tu = index.parse(
            str(cpp_path),
            args=["-std=c++20", f"-I{root / 'src'}"],
        )
    except Exception:
        return []  # bindings present but no usable libclang.so
    names = set()
    for cur in tu.cursor.walk_preorder():
        if (
            cur.kind == cindex.CursorKind.CXX_METHOD
            and cur.is_definition()
            and cur.semantic_parent.spelling == "OverlayGraph"
        ):
            names.add(cur.spelling)
    missing = set(EXPECTED_JOURNAL_HOOKS) - names
    return [
        Violation(
            "journal-hooks",
            cpp_path.relative_to(root).as_posix(),
            0,
            f"libclang cross-check: mutator OverlayGraph::{m} not found",
        )
        for m in sorted(missing)
    ]


# ------------------------------------------------------- simple rules ----


def check_omp_confined(root: pathlib.Path) -> List[Violation]:
    pat = re.compile(r"#\s*pragma\s+omp\b")
    out = []
    for path in cxx_files(root, "src", "tests", "bench", "examples"):
        if (root / "src/parallel") in path.parents:
            continue
        out.extend(
            scan_lines(
                path,
                root,
                pat,
                "omp-confined",
                "#pragma omp outside src/parallel/ — route parallelism "
                "through the parallel primitives so determinism holds",
            )
        )
    return out


def check_no_nondeterminism(root: pathlib.Path) -> List[Violation]:
    pat = re.compile(
        r"\bstd::random_device\b|(?<![\w:])(?:rand|srand)\s*\(|"
        r"(?<![\w.:>])time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
    )
    out = []
    for path in cxx_files(root, "src"):
        if (root / "src/obs") in path.parents:
            continue  # the observability layer legitimately reads clocks
        out.extend(
            scan_lines(
                path,
                root,
                pat,
                "no-nondeterminism",
                "nondeterminism source in src/ — all randomness must flow "
                "from explicit seeds (random/permutation.hpp)",
            )
        )
    return out


def check_no_cout(root: pathlib.Path) -> List[Violation]:
    pat = re.compile(r"\bstd::cout\b")
    out = []
    for path in cxx_files(root, "src"):
        if (root / "src/obs") in path.parents:
            continue  # obs writers take std::ostream&; no cout regardless
        out.extend(
            scan_lines(
                path,
                root,
                pat,
                "no-cout",
                "std::cout in library code — take an std::ostream& "
                "(support/table.hpp style) or report through return values",
            )
        )
    return out


def check_bench_emit(root: pathlib.Path) -> List[Violation]:
    pat = re.compile(r"\.\s*(?:print|write_json)\s*\(")
    out = []
    for path in cxx_files(root, "bench"):
        if path.name == "bench_common.hpp":
            continue  # the bench::emit implementation itself
        out.extend(
            scan_lines(
                path,
                root,
                pat,
                "bench-emit",
                "direct table output in a bench — emit via bench::emit so "
                "the PARGREEDY_JSON_DIR capture lane sees every table",
            )
        )
    return out


def check_obs_confined(root: pathlib.Path) -> List[Violation]:
    """Telemetry primitives in src/ only inside the obs layer.

    The obs-confined invariant keeps src/ free of ad-hoc instrumentation:
    clock reads, Timer scopes, printf-family output, and direct
    flight-recorder access belong to the src/obs/ API (PG_OBS_* macros,
    TraceSpan, MetricsRegistry) or the one shared clock helper
    (src/support/timing.hpp) — never sprinkled through library code,
    where they would bypass the seam's compile-time and runtime gates.
    Flight-recorder records in particular must go through PG_OBS_EVENT*
    / PG_OBS_SPAN* / PG_OBS_EVENT_DUMP, never by naming EventRecorder or
    record_event directly (those calls would survive a PARGREEDY_OBS=0
    build).
    """
    pat = re.compile(
        r"\b(?:steady_clock|system_clock|high_resolution_clock)\b|"
        r"\b(?:fprintf|printf)\s*\(|"
        r"\bTimer\b|"
        r"\bEventRecorder\b|"
        r"\brecord_event\s*\("
    )
    out = []
    for path in cxx_files(root, "src"):
        if (root / "src/obs") in path.parents:
            continue  # the sanctioned emission layer
        if path == root / "src/support/timing.hpp":
            continue  # the one shared clock helper (used by obs and bench)
        out.extend(
            scan_lines(
                path,
                root,
                pat,
                "obs-confined",
                "ad-hoc telemetry in library code — emit metrics/spans "
                "through the src/obs/ API (PG_OBS_* / TraceSpan) so the "
                "PARGREEDY_OBS seam gates it",
            )
        )
    return out


CHECKS = {
    "journal-hooks": check_journal_hooks,
    "omp-confined": check_omp_confined,
    "no-nondeterminism": check_no_nondeterminism,
    "no-cout": check_no_cout,
    "bench-emit": check_bench_emit,
    "obs-confined": check_obs_confined,
}
assert tuple(CHECKS) == RULE_IDS


# ---------------------------------------------------------------- main ----


def run(root: pathlib.Path, rules: Optional[List[str]] = None) -> List[Violation]:
    found: List[Violation] = []
    for rule in rules or RULE_IDS:
        found.extend(CHECKS[rule](root))
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo-root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        choices=RULE_IDS,
        help="run only this rule (repeatable; default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print("\n".join(RULE_IDS))
        return 0
    root = args.repo_root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_invariants: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    violations = run(root, args.rule)
    for v in violations:
        print(v.render())
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    checked = ", ".join(args.rule) if args.rule else "all rules"
    print(f"lint_invariants: clean ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
