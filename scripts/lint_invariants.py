#!/usr/bin/env python3
"""Project-invariant linter: repo law that generic static analysis can't know.

Every guarantee this repo advertises (bit-identical async-vs-blocking
dispatch, inflight-window invariance, reproducible IS estimates) rests on
two disciplines that no off-the-shelf tool checks:

 * RNG-stream discipline - all randomness flows from explicit `Rng` child
   streams; any wall-clock or OS-entropy source in `src/` silently breaks
   reproducibility;
 * lock discipline - every mutex is an annotated `util::Mutex` with a
   `YPM_GUARDED_BY` peer, so Clang's `-Wthread-safety` sees the whole
   concurrent surface.

Rules (applied to src/**/*.{hpp,cpp} after stripping comments/strings):

  wallclock        no std::random_device / rand() / srand() / time() /
                   localtime()/gmtime() - nondeterminism sources.
  raw-clock        no <chrono> *_clock::now() outside util/clock.hpp - all
                   timing reads the one monotonic clock seam (which is the
                   single allowlisted exception), so spans, ledgers and
                   FlowTimings share an epoch and the wall-clock ban stays
                   checkable.
  raw-thread       no std::thread / std::jthread / std::async /
                   pthread_create outside util/thread_pool.* - all
                   parallelism rides the deterministic pool.
  raw-dispatch     no ThreadPool::parallel_for / parallel_for_async call
                   outside eval/engine.cpp and util/thread_pool.* - every
                   batch goes through the engine's one chunked dispatch
                   path (scheduling, RNG child streams, cache and ledger),
                   so a second dispatch path cannot creep back.
  raw-mutex        no std::mutex / std::condition_variable / std::lock_guard
                   / std::unique_lock / std::scoped_lock outside
                   util/mutex.hpp - raw lock types are invisible to the
                   thread-safety analysis.
  unguarded-mutex  every util::Mutex (or std::mutex) variable must be named
                   by a YPM_* capability annotation in the same file.
  float-accum      no float/double accumulation (`+=`/`-=`) inside a
                   range-for over a std::unordered_* container - iteration
                   order is unspecified, so the reduction is not
                   reproducible across standard libraries.
  rng-construction no `Rng(...)` construction or raw std engine types
                   outside util/rng.* - streams are derived via
                   Rng::child(), never re-seeded ad hoc.

Violations that are genuinely intended (e.g. the engine ledger's wall-clock
timing) live in scripts/lint_allowlist.txt with a justification comment.
Unused allowlist entries are errors, so the list can only shrink.

Exit status: 0 clean, 1 violations or bad allowlist, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

RULES = (
    "wallclock",
    "raw-clock",
    "raw-thread",
    "raw-dispatch",
    "raw-mutex",
    "unguarded-mutex",
    "float-accum",
    "rng-construction",
)

# Structural exemptions: the one file allowed to implement each primitive.
# (These are law, not allowlist: they never need justification entries.)
RULE_HOME = {
    "raw-thread": ("src/util/thread_pool.hpp", "src/util/thread_pool.cpp"),
    "raw-dispatch": ("src/eval/engine.cpp", "src/util/thread_pool.hpp",
                     "src/util/thread_pool.cpp"),
    "raw-mutex": ("src/util/mutex.hpp",),
    "unguarded-mutex": ("src/util/mutex.hpp",),
    "rng-construction": ("src/util/rng.hpp", "src/util/rng.cpp"),
}

WALLCLOCK_RE = re.compile(
    r"std::random_device"
    r"|(?<![\w.>:])s?rand\s*\("
    r"|(?<![\w.>:])time\s*\("
    r"|(?<![\w.>:])(?:localtime|gmtime)\s*\("
)
RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)::now"
)
RAW_THREAD_RE = re.compile(
    r"std::j?thread\b|std::async\b|pthread_create\b|std::promise\b"
)
RAW_DISPATCH_RE = re.compile(r"\bparallel_for(?:_async)?\s*\(")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
MUTEX_MEMBER_RE = re.compile(
    r"(?:^|[;{}(:]|\bmutable\s+)\s*(?:ypm::)?(?:util::)?\bMutex\s+(\w+)"
    r"|std::mutex\s+(\w+)\s*;"
)
ANNOTATION_RE = re.compile(
    r"YPM_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE"
    r"|EXCLUDES|RETURN_CAPABILITY)\s*\(([^)]*)\)"
)
RNG_CONSTRUCT_RE = re.compile(
    r"\bRng\s*[({]"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b)\b"
)
ACCUM_RE = re.compile(r"(\w+)\s*[+\-]=")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)\s*", re.DOTALL)


@dataclass
class Finding:
    rule: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    token: str  # subject (mutex name, matched text, ...)
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literals with spaces, preserving
    newlines so reported line numbers match the source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def unordered_container_names(code: str) -> set[str]:
    """Names declared with a std::unordered_* type (members or locals),
    matching balanced template angle brackets by hand."""
    names = set()
    for m in re.finditer(r"std::unordered_\w+\s*<", code):
        depth, i = 1, m.end()
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        tail = code[i:]
        dm = re.match(r"\s*&?\s*(\w+)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def body_after(code: str, pos: int) -> str:
    """The statement/block following position `pos` (a range-for header
    end): a balanced {...} block, or text up to the next ';'."""
    i = pos
    while i < len(code) and code[i] in " \t\n":
        i += 1
    if i < len(code) and code[i] == "{":
        depth, j = 1, i + 1
        while j < len(code) and depth > 0:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
            j += 1
        return code[i:j]
    end = code.find(";", i)
    return code[i : end + 1 if end >= 0 else len(code)]


def scan_file(path: pathlib.Path, relpath: str) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(text)
    findings: list[Finding] = []

    def flag(rule: str, pos: int, token: str, message: str) -> None:
        if relpath in RULE_HOME.get(rule, ()):
            return
        findings.append(Finding(rule, relpath, line_of(code, pos), token, message))

    for m in WALLCLOCK_RE.finditer(code):
        flag("wallclock", m.start(), m.group(0).strip(),
             f"nondeterminism source '{m.group(0).strip()}' - all randomness "
             "must derive from Rng child streams, all timing from the "
             "allowlisted ledger sites")
    for m in RAW_CLOCK_RE.finditer(code):
        flag("raw-clock", m.start(), m.group(0).strip(),
             f"direct clock read '{m.group(0).strip()}' - all timing goes "
             "through util::now_ns() (util/clock.hpp, the one allowlisted "
             "clock seam)")
    for m in RAW_THREAD_RE.finditer(code):
        flag("raw-thread", m.start(), m.group(0),
             f"raw threading primitive '{m.group(0)}' - use "
             "util::ThreadPool so work stays deterministic in item index")
    for m in RAW_DISPATCH_RE.finditer(code):
        token = m.group(0).rstrip("( \t\n")
        flag("raw-dispatch", m.start(), token,
             f"direct pool dispatch '{token}' - submit an EvalBatch to "
             "eval::Engine so scheduling, RNG streams, cache and ledger stay "
             "on its one chunked path")
    for m in RAW_MUTEX_RE.finditer(code):
        flag("raw-mutex", m.start(), m.group(0),
             f"raw lock type '{m.group(0)}' - use util::Mutex / "
             "util::MutexLock / util::ConditionVariable so the thread-safety "
             "analysis sees it")

    annotated = set()
    for m in ANNOTATION_RE.finditer(code):
        annotated.update(re.findall(r"\w+", m.group(1)))
    for m in MUTEX_MEMBER_RE.finditer(code):
        name = m.group(1) or m.group(2)
        if name in ("const", "return") or name is None:
            continue
        if name not in annotated:
            flag("unguarded-mutex", m.start(), name,
                 f"mutex '{name}' has no YPM_GUARDED_BY/YPM_REQUIRES peer in "
                 "this file - annotate what it protects or allowlist it with "
                 "a justification")

    unordered = unordered_container_names(code)
    float_vars = set()
    for m in re.finditer(r"\b(?:float|double)\b[^;(){}=]*?\b(\w+)\s*[;={]", code):
        float_vars.add(m.group(1))
    for m in RANGE_FOR_RE.finditer(code):
        seq_ids = re.findall(r"\w+", m.group(2))
        if not seq_ids or seq_ids[-1] not in unordered:
            continue
        body = body_after(code, m.end())
        for am in ACCUM_RE.finditer(body):
            if am.group(1) in float_vars:
                flag("float-accum", m.start(), am.group(1),
                     f"float accumulation into '{am.group(1)}' over unordered "
                     f"container '{seq_ids[-1]}' - iteration order is "
                     "unspecified, so the sum is not reproducible; iterate a "
                     "sorted view or restructure")
    for m in RNG_CONSTRUCT_RE.finditer(code):
        before = code[max(0, m.start() - 24):m.start()]
        if re.search(r"(?:\bexplicit|\bclass|\bstruct|Rng::)\s*$", before):
            continue  # declaration / out-of-line definition, not a call
        flag("rng-construction", m.start(), m.group(0).strip(" ({"),
             f"'{m.group(0).strip()}' constructs a generator outside "
             "util/rng - derive streams via Rng::child() from a documented "
             "seed root (or allowlist a new root with a justification)")

    return findings


@dataclass
class AllowEntry:
    rule: str
    path: str
    token: str | None
    lineno: int
    used: bool = False

    def matches(self, f: Finding) -> bool:
        return (self.rule == f.rule and self.path == f.path
                and (self.token is None or self.token == f.token))


def parse_allowlist(path: pathlib.Path, root: pathlib.Path) -> list[AllowEntry]:
    """Format: `<rule> <path> [<token>]`, '#' starts a comment. Raises
    ValueError on unknown rules or paths that don't exist under root."""
    entries: list[AllowEntry] = []
    errors: list[str] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            errors.append(f"{path}:{lineno}: expected '<rule> <path> [<token>]'")
            continue
        rule, rel = parts[0], parts[1]
        token = parts[2] if len(parts) == 3 else None
        if rule not in RULES:
            errors.append(f"{path}:{lineno}: unknown rule '{rule}' "
                          f"(known: {', '.join(RULES)})")
        if not (root / rel).is_file():
            errors.append(f"{path}:{lineno}: no such file '{rel}' under {root}")
        entries.append(AllowEntry(rule, rel, token, lineno))
    if errors:
        raise ValueError("\n".join(errors))
    return entries


def apply_allowlist(findings: list[Finding],
                    entries: list[AllowEntry]) -> list[Finding]:
    kept = []
    for f in findings:
        suppressed = False
        for e in entries:
            if e.matches(f):
                e.used = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    return kept


def lint_tree(root: pathlib.Path, allowlist: pathlib.Path) -> int:
    src = root / "src"
    if not src.is_dir():
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2
    try:
        entries = parse_allowlist(allowlist, root) if allowlist.is_file() else []
    except ValueError as err:
        print(err, file=sys.stderr)
        return 1
    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        findings.extend(scan_file(path, path.relative_to(root).as_posix()))
    findings = apply_allowlist(findings, entries)
    status = 0
    for f in findings:
        print(f.format())
        status = 1
    for e in entries:
        if not e.used:
            print(f"{allowlist}:{e.lineno}: unused allowlist entry "
                  f"({e.rule} {e.path}{' ' + e.token if e.token else ''}) - "
                  "remove it", file=sys.stderr)
            status = 1
    if status == 0:
        print(f"lint_invariants: clean ({len(entries)} allowlisted exceptions)")
    return status


def run_fixtures(root: pathlib.Path, fixtures: pathlib.Path) -> int:
    """Self-test: bad_<rule>*.cpp must trigger exactly that rule,
    good_*.cpp must be clean, allowlisted_<rule>*.cpp must trigger without
    the fixture allowlist and be clean with it."""
    if not fixtures.is_dir():
        print(f"lint_invariants: no fixture dir {fixtures}", file=sys.stderr)
        return 2
    fixture_allow = fixtures / "fixture_allowlist.txt"
    failures = 0
    checked = 0

    def fail(msg: str) -> None:
        nonlocal failures
        failures += 1
        print(f"FIXTURE FAIL: {msg}")

    for path in sorted(fixtures.glob("*.cpp")):
        checked += 1
        rel = path.name
        findings = scan_file(path, rel)
        stem = path.stem
        if stem.startswith("bad_"):
            rule = stem[len("bad_"):].rstrip("0123456789_").replace("_", "-")
            if not findings:
                fail(f"{rel}: expected >=1 '{rule}' violation, found none")
            for f in findings:
                if f.rule != rule:
                    fail(f"{rel}: expected only '{rule}', got {f.format()}")
        elif stem.startswith("good_"):
            for f in findings:
                fail(f"{rel}: expected clean, got {f.format()}")
        elif stem.startswith("allowlisted_"):
            if not findings:
                fail(f"{rel}: expected a violation before allowlisting")
                continue
            try:
                entries = [e for e in parse_allowlist(fixture_allow, fixtures)]
            except ValueError as err:
                fail(f"fixture allowlist failed to parse:\n{err}")
                continue
            left = apply_allowlist(findings, entries)
            for f in left:
                fail(f"{rel}: finding survived the fixture allowlist: "
                     f"{f.format()}")
        else:
            fail(f"{rel}: fixture names must start with bad_/good_/allowlisted_")
    if checked == 0:
        fail(f"no *.cpp fixtures found in {fixtures}")
    if failures == 0:
        print(f"lint_invariants: {checked} fixtures pass")
        return 0
    return 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repo root (default: this script's repo)")
    parser.add_argument("--allowlist", type=pathlib.Path, default=None,
                        help="allowlist file (default: "
                             "<root>/scripts/lint_allowlist.txt)")
    parser.add_argument("--check-allowlist", action="store_true",
                        help="only parse-validate the allowlist, then exit")
    parser.add_argument("--fixtures", type=pathlib.Path, default=None,
                        help="run the fixture self-test on this directory "
                             "instead of linting src/")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    allowlist = args.allowlist or root / "scripts" / "lint_allowlist.txt"

    if args.check_allowlist:
        try:
            entries = parse_allowlist(allowlist, root)
        except (ValueError, OSError) as err:
            print(err, file=sys.stderr)
            return 1
        print(f"lint_invariants: allowlist OK ({len(entries)} entries)")
        return 0
    if args.fixtures is not None:
        return run_fixtures(root, args.fixtures.resolve())
    return lint_tree(root, allowlist)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
