#!/usr/bin/env python3
"""gqc_lint — domain-aware lint rules the compiler cannot enforce.

Rules (see DESIGN.md for the catalogue, rationale, and suppression syntax):

  guard-poll      every loop in the exponential-phase files must poll a
                  ResourceGuard somewhere in its body, or carry a
                  `// lint: bounded(<why>)` annotation explaining why the
                  iteration count is harmless.
  strategy-run-guard  every `ContainmentResult <Class>::Run(...)` definition
                  (the Strategy interface of src/core/strategy.h) must poll
                  or wire its ResourceGuard parameter — racing cancellation
                  reaches losing strategies only through guard polls — and
                  every loop inside such a body must poll/wire the guard or
                  carry `// lint: bounded(<why>)`.
  result-unchecked  `.value()` on a Result/optional must be preceded by a
                  visible ok()/has_value() check on the same variable, or
                  carry `// lint: checked(<why>)`.
  raw-assert      `assert(` is banned in src/ — use GQC_DCHECK/GQC_AUDIT
                  (src/util/invariant.h) so checks follow the audit build
                  flavor instead of NDEBUG.
  raw-sto         `std::sto*` is banned — it throws on overflow and consults
                  the locale; use gqc::ParseUint32 (src/util/parse_num.h).
  raw-sync-primitive  `std::mutex` / `std::lock_guard` / `std::condition_variable`
                  (and friends) are banned outside src/util/sync.h — use
                  gqc::Mutex/MutexLock/CondVar so every lock carries its
                  thread-safety capability and lock-order rank.
  atomic-memory-order  every std::atomic load/store/RMW must spell its
                  std::memory_order explicitly; a bare `.load()` silently
                  defaults to seq_cst, hiding the intended (and usually
                  cheaper) ordering contract.
  hot-path-container  node-based ordered containers (std::set/std::map and
                  their multi variants) are banned in the entailment fixpoint
                  files and every cache owner — the hot paths use dense
                  type-index bitsets, MaskIndex, and the open-addressing
                  FlatMap/FlatSet (DESIGN.md §11). Genuinely cold code
                  escapes with `// lint: cold(<why>)`.
  header-self-contained  every header in src/ must compile on its own
                  (IWYU-lite; catches headers leaning on transitive includes).

Exit status: 0 clean, 1 findings, 2 infrastructure error.

Suppressions are per-line comments of the form `// lint: <tag>(<reason>)`
placed on the offending line or the line directly above; the reason is
mandatory so each waiver documents itself.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Configuration

# Files implementing the (worst-case double-exponential) decision phases:
# any unguarded loop here is a potential unbounded burn that bypasses the
# ResourceGuard budget discipline.
EXPO_FILE_PATTERNS = [
    r"src/core/reduction\.cc$",
    r"src/core/sparse\.cc$",
    r"src/core/minimize\.cc$",
    r"src/core/strategy\.cc$",
    r"src/core/decide\.cc$",
    r"src/core/saturate\.cc$",
    r"src/query/query_containment\.cc$",
    r"src/entailment/[^/]+\.cc$",
    r"src/frames/[^/]+\.cc$",
]

# A loop "polls" if its body mentions one of these guard entry points
# (directly or via a helper named after the guard protocol).
GUARD_POLL_RE = re.compile(
    r"\b(?:Charge|ChargeMemory|Recheck|GuardCharge|GuardExhausted|OutOfBudget"
    r"|CheckDeadline)\s*\("
    r"|\bexhausted\s*\("
)

# Identifier-based checks that sanction a later `.value()` on the same name.
CHECK_TOKEN_TEMPLATES = [
    r"\b{id}\s*\.\s*ok\s*\(",
    r"\b{id}\s*\.\s*has_value\s*\(",
    r"if\s*\(\s*{id}\s*\)",
    r"if\s*\(\s*!\s*{id}\s*\)",
    r"(?:ASSERT|EXPECT)_TRUE\s*\(\s*{id}",
    r"(?:ASSERT|EXPECT)_FALSE\s*\(\s*!\s*{id}",
    r"return\s+!?{id}\s*;",
    r"!\s*{id}\s*\.\s*ok\s*\(",
]

# How far back (in lines) a check may sit from the `.value()` it sanctions.
CHECK_WINDOW_LINES = 60

RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
RAW_STO_RE = re.compile(r"std\s*::\s*sto[a-z]+\b")
# Files allowed to use std::sto* (checked wrappers live here).
RAW_STO_SANCTIONED = [r"src/util/parse_num\.h$"]

# Raw standard-library synchronization primitives. Longer alternatives first
# so e.g. `recursive_mutex` is not half-matched as `mutex`.
RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(?:recursive_timed_mutex|recursive_mutex|timed_mutex"
    r"|shared_timed_mutex|shared_mutex|mutex|lock_guard|scoped_lock"
    r"|unique_lock|shared_lock|condition_variable_any|condition_variable)\b"
)
# The annotated wrappers are built on the raw primitives here (and only here).
RAW_SYNC_SANCTIONED = [r"src/util/sync\.h$"]

# std::atomic member operations that take an optional std::memory_order.
# `.clear()`, `.wait()`, `.notify_*()` are deliberately absent: those names
# collide with containers and condition variables far more often than they
# appear on atomics in this codebase.
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?P<op>load|store|exchange|fetch_add|fetch_sub|fetch_and"
    r"|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong"
    r"|test_and_set)\s*\("
)

# Hot-path files where node-based ordered containers are banned: the §6/App-B
# fixpoint kernels and the caches keyed by canonical strings. Word-boundary
# after set/map keeps std::set_intersection and friends out of scope.
HOT_PATH_FILE_PATTERNS = [
    r"src/entailment/[^/]+\.(?:h|cc)$",
    # Every cache owner, and the one table they are all built on.
    r"src/core/lifecycle\.h$",
    r"src/core/caches\.(?:h|cc)$",
    r"src/automata/compile_cache\.(?:h|cc)$",
    r"src/engine/engine_core\.(?:h|cc)$",
    # The serving layer sits on every request's path: its session registry
    # and admission bookkeeping must stay on the flat containers too.
    r"src/serve/[^/]+\.(?:h|cc)$",
    # What the countermodel search runs on every state: the query evaluator,
    # its product search, the expansion enumeration, the model checker and
    # the search driver.
    r"src/query/eval\.cc$",
    r"src/query/canonical\.cc$",
    # The screen's saturation and homomorphism search run on every disjunct
    # of every request.
    r"src/core/saturate\.cc$",
    r"src/query/query_containment\.cc$",
    r"src/automata/product\.cc$",
    r"src/dl/model_check\.cc$",
    r"src/core/sparse\.cc$",
]
HOT_PATH_CONTAINER_RE = re.compile(r"std\s*::\s*(?:multiset|multimap|set|map)\b")

VALUE_CALL_RE = re.compile(
    r"(?:std\s*::\s*move\s*\(\s*)?"
    r"(?P<base>[A-Za-z_][A-Za-z0-9_]*(?:\s*(?:\.|->)\s*[A-Za-z_][A-Za-z0-9_]*)*)"
    r"\s*\)?\s*\.\s*value\s*\(\s*\)"
)

ANNOTATION_RE = re.compile(r"//\s*lint:\s*(?P<tag>[a-z-]+)\s*(?:\((?P<why>[^)]*)\))?")

HEADER_EXEMPT_PATTERNS = []  # every header must stand alone


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexical preprocessing

def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving offsets.

    Newlines inside block comments survive so line numbers stay aligned.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j, n - 1)
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_annotations(text):
    """Maps line number -> set of suppression tags on that line."""
    result = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in ANNOTATION_RE.finditer(line):
            result.setdefault(lineno, set()).add(m.group("tag"))
    return result


def suppressed(annotations, lineno, tag):
    return tag in annotations.get(lineno, set()) or tag in annotations.get(
        lineno - 1, set()
    )


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_paren(text, open_pos, open_ch="(", close_ch=")"):
    """Offset just past the matching close bracket, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def loop_body_span(stripped, header_end):
    """Span of a loop body starting after the loop header.

    Returns (start, end) offsets; handles `{...}` bodies and single
    statements (terminated by `;` at depth zero).
    """
    i = header_end
    n = len(stripped)
    while i < n and stripped[i] in " \t\n":
        i += 1
    if i >= n:
        return (header_end, header_end)
    if stripped[i] == "{":
        end = match_paren(stripped, i, "{", "}")
        return (i, n if end == -1 else end)
    # Single-statement body: up to the first `;` at bracket depth zero.
    depth = 0
    j = i
    while j < n:
        c = stripped[j]
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == ";" and depth == 0:
            return (i, j + 1)
        j += 1
    return (i, n)


# --------------------------------------------------------------------------
# Rules

LOOP_HEAD_RE = re.compile(r"(?<![A-Za-z0-9_])(for|while)\s*\(")
DO_HEAD_RE = re.compile(r"(?<![A-Za-z0-9_])do\s*\{")


def rule_guard_poll(path, text, stripped, annotations, treat_as_expo=False):
    rel = path.replace("\\", "/")
    if not treat_as_expo and not any(
        re.search(p, rel) for p in EXPO_FILE_PATTERNS
    ):
        return []
    findings = []

    def check_loop(head_pos, body_span, kind):
        lineno = line_of(stripped, head_pos)
        if suppressed(annotations, lineno, "bounded"):
            return
        body = stripped[body_span[0] : body_span[1]]
        if GUARD_POLL_RE.search(body):
            return
        findings.append(
            Finding(
                "guard-poll",
                path,
                lineno,
                f"{kind} loop in exponential-phase file neither polls a "
                "ResourceGuard nor carries `// lint: bounded(<why>)`",
            )
        )

    for m in LOOP_HEAD_RE.finditer(stripped):
        cond_end = match_paren(stripped, m.end() - 1)
        if cond_end == -1:
            continue
        # `do { ... } while (cond);` — the trailing while is not a loop head.
        after = stripped[cond_end:].lstrip()
        if m.group(1) == "while" and after.startswith(";"):
            continue
        check_loop(m.start(), loop_body_span(stripped, cond_end), m.group(1))
    for m in DO_HEAD_RE.finditer(stripped):
        brace = stripped.find("{", m.start())
        end = match_paren(stripped, brace, "{", "}")
        if end == -1:
            end = len(stripped)
        check_loop(m.start(), (brace, end), "do")
    return findings


# Out-of-line Strategy::Run definition: `ContainmentResult <Class>::Run(`.
# Keeping Run definitions out-of-line is part of the Strategy idiom so this
# rule can see them (a Run defined inline in a class body will not match and
# review must catch it; the in-tree strategies all follow the idiom).
STRATEGY_RUN_RE = re.compile(
    r"ContainmentResult\s+[A-Za-z_][A-Za-z0-9_]*\s*::\s*Run\s*\("
)
# The guard is "used" if the body polls the protocol (GUARD_POLL_RE) or
# wires/forwards the `guard` parameter into a guarded callee's options.
GUARD_WIRE_RE = re.compile(r"\bguard\b")


def rule_strategy_run_guard(path, text, stripped, annotations):
    """Strategy::Run bodies must poll/wire their guard, including in loops.

    Racing cancellation (DecideDisjunct's first-definite-wins token) reaches
    a losing strategy only through its ResourceGuard: a Run implementation
    that never polls or forwards the guard cannot be cancelled and turns the
    race into a wait-for-slowest. Loops inside Run are held to the guard-poll
    discipline of the exponential-phase files regardless of which file the
    strategy lives in.
    """
    findings = []
    for m in STRATEGY_RUN_RE.finditer(stripped):
        params_end = match_paren(stripped, stripped.index("(", m.start()))
        if params_end == -1:
            continue
        # Skip declarations (`... Run(...) const;`) — only definitions with a
        # brace body are checked.
        body_start = params_end
        n = len(stripped)
        while body_start < n and stripped[body_start] not in "{;":
            body_start += 1
        if body_start >= n or stripped[body_start] == ";":
            continue
        body_end = match_paren(stripped, body_start, "{", "}")
        if body_end == -1:
            body_end = n
        body = stripped[body_start:body_end]
        lineno = line_of(stripped, m.start())
        if not (GUARD_POLL_RE.search(body) or GUARD_WIRE_RE.search(body)):
            findings.append(
                Finding(
                    "strategy-run-guard",
                    path,
                    lineno,
                    "Strategy::Run implementation neither polls nor wires its "
                    "ResourceGuard — race cancellation cannot reach it",
                )
            )
            continue

        def check_loop(head_pos, body_span, kind):
            loop_line = line_of(stripped, head_pos)
            if suppressed(annotations, loop_line, "bounded"):
                return
            loop_body = stripped[body_span[0] : body_span[1]]
            if GUARD_POLL_RE.search(loop_body) or GUARD_WIRE_RE.search(loop_body):
                return
            findings.append(
                Finding(
                    "strategy-run-guard",
                    path,
                    loop_line,
                    f"{kind} loop inside Strategy::Run neither polls/wires the "
                    "guard nor carries `// lint: bounded(<why>)`",
                )
            )

        for lm in LOOP_HEAD_RE.finditer(stripped, body_start, body_end):
            cond_end = match_paren(stripped, lm.end() - 1)
            if cond_end == -1 or cond_end > body_end:
                continue
            after = stripped[cond_end:].lstrip()
            if lm.group(1) == "while" and after.startswith(";"):
                continue
            check_loop(lm.start(), loop_body_span(stripped, cond_end), lm.group(1))
        for dm in DO_HEAD_RE.finditer(stripped, body_start, body_end):
            brace = stripped.find("{", dm.start())
            end = match_paren(stripped, brace, "{", "}")
            if end == -1:
                end = body_end
            check_loop(dm.start(), (brace, end), "do")
    return findings


def rule_result_unchecked(path, text, stripped, annotations):
    findings = []
    lines = stripped.splitlines()
    for m in VALUE_CALL_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "checked"):
            continue
        base = re.sub(r"\s+", "", m.group("base"))
        # Chained call like `Foo(x).value()` has no variable to have checked.
        window = "\n".join(lines[max(0, lineno - 1 - CHECK_WINDOW_LINES) : lineno])
        base_re = re.escape(base)
        ok = any(
            re.search(t.format(id=base_re), window) for t in CHECK_TOKEN_TEMPLATES
        )
        if not ok:
            findings.append(
                Finding(
                    "result-unchecked",
                    path,
                    lineno,
                    f"`.value()` on `{base}` with no visible ok()/has_value() "
                    f"check in the preceding {CHECK_WINDOW_LINES} lines "
                    "(annotate `// lint: checked(<why>)` if guarded elsewhere)",
                )
            )
    return findings


def rule_raw_assert(path, text, stripped, annotations):
    findings = []
    for m in RAW_ASSERT_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "raw-assert"):
            continue
        findings.append(
            Finding(
                "raw-assert",
                path,
                lineno,
                "raw assert() — use GQC_DCHECK/GQC_AUDIT from "
                "src/util/invariant.h instead",
            )
        )
    return findings


def rule_raw_sto(path, text, stripped, annotations):
    rel = path.replace("\\", "/")
    if any(re.search(p, rel) for p in RAW_STO_SANCTIONED):
        return []
    findings = []
    for m in RAW_STO_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "raw-sto"):
            continue
        findings.append(
            Finding(
                "raw-sto",
                path,
                lineno,
                f"`{m.group(0)}` throws on overflow and is locale-dependent — "
                "use gqc::ParseUint32 (src/util/parse_num.h)",
            )
        )
    return findings


def rule_raw_sync_primitive(path, text, stripped, annotations):
    rel = path.replace("\\", "/")
    if any(re.search(p, rel) for p in RAW_SYNC_SANCTIONED):
        return []
    findings = []
    for m in RAW_SYNC_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "raw-sync"):
            continue
        primitive = re.sub(r"\s+", "", m.group(0))
        findings.append(
            Finding(
                "raw-sync-primitive",
                path,
                lineno,
                f"raw `{primitive}` — use gqc::Mutex / MutexLock / CondVar "
                "(src/util/sync.h) so the lock carries a thread-safety "
                "capability and a lock-order rank",
            )
        )
    return findings


def rule_atomic_memory_order(path, text, stripped, annotations):
    findings = []
    for m in ATOMIC_CALL_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "memory-order"):
            continue
        open_pos = m.end() - 1
        close_pos = match_paren(stripped, open_pos)
        if close_pos == -1:
            close_pos = stripped.find("\n", open_pos)
            if close_pos == -1:
                close_pos = len(stripped)
        args = stripped[open_pos + 1 : close_pos]
        if "memory_order" in args:
            continue
        findings.append(
            Finding(
                "atomic-memory-order",
                path,
                lineno,
                f"atomic `.{m.group('op')}()` without an explicit "
                "std::memory_order — a bare call defaults to seq_cst; spell "
                "the intended ordering (or annotate "
                "`// lint: memory-order(<why>)` for a non-atomic receiver)",
            )
        )
    return findings


def rule_hot_path_container(path, text, stripped, annotations, treat_as_hot=False):
    """Ban std::set/std::map (and multi variants) in the hot-path files.

    The fixpoint kernels operate on dense type indices (DynamicBitset,
    MaskIndex) and the caches on fingerprinted flat tables; a node-based
    ordered container reintroduces per-element allocation and pointer-chasing
    on exactly the paths the bench baselines measure. Cold setup code that
    genuinely wants ordering documents itself with `// lint: cold(<why>)`.
    """
    rel = path.replace("\\", "/")
    if not treat_as_hot and not any(
        re.search(p, rel) for p in HOT_PATH_FILE_PATTERNS
    ):
        return []
    findings = []
    for m in HOT_PATH_CONTAINER_RE.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(annotations, lineno, "cold"):
            continue
        container = re.sub(r"\s+", "", m.group(0))
        findings.append(
            Finding(
                "hot-path-container",
                path,
                lineno,
                f"`{container}` in a hot-path file — use DynamicBitset/"
                "MaskIndex over type indices or FlatMap/FlatSet "
                "(DESIGN.md §11); annotate `// lint: cold(<why>)` only for "
                "setup code off the fixpoint/cache paths",
            )
        )
    return findings


def check_header_self_contained(repo, header, std):
    """Compiles `#include "<header>"` alone; returns a Finding or None."""
    rel = os.path.relpath(header, repo).replace("\\", "/")
    tu = f'#include "{rel}"\n'
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cc", delete=False, dir=tempfile.gettempdir()
    ) as f:
        f.write(tu)
        tmp = f.name
    try:
        proc = subprocess.run(
            [
                os.environ.get("CXX", "g++"),
                f"-std={std}",
                "-fsyntax-only",
                "-I",
                repo,
                tmp,
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            first = next(
                (l for l in proc.stderr.splitlines() if "error:" in l),
                proc.stderr.strip().splitlines()[0] if proc.stderr.strip() else "?",
            )
            return Finding(
                "header-self-contained",
                rel,
                1,
                f"header does not compile standalone: {first.strip()}",
            )
    finally:
        os.unlink(tmp)
    return None


# --------------------------------------------------------------------------
# Driver

TEXT_RULES = {
    "guard-poll": rule_guard_poll,
    "strategy-run-guard": rule_strategy_run_guard,
    "result-unchecked": rule_result_unchecked,
    "raw-assert": rule_raw_assert,
    "raw-sto": rule_raw_sto,
    "raw-sync-primitive": rule_raw_sync_primitive,
    "atomic-memory-order": rule_atomic_memory_order,
    "hot-path-container": rule_hot_path_container,
}
ALL_RULES = list(TEXT_RULES) + ["header-self-contained"]


def gather_sources(repo, subdirs=("src",), exts=(".h", ".cc")):
    out = []
    for sub in subdirs:
        root = os.path.join(repo, sub)
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(exts):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def run_text_rules(repo, files, rules, treat_as_expo=False, treat_as_hot=False):
    findings = []
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        stripped = strip_comments_and_strings(text)
        annotations = collect_annotations(text)
        rel = os.path.relpath(path, repo)
        for rule in rules:
            fn = TEXT_RULES[rule]
            if rule == "guard-poll":
                findings.extend(
                    fn(rel, text, stripped, annotations, treat_as_expo=treat_as_expo)
                )
            elif rule == "hot-path-container":
                findings.extend(
                    fn(rel, text, stripped, annotations, treat_as_hot=treat_as_hot)
                )
            else:
                findings.extend(fn(rel, text, stripped, annotations))
    return findings


def run_header_rule(repo, headers, std, jobs):
    findings = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(check_header_self_contained, repo, h, std) for h in headers
        ]
        for fut in futures:
            result = fut.result()
            if result is not None:
                findings.append(result)
    return findings


# --------------------------------------------------------------------------
# Self-test

def selftest(repo):
    """Each rule must fire on its bad fixture and stay silent on the good one."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    failures = []

    def expect(rule, fixture, should_fire, **kwargs):
        path = os.path.join(fixtures, fixture)
        if rule == "header-self-contained":
            finding = check_header_self_contained(repo, path, "c++20")
            fired = finding is not None
        else:
            found = run_text_rules(repo, [path], [rule], **kwargs)
            fired = any(f.rule == rule for f in found)
        verdict = "ok" if fired == should_fire else "FAIL"
        want = "fires" if should_fire else "silent"
        print(f"  [{verdict}] {rule:<22} {want:<6} on {fixture}")
        if fired != should_fire:
            failures.append((rule, fixture))

    expect("guard-poll", "guard_poll_bad.cc", True, treat_as_expo=True)
    expect("guard-poll", "guard_poll_good.cc", False, treat_as_expo=True)
    expect("strategy-run-guard", "strategy_run_bad.cc", True)
    expect("strategy-run-guard", "strategy_run_good.cc", False)
    expect("result-unchecked", "result_unchecked_bad.cc", True)
    expect("result-unchecked", "result_unchecked_good.cc", False)
    expect("raw-assert", "raw_assert_bad.cc", True)
    expect("raw-assert", "raw_assert_good.cc", False)
    expect("raw-sto", "raw_sto_bad.cc", True)
    expect("raw-sto", "raw_sto_good.cc", False)
    expect("raw-sync-primitive", "raw_sync_bad.cc", True)
    expect("raw-sync-primitive", "raw_sync_good.cc", False)
    expect("atomic-memory-order", "atomic_order_bad.cc", True)
    expect("atomic-memory-order", "atomic_order_good.cc", False)
    expect("hot-path-container", "hot_path_container_bad.cc", True, treat_as_hot=True)
    expect("hot-path-container", "hot_path_container_good.cc", False, treat_as_hot=True)
    expect("header-self-contained", "header_bad.h", True)
    expect("header-self-contained", "header_good.h", False)

    if failures:
        print(f"selftest: {len(failures)} rule checks FAILED", file=sys.stderr)
        return 1
    print("selftest: all rules fire and pass as expected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files to lint (default: src/)")
    parser.add_argument("--repo", default=None, help="repository root")
    parser.add_argument(
        "--rules",
        default=",".join(ALL_RULES),
        help=f"comma-separated rules to run (default: all = {','.join(ALL_RULES)})",
    )
    parser.add_argument(
        "--skip-compile",
        action="store_true",
        help="skip the compile-based header-self-contained rule",
    )
    parser.add_argument("--std", default="c++20", help="C++ standard for header checks")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 4)
    parser.add_argument("--selftest", action="store_true", help="run fixture self-tests")
    args = parser.parse_args()

    repo = os.path.abspath(
        args.repo
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )

    if args.selftest:
        return selftest(repo)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"gqc_lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
    else:
        files = gather_sources(repo)

    text_rules = [r for r in rules if r in TEXT_RULES]
    findings = run_text_rules(repo, files, text_rules)

    if "header-self-contained" in rules and not args.skip_compile:
        headers = [f for f in files if f.endswith(".h")]
        findings.extend(run_header_rule(repo, headers, args.std, args.jobs))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        counts = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"gqc_lint: {len(findings)} finding(s) ({summary})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
